"""The in-process workloads: compile-suite, paper-run and fuzz-audit.

Each workload has a ``setup`` (imports done by the caller, inputs made
from the seed, an untimed warm-up that finishes lazy initialisation) and a
``run`` over a timed window.  Correctness always comes from an oracle
independent of the compiler: the reference interpreter, or the audit's
own invariant checks.  See ``perfbench/README.md`` for why each exists.
"""

from __future__ import annotations

import gc
import random
from typing import Any, Callable, Optional

import repro.ir.interp as interp
import repro.simulator.executor as executor
from repro.audit import fuzz
from repro.audit.generate import ProgramConfig, random_program
from repro.core.emit import RegisterPressureError
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

from perfbench import layers
from perfbench.common import (
    PIPELINED,
    UNPIPELINED,
    Outcome,
    Quality,
    UnitTimes,
    array_init,
    compile_text,
    direct,
    latency_metrics,
    overhead_pct,
    peak_rss_mb,
    quality_metrics,
    run_window,
)
from perfbench.measure import HostSpeed, Tracer, clock


def _finish(outcome: Outcome, window: dict[str, Any],
            tracer: Optional[Tracer], units_label: str,
            times: UnitTimes, quality: Quality, tail_q: int) -> None:
    """The end-to-end metrics every in-process workload shares, or the
    per-layer ones when traced.  Throughput and latency come from each
    unit's median time over the passes."""
    outcome.details["window"] = {
        "units": units_label,
        "passes": window["passes"],
        "distinct_units": len(times.times),
        "untraced_units": window["done"][False],
        "traced_units": window["done"][True],
        "elapsed_s": round(window["elapsed"], 3),
    }
    outcome.details["host"] = times.host.summary()
    if tracer is None:
        outcome.end_to_end["units_per_s"] = (times.rate(), "1/s")
        latency_metrics(outcome, times.medians(), units_label, tail_q)
        quality_metrics(outcome, quality)
        outcome.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return
    outcome.details["quality"] = quality.summary()
    outcome.details["phase_shares_pct"] = layers.phase_shares(tracer)
    outcome.layers = layers.metrics(tracer, window["done"][True], {
        "core.code_words": quality.code_words,
        "core.ii_sum": quality.ii_sum,
        "simulator.cycles": quality.sim_cycles,
        "obs.trace_overhead_pct": overhead_pct(window),
    })


# -- compile-suite ---------------------------------------------------------------


class CompileSuite:
    """Seeded synthetic-suite programs compiled serially, no cache, no
    simulation."""

    name = "compile-suite"
    #: 20 suites of 72: 1440 programs per pass, so the p99
    #: compile latency has at least ten samples beyond it.
    suites = 20
    tail_q = 99

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.programs = [
            (f"s{suite_seed}.{program.name}", program.source)
            for suite_seed in (rng.randrange(1, 1 << 30)
                               for _ in range(self.suites))
            for program in generate_suite(seed=suite_seed)
        ]

    def setup(self, stage: Callable[..., Any] = direct) -> None:
        for _, source in self.programs[:8]:
            stage(compile_text, source)

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        outcome = Outcome()
        quality = Quality()
        host = HostSpeed()
        times = UnitTimes(host)

        def step(unit: tuple[str, str], first: bool, traced: bool) -> float:
            name, source = unit
            if tracer is not None:
                tracer.unit = name
            outcome.attempted += 1
            t0 = clock()
            try:
                program, compiled = compile_text(source)
            except Exception as exc:
                outcome.fail(f"{name}: {type(exc).__name__}: {exc}")
                return 0.0
            t1 = clock()
            if not traced:
                times.add(name, [(t1 - t0, t0)])
            if first:
                quality.add(name, program, compiled)
            return clock() - t1

        window = run_window(self.programs, step, seconds, tracer, host)
        _finish(outcome, window, tracer, "programs compiled", times,
                quality, self.tail_q)
        return outcome


# -- paper-run -------------------------------------------------------------------


class PaperRun:
    """The Table 4-2 Livermore kernels and the Table 4-1 user programs,
    each pipelined and unpipelined, simulated and checked against the
    reference interpreter.  The seed sets only the order."""

    name = "paper-run"
    #: 52 variants leave thirteen samples beyond p75.
    tail_q = 75
    #: Each variant's time is the median of at least two passes.
    min_passes = 2

    def __init__(self, seed: int) -> None:
        sources = [
            (f"livermore{number}", kernel.source)
            for number, kernel in sorted(LIVERMORE_KERNELS.items())
        ] + [(name, program.source)
             for name, program in sorted(USER_PROGRAMS.items())]
        self.variants = [
            (name, variant, source, policy)
            for name, source in sources
            for variant, policy in (("pipelined", PIPELINED),
                                    ("unpipelined", UNPIPELINED))
        ]
        random.Random(seed).shuffle(self.variants)
        self.rows: dict[tuple[str, str], dict[str, Any]] = {}

    def setup(self, stage: Callable[..., Any] = direct) -> None:
        program, compiled = stage(compile_text, LIVERMORE_KERNELS[12].source)
        stage(executor.run_code, compiled.code, array_init)
        stage(interp.run_program, program, array_init)

    def validate(self, name: str, variant: str, source: str, policy: Any,
                 host: Optional[HostSpeed] = None,
                 ) -> tuple[Any, Any, int, Optional[str],
                            list[tuple[float, float]]]:
        """Compile, simulate, interpret, compare; the error is ``None``
        when the simulated memory equals the reference memory.  With
        ``host``, each of the three stages is timed on its own, after a
        sample of the host's speed, and the stretches are returned."""
        stretches: list[tuple[float, float]] = []

        def stage(call: Any, *args: Any) -> Any:
            if host is not None:
                host.tick()
            t0 = clock()
            result = call(*args)
            stretches.append((clock() - t0, t0))
            return result

        program, compiled = stage(compile_text, source, policy)
        stats, memory = stage(executor.run_code, compiled.code, array_init)

        def reference() -> Any:
            expected = interp.run_program(program, array_init)
            return executor.memory_diffs(memory, expected)

        diffs = stage(reference)
        error = None
        if diffs:
            error = (f"{name} ({variant}): {len(diffs)} memory cells differ"
                     f" from the reference interpreter, e.g. {diffs[0]}")
        return program, compiled, stats.cycles, error, stretches

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        outcome = Outcome()
        quality = Quality()
        host = HostSpeed()
        times = UnitTimes(host)

        def step(unit: tuple[str, str, str, Any], first: bool,
                 traced: bool) -> float:
            name, variant, source, policy = unit
            if tracer is not None:
                tracer.unit = f"{name}/{variant}"
            outcome.attempted += 1
            # Garbage left by earlier variants is collected here, untimed,
            # not in whichever variant the seeded order puts next.
            t0 = clock()
            gc.collect()
            collected = clock() - t0
            try:
                program, compiled, cycles, error, stretches = self.validate(
                    name, variant, source, policy,
                    None if traced else host)
            except Exception as exc:
                outcome.fail(f"{name} ({variant}): {type(exc).__name__}:"
                             f" {exc}")
                return collected
            t1 = clock()
            if error:
                outcome.fail(error)
                return collected
            if not traced:
                times.add(f"{name}/{variant}", stretches)
            row = self.rows.setdefault((name, variant), {
                "program": name, "variant": variant, "cycles": cycles,
                "seconds": [],
            })
            row["seconds"].append(round(sum(s for s, _ in stretches), 6))
            if first:
                quality.add(f"{name}/{variant}", program, compiled)
                quality.sim_cycles += cycles
            return collected + clock() - t1

        window = run_window(self.variants, step, seconds, tracer, host,
                            self.min_passes)
        _finish(outcome, window, tracer, "variants validated", times,
                quality, self.tail_q)
        if tracer is not None:
            outcome.details["programs"] = sorted(
                self.rows.values(), key=lambda r: (r["program"], r["variant"])
            )
        outcome.details["sim_cycles"] = quality.sim_cycles
        return outcome


# -- fuzz-audit ------------------------------------------------------------------


class _Unit:
    """One step of the fuzz-audit window: a campaign of seeded program
    cases and a campaign over one chunk of the graph pool."""

    def __init__(self, uid: int, program_seed: int, graph_seed: int) -> None:
        self.uid = uid
        self.program_seed = program_seed
        self.graph_seed = graph_seed


class FuzzAudit:
    """Audit campaigns run serially: seeded program cases through the
    differential audit, and graph cases through the heuristic scheduler
    with the exact backend's optimality cross-check.

    A pass is six steps of 80 seeded program cases and 15 graph cases;
    the window repeats it.  Graph cases come from a fixed pool, in seeded
    order.  Their cost is heavy-tailed (the median case takes about 20 ms,
    the slowest a second or more, inside the SAT solver), so a seeded draw
    of a few hundred graphs moved throughput by a quarter from seed to
    seed; every pass covers the whole pool instead.  Program cases are
    seeded, and there are many of them because the draw still moves
    their costs: the median program case took 24 ms for one seed and
    18.5 ms for another with 240 a pass.
    """

    name = "fuzz-audit"
    #: 570 cases a pass leave 28 samples beyond p95.
    tail_q = 95
    programs_per_campaign = 80
    graphs_per_campaign = 15
    #: The graph pool: this many campaigns of graph cases at fixed seeds.
    graph_chunks = 6
    graph_pool_seed = 1988
    #: A fixed reference set of generated programs whose emitted code the
    #: quality metrics describe.
    quality_programs = 200
    quality_seed = 7000

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        base = rng.randrange(1, 1 << 30)
        rotation = rng.randrange(self.graph_chunks)
        self.units = [
            _Unit(index,
                  base + index * self.programs_per_campaign,
                  self.graph_pool_seed + self.graphs_per_campaign
                  * ((rotation + index) % self.graph_chunks))
            for index in range(self.graph_chunks)
        ]

    def setup(self, stage: Callable[..., Any] = direct) -> None:
        stage(fuzz.run_campaign, seed=1, count=1, graphs=1, jobs=1,
              optimality=True)

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        outcome = Outcome()
        host = HostSpeed()
        times = UnitTimes(host)
        cases = {False: 0, True: 0}

        def step(unit: _Unit, first: bool, traced: bool) -> float:
            if tracer is not None:
                tracer.unit = unit.uid
            reports = [
                fuzz.run_campaign(seed=unit.program_seed,
                                  count=self.programs_per_campaign,
                                  graphs=0, jobs=1, optimality=True),
                fuzz.run_campaign(seed=unit.graph_seed, count=0,
                                  graphs=self.graphs_per_campaign, jobs=1,
                                  optimality=True),
            ]
            t1 = clock()
            for result in (r for report in reports for r in report.results):
                cases[traced] += 1
                outcome.attempted += 1
                if not result.ok:
                    detail = result.error or "; ".join(
                        f"{v.kind}: {v.where}" for v in result.violations)
                    outcome.fail(f"{result.case.name}: {detail}"
                                 f" (repro: {result.case.repro_command()})")
                elif not traced:
                    times.add(result.case.name,
                              [(result.seconds, started.pop(id(result.case)))])
            started.clear()
            return clock() - t1

        # Cases run inside the campaign, so the host is sampled before
        # each by a wrapper around ``run_case`` (a traced half wraps it
        # again); ``started`` maps each case to the clock at its start.
        started: dict[int, float] = {}
        original = fuzz.run_case

        def sampled(case, *args, **kwargs):
            host.tick()
            started[id(case)] = clock()
            return original(case, *args, **kwargs)

        fuzz.run_case = sampled
        try:
            window = run_window(self.units, step, seconds, tracer, host)
        finally:
            fuzz.run_case = original
        # A unit of this workload is one case, not one campaign.
        window["done"] = cases
        quality = self.quality(outcome)
        _finish(outcome, window, tracer, "cases audited", times, quality,
                self.tail_q)
        return outcome

    def quality(self, outcome: Outcome) -> Quality:
        """Compile the reference programs after the window."""
        quality = Quality()
        for seed in range(self.quality_seed,
                          self.quality_seed + self.quality_programs):
            generated = random_program(seed, ProgramConfig())
            try:
                program, compiled = compile_text(generated.source)
            except RegisterPressureError:
                continue  # a legitimate refusal, as in the audit itself
            except Exception as exc:
                outcome.fail(f"{generated.name}: {type(exc).__name__}: {exc}")
                continue
            quality.add(generated.name, program, compiled)
        return quality
