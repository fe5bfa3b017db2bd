"""Pieces every workload shares: compiling a source the way
``repro.compile_source`` does, the schedule-quality tally, the fixed array
contents, the outcome record and the timed window."""

from __future__ import annotations

import hashlib
import resource
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import repro.core.compile as core_compile
import repro.frontend as frontend
from repro.core.compile import CompiledProgram, CompilerPolicy
from repro.core.display import disassemble
from repro.ir.ops import Operation
from repro.ir.stmts import ForLoop, IfStmt, Program
from repro.machine import WARP

from perfbench import layers
from perfbench.measure import (
    HostSpeed,
    Tracer,
    clock,
    median,
    percentile,
    tail_percentile,
)

PIPELINED = CompilerPolicy()
#: The paper's baseline: every loop locally compacted, none pipelined.
UNPIPELINED = CompilerPolicy(pipeline=False)


def compile_text(
    source: str, policy: CompilerPolicy = PIPELINED
) -> tuple[Program, CompiledProgram]:
    """Source to ``CompiledProgram`` on WARP through the calls
    ``repro.compile_source`` makes (parse, lower, pragma merge,
    ``compile_program``), each looked up on its module so that a traced
    run's wrappers see it."""
    ast = frontend.parse(source)
    program = frontend.lower(ast)
    if ast.pragmas.independent_arrays:
        policy = replace(
            policy,
            independent_arrays=policy.independent_arrays
            | ast.pragmas.independent_arrays,
        )
    return program, core_compile.compile_program(program, WARP, policy)


def direct(call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """The default ``stage`` of a workload's ``setup``: make the call.  A
    set-up timed on its own passes a ``stage`` that also times the call
    and samples the host's speed after it."""
    return call(*args, **kwargs)


def array_init(name: str, index: int) -> float:
    """Initial array contents fixed across processes (the library default
    hashes strings, which Python salts per process), so simulated cycle
    counts of data-dependent branches repeat exactly."""
    h = zlib.crc32(f"{name}[{index}]".encode()) % 1000003
    return round(2.0 * h / 1000003.0 - 1.0, 6)


def count_ops(stmts: list) -> int:
    """IR operations in a statement list, loop and branch bodies included."""
    total = 0
    for stmt in stmts:
        if isinstance(stmt, Operation):
            total += 1
        elif isinstance(stmt, ForLoop):
            total += count_ops(stmt.body)
        elif isinstance(stmt, IfStmt):
            total += count_ops(stmt.then_body) + count_ops(stmt.else_body)
    return total


@dataclass
class Quality:
    """Deterministic properties of the emitted code for one input set."""

    programs: int = 0
    code_words: int = 0
    ir_ops: int = 0
    ii_sum: int = 0
    unpipelined_sum: int = 0
    loops: int = 0
    loops_pipelined: int = 0
    sim_cycles: int = 0
    _digests: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, program: Program, compiled: CompiledProgram,
            disasm: Optional[str] = None) -> None:
        self.programs += 1
        self.code_words += compiled.code_size
        self.ir_ops += count_ops(program.body)
        for loop in compiled.loops:
            self.loops += 1
            self.loops_pipelined += loop.pipelined
            self.unpipelined_sum += loop.unpipelined_length
            # A declined loop counts at its unpipelined length, so a
            # scheduling decline can never lower the sum.
            self.ii_sum += loop.ii if loop.pipelined else loop.unpipelined_length
        text = disasm if disasm is not None else disassemble(compiled.code)
        self._digests[name] = hashlib.sha256(text.encode()).hexdigest()

    @property
    def digest(self) -> str:
        """SHA-256 over every program's disassembly, in name order."""
        joined = "".join(f"{k}:{v}\n" for k, v in sorted(self._digests.items()))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    @property
    def ii_ratio(self) -> float:
        return self.ii_sum / self.unpipelined_sum if self.unpipelined_sum else 1.0

    @property
    def code_words_per_op(self) -> float:
        return self.code_words / self.ir_ops if self.ir_ops else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            "programs": self.programs,
            "code_words": self.code_words,
            "ii_sum": self.ii_sum,
            "loops": self.loops,
            "loops_pipelined": self.loops_pipelined,
            "sim_cycles": self.sim_cycles,
            "code_digest": self.digest,
        }


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)


class UnitTimes:
    """Seconds per unit over every untraced pass it ran in.  A pass of a
    unit is one or more stretches of work, each rescaled by the host's
    speed around it (:class:`HostSpeed`); a unit's time is the median of
    its passes."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.times: dict[str, list[list[tuple[float, float]]]] = {}

    def add(self, key: str, stretches: list[tuple[float, float]]) -> None:
        """One pass of ``key``: ``(seconds, started)`` per stretch."""
        self.times.setdefault(key, []).append(stretches)

    def medians(self) -> list[float]:
        normalise = self.host.normalise
        return [
            median([sum(normalise(seconds, started)
                        for seconds, started in stretches)
                    for stretches in passes])
            for passes in self.times.values()
        ]

    def rate(self) -> float:
        """Distinct units per second of their median times."""
        total = sum(self.medians())
        return len(self.times) / total if total else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(outcome: Outcome, latencies_s: list[float],
                    label: str, tail_q: int) -> None:
    """Median and the workload's tail percentile, or the highest one with
    ten samples beyond it when a short run has too few.  A fixed tail
    keeps runs whose sample counts differ comparable.  A run with no
    successful unit reports zeros; it is failed anyway."""
    if not latencies_s:
        latencies_s = [0.0]
    q = min(tail_q, tail_percentile(len(latencies_s)))
    outcome.end_to_end["latency_p50_ms"] = (median(latencies_s) * 1e3, "ms")
    outcome.end_to_end["latency_tail_ms"] = (
        percentile(latencies_s, q) * 1e3, "ms"
    )
    outcome.details["latency"] = {
        "of": label, "samples": len(latencies_s), "tail_percentile": q,
    }


def quality_metrics(outcome: Outcome, quality: Quality) -> None:
    outcome.end_to_end["ii_ratio"] = (quality.ii_ratio, "ratio")
    outcome.end_to_end["code_words_per_op"] = (
        quality.code_words_per_op, "words/op"
    )
    outcome.details["quality"] = quality.summary()


def run_window(
    units: list[Any],
    step: Callable[[Any, bool, bool], float],
    seconds: float,
    tracer: Optional[Tracer],
    host: HostSpeed,
    min_passes: int = 1,
) -> dict[str, Any]:
    """Run whole passes over ``units`` until ``seconds`` have elapsed, and
    at least ``min_passes`` of them.

    ``step(unit, first_pass, traced)`` runs one unit and returns the
    seconds it spent on benchmark bookkeeping, which the traced and
    untraced time per unit exclude, as they do the time ``host`` spends
    sampling the host's speed, before each unit and wherever a step
    samples it itself; each unit's time is rescaled by the host's speed
    around it.  Whole passes keep the mix of cheap
    and costly inputs the same in every run.  A traced window runs the
    pass in pairs instead, one untraced and one traced (alternating which
    goes first), so that the tracing overhead compares the same inputs;
    only the traced half runs with :func:`perfbench.layers.install`.
    """

    def switch(traced: bool) -> None:
        if tracer is None:
            return
        if traced:
            layers.install(tracer)
        else:
            tracer.restore()

    done = {False: 0, True: 0}
    stretches: list[tuple[bool, float, float]] = []
    start = clock()
    passes = 0
    while (passes < (min_passes if tracer is None else 1)
           or clock() - start < seconds):
        if tracer is None:
            plan = [(False, unit) for unit in units]
        else:
            order = (False, True) if passes % 2 == 0 else (True, False)
            plan = [(traced, unit) for traced in order for unit in units]
        mode = None
        try:
            for traced, unit in plan:
                if traced != mode:
                    switch(traced)
                    mode = traced
                host.tick()
                t0 = clock()
                sampling = host.spent
                bookkeeping = step(unit, passes == 0 and not traced, traced)
                stretches.append((traced, clock() - t0 - bookkeeping
                                  - (host.spent - sampling), t0))
                done[traced] += 1
        finally:
            switch(False)
        passes += 1
    host.tick()
    busy = {False: 0.0, True: 0.0}
    for traced, seconds, started in stretches:
        busy[traced] += host.normalise(seconds, started)
    return {"done": done, "busy": busy, "elapsed": clock() - start,
            "passes": passes}


def overhead_pct(window: dict[str, Any]) -> float:
    """Traced against untraced time per unit, in percent."""
    done, busy = window["done"], window["busy"]
    if not done[True] or not done[False] or not busy[False]:
        return 0.0
    per_traced = busy[True] / done[True]
    per_plain = busy[False] / done[False]
    return (per_traced / per_plain - 1.0) * 100.0
