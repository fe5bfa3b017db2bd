"""The traced run's instrumentation: which public calls get spans, and how
spans, counters and phase seconds become the per-layer metrics."""

from __future__ import annotations

import functools
from typing import Callable

import repro.audit.differential as differential
import repro.audit.fuzz as fuzz
import repro.audit.optimality as optimality
import repro.batch.driver as driver
import repro.core.compile as core_compile
import repro.frontend as frontend
import repro.ir.interp as interp
import repro.simulator.executor as executor
from repro.batch.cache import ScheduleCache
from repro.exact import ExactScheduler
from repro.frontend.lexer import tokenize
from repro.obs import current

from perfbench.measure import Tracer
from perfbench.metrics import PER_LAYER

#: Phases whose seconds a fuzz case's own observer holds when the
#: scheduler runs outside ``compile_program``.
_SCHEDULER_PHASES = ("mii", "ii_attempt")


def install(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics time.  Each function
    is replaced on every module that looks it up at call time."""
    tokens: dict[str, int] = {}

    def parse_wrapper(original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(source, *args, **kwargs):
            with tracer.span("frontend.parse"):
                result = original(source, *args, **kwargs)
            if source not in tokens:
                tokens[source] = len(tokenize(source)[0])
            tracer.count({"frontend.tokens": tokens[source]})
            return result
        return traced

    def run_code_wrapper(original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span("run_code"):
                stats, memory = original(*args, **kwargs)
            tracer.count({"simulator.cycles": stats.cycles})
            return stats, memory
        return traced

    def run_case_wrapper(original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(case, *args, **kwargs):
            with tracer.span(f"run_case.{case.kind}"):
                return original(case, *args, **kwargs)
        return traced

    def delta_wrapper(original: Callable) -> Callable:
        # The scheduler, when a fuzz case drives it outside
        # compile_program, reports to the case's own observer; the
        # difference across the call is this call's share.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            observer = current()
            if observer is None:
                return original(*args, **kwargs)
            seconds = dict(observer.phase_seconds)
            counters = dict(observer.counters)
            try:
                return original(*args, **kwargs)
            finally:
                for name in _SCHEDULER_PHASES:
                    tracer.add_seconds(
                        f"phase.{name}",
                        observer.phase_seconds.get(name, 0.0)
                        - seconds.get(name, 0.0),
                    )
                tracer.count({
                    key: amount - counters.get(key, 0)
                    for key, amount in observer.counters.items()
                })
        return traced

    tracer.patch(frontend, "parse", "frontend.parse", parse_wrapper)
    tracer.patch(frontend, "lower", "frontend.lower")
    for module in (core_compile, driver, differential):
        tracer.patch(module, "compile_program", "compile_program",
                     tracer.observed)
    for module in (executor, differential):
        tracer.patch(module, "run_code", "run_code", run_code_wrapper)
        tracer.patch(module, "memory_diffs", "memory_diffs")
    for module in (interp, differential):
        tracer.patch(module, "run_program", "run_program")
    for module in (fuzz, optimality, differential):
        tracer.patch(module, "audit_result", "audit_result")
    tracer.patch(fuzz, "run_case", "run_case", run_case_wrapper)
    tracer.patch(fuzz, "run_graph_case", "run_graph_case", delta_wrapper)
    tracer.patch(differential, "audit_loop_schedules",
                 "audit_loop_schedules", delta_wrapper)
    tracer.patch(ExactScheduler, "minimum_ii", "exact.minimum_ii")
    tracer.patch(driver, "cache_key", "batch.cache_key")
    tracer.patch(ScheduleCache, "get", "batch.cache_get")
    tracer.patch(ScheduleCache, "put", "batch.cache_put")


def metrics(tracer: Tracer, units: int,
            extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; a layer the workload did not reach reads 0.
    ``extra`` supplies the values that do not come from spans."""
    own = tracer.self_seconds()
    total = tracer.total_seconds()
    calls = tracer.calls()
    counters = tracer.counters
    phase = tracer.seconds

    def per_unit(value: float) -> float:
        return value / units if units else 0.0

    def per_call(name: str) -> float:
        return total[name] / calls[name] if calls.get(name) else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def phase_s(name: str) -> float:
        return per_unit(own.get(f"phase.{name}", 0.0)
                        + phase.get(f"phase.{name}", 0.0))

    dense_hits = counters.get("dense_cache_hits", 0)
    dense_all = dense_hits + counters.get("dense_cache_misses", 0)
    values: dict[str, float] = {
        "frontend.parse_s": per_unit(own.get("frontend.parse", 0.0)),
        "frontend.lower_s": per_unit(own.get("frontend.lower", 0.0)),
        "frontend.tokens_per_s": ratio(counters.get("frontend.tokens", 0),
                                       own.get("frontend.parse", 0.0)),
        "ir.verify_s": phase_s("verify"),
        "ir.cse_s": phase_s("cse"),
        "deps.build_s": phase_s("deps"),
        "core.listsched_s": phase_s("listsched"),
        "core.mve_s": phase_s("mve"),
        "core.emit_s": phase_s("emit"),
        "core.other_s": per_unit(own.get("compile_program", 0.0)),
        "core.mii_s": phase_s("mii"),
        "core.ii_attempt_s": phase_s("ii_attempt"),
        "core.ii_attempts": per_unit(counters.get("ii_attempts", 0)),
        "core.backtracks": per_unit(counters.get("backtracks", 0)),
        "core.scc_placement_failures": per_unit(
            counters.get("scc_placement_failures", 0)),
        "core.loops_pipelined": per_unit(counters.get("loops_pipelined", 0)),
        "core.loops_at_mii": per_unit(counters.get("loops_at_mii", 0)),
        "core.dense_cache_hit_pct": 100.0 * ratio(dense_hits, dense_all),
        "simulator.run_s": per_unit(own.get("run_code", 0.0)),
        "simulator.cycles_per_s": ratio(counters.get("simulator.cycles", 0),
                                        total.get("run_code", 0.0)),
        "simulator.compare_s": per_unit(own.get("memory_diffs", 0.0)),
        "ir.interp_s": per_unit(own.get("run_program", 0.0)),
        "exact.minimum_ii_s": per_unit(total.get("exact.minimum_ii", 0.0)),
        "exact.sat_calls": per_unit(counters.get("exact_sat_calls", 0)),
        "exact.ii_attempts": per_unit(counters.get("exact_ii_attempts", 0)),
        "audit.program_case_s": per_call("run_case.program"),
        "audit.graph_case_s": per_call("run_case.graph"),
        "audit.oracle_s": per_unit(own.get("audit_result", 0.0)),
        "batch.cache_key_s": per_call("batch.cache_key"),
        "batch.cache_get_s": per_call("batch.cache_get"),
        "batch.cache_put_s": per_call("batch.cache_put"),
    }
    values.update(extra)
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, (unit, _) in PER_LAYER.items()
    }


def phase_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the traced work by self time, in percent:
    frontend, compile phases, compile time outside any phase, and (where
    the workload runs code) simulation, reference interpretation and the
    memory compare."""
    own = tracer.self_seconds()
    names = [
        name for name in own
        if name.startswith(("frontend.", "phase."))
        or name in ("compile_program", "run_code", "run_program",
                    "memory_diffs")
    ]
    whole = sum(own[name] for name in names)
    labels = {"compile_program": "compile outside any phase"}
    return {
        labels.get(name, name.replace("phase.", "compile.")):
            round(100.0 * own[name] / whole, 1) if whole else 0.0
        for name in sorted(names, key=lambda n: -own[n])
    }
