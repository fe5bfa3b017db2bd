"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

WORKLOADS = ("compile-suite", "paper-run", "fuzz-audit", "serve-mixed")

#: name -> (unit, better, bound).  Each is defined on every workload.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "units_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "ii_ratio": ("ratio", "lower", 0.1),
    "code_words_per_op": ("words/op", "lower", 0.1),
}

#: name -> (unit, better).  Per unit means per program compiled (compile-
#: suite), per variant validated (paper-run), per case audited
#: (fuzz-audit) or per request replayed in process (serve-mixed).
PER_LAYER: dict[str, tuple[str, str]] = {
    "frontend.parse_s": ("s/unit", "lower"),
    "frontend.lower_s": ("s/unit", "lower"),
    "frontend.tokens_per_s": ("1/s", "higher"),
    "ir.verify_s": ("s/unit", "lower"),
    "ir.cse_s": ("s/unit", "lower"),
    "deps.build_s": ("s/unit", "lower"),
    "core.listsched_s": ("s/unit", "lower"),
    "core.mve_s": ("s/unit", "lower"),
    "core.emit_s": ("s/unit", "lower"),
    "core.other_s": ("s/unit", "lower"),
    "core.mii_s": ("s/unit", "lower"),
    "core.ii_attempt_s": ("s/unit", "lower"),
    "core.ii_attempts": ("count/unit", "lower"),
    "core.backtracks": ("count/unit", "lower"),
    "core.scc_placement_failures": ("count/unit", "lower"),
    "core.loops_pipelined": ("count/unit", "higher"),
    "core.loops_at_mii": ("count/unit", "higher"),
    "core.dense_cache_hit_pct": ("%", "higher"),
    "core.code_words": ("words", "lower"),
    "core.ii_sum": ("cycles", "lower"),
    "simulator.run_s": ("s/unit", "lower"),
    "simulator.cycles_per_s": ("1/s", "higher"),
    "simulator.compare_s": ("s/unit", "lower"),
    "simulator.cycles": ("cycles", "lower"),
    "ir.interp_s": ("s/unit", "lower"),
    "exact.minimum_ii_s": ("s/unit", "lower"),
    "exact.sat_calls": ("count/unit", "lower"),
    "exact.ii_attempts": ("count/unit", "lower"),
    "audit.program_case_s": ("s/case", "lower"),
    "audit.graph_case_s": ("s/case", "lower"),
    "audit.oracle_s": ("s/unit", "lower"),
    "batch.cache_key_s": ("s/call", "lower"),
    "batch.cache_get_s": ("s/call", "lower"),
    "batch.cache_put_s": ("s/call", "lower"),
    "batch.cache_hit_pct": ("%", "higher"),
    "batch.pool_utilization": ("ratio", "lower"),
    "serve.queue_depth_max": ("count", "lower"),
    "serve.server_ms": ("ms", "lower"),
    "serve.transport_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
}
