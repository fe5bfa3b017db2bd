"""Run one benchmark workload, or all four, and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload prints a line per metric (name, value, unit) and, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs each workload in a
fresh interpreter and writes the collected results to
``.perfbench/report.json``.  The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs in fresh interpreters whose median is ``setup_s``.
SETUP_SAMPLES = 3


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, tear it down, exit")
    return parser.parse_args(argv)


def _make(name: str, seed: int, seconds: float, tag: str = "main"):
    from perfbench.serve import ServeMixed
    from perfbench.workloads import CompileSuite, FuzzAudit, PaperRun

    if name == "compile-suite":
        return CompileSuite(seed)
    if name == "paper-run":
        return PaperRun(seed)
    if name == "fuzz-audit":
        return FuzzAudit(seed)
    if name == "serve-mixed":
        return ServeMixed(seed, seconds, ROOT, tag)
    raise SystemExit(f"error: unknown workload {name!r}")


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Complete set-ups (interpreter start, imports, inputs, warm-up,
    server start and stop) in fresh interpreters, in seconds of the
    reference machine.

    The child times its own stages and samples the host's speed between
    them (:func:`_setup_only`); the parent adds the interpreter start,
    from the spawn to the child's first sample, and samples the host
    before each spawn and after each child ends.  ``time.perf_counter``
    is the system-wide monotonic clock, so the two processes' times and
    samples line up."""
    from perfbench.measure import HostSpeed, clock

    host = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        host.tick()
        spawned = clock()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(120.0, child.kill)
        watchdog.start()
        try:
            out, _ = child.communicate()
        finally:
            watchdog.cancel()
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up of {args.workload} exited with {child.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        host.at.extend(report["at"])
        host.took.extend(report["took"])
        host.tick()
        stretches = [(report["at"][0] - spawned, spawned)]
        stretches += [tuple(stretch) for stretch in report["stretches"]]
        samples.append(sum(host.normalise(seconds, started)
                           for seconds, started in stretches))
    return samples


def _setup_only(args: argparse.Namespace) -> int:
    """Set the workload up and tear it down, timing each stage (imports,
    inputs, each warm-up call, the server start, shutdown) and sampling
    the host's speed after it; print the stages and samples as one JSON
    line."""
    from perfbench.measure import HostSpeed, clock

    host = HostSpeed()
    host.tick()
    stretches: list[tuple[float, float]] = []

    def stage(call: Any, *call_args: Any, **kwargs: Any) -> Any:
        t0 = clock()
        try:
            return call(*call_args, **kwargs)
        finally:
            stretches.append((clock() - t0, t0))
            host.tick()

    def load() -> None:
        import perfbench.serve  # noqa: F401
        import perfbench.workloads  # noqa: F401

    stage(load)
    workload = stage(_make, args.workload, args.seed, args.seconds,
                     f"setup{os.getpid()}")
    try:
        workload.setup(stage)
    finally:
        if hasattr(workload, "close"):
            stage(workload.close)
    print(json.dumps({"stretches": stretches, "at": host.at,
                      "took": host.took}))
    return 0


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def named_metrics(workload: str, outcome, metrics: dict) -> dict:
    """The end-to-end metrics under the names the workload's users know:
    compile latency on compile-suite, served latency and the highest
    sustained rate on serve-mixed, the deterministic code properties."""
    details = outcome.details
    quality = details.get("quality", {})
    named = {
        "failed_pct": (100.0 * outcome.failed / max(1, outcome.attempted), "%"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "setup_s": metrics["setup_s"],
        "units_per_s": metrics["units_per_s"],
    }
    tail = f"p{details['latency']['tail_percentile']}"
    samples = details["latency"]["samples"]
    if workload == "compile-suite":
        named["compile_p50_ms"] = metrics["latency_p50_ms"]
        named[f"compile_{tail}_ms"] = metrics["latency_tail_ms"]
        named["compile_samples"] = (samples, "count")
    if workload == "paper-run":
        named["sim_cycles"] = (quality["sim_cycles"], "cycles")
    if workload in ("compile-suite", "paper-run"):
        named["code_words"] = (quality["code_words"], "instrs")
        named["ii_sum"] = (quality["ii_sum"], "cycles")
    if workload == "serve-mixed":
        named["serve_p50_ms"] = metrics["latency_p50_ms"]
        named[f"serve_{tail}_ms"] = metrics["latency_tail_ms"]
        named["serve_samples"] = (samples, "count")
        named["serve_max_rps"] = (details["ladder"]["serve_max_rps"], "1/s")
    return named


def run_one(args: argparse.Namespace) -> int:
    from perfbench.measure import Tracer, median

    if args.setup_only:
        return _setup_only(args)

    setups = [] if args.trace else _setup_seconds(args)
    workload = _make(args.workload, args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    try:
        workload.setup()
        outcome = workload.run(args.seconds, tracer)
    finally:
        if hasattr(workload, "close"):
            workload.close()

    if args.trace:
        metrics = outcome.layers
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(str(path))
        outcome.details["spans_file"] = str(path.relative_to(ROOT))
        outcome.details["spans"] = len(tracer.spans)
    else:
        metrics = dict(outcome.end_to_end)
        metrics["setup_s"] = (median(setups), "s")
        outcome.details["setup_samples_s"] = [round(s, 4) for s in setups]

    print(f"workload {args.workload} seed {args.seed}"
          f" trace {args.trace}: {outcome.attempted} attempted,"
          f" {outcome.failed} failed"
          f" (failed_pct {100.0 * outcome.failed / max(1, outcome.attempted):.3f} %)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {_fmt(value):>14s} {unit}")
    if not args.trace and outcome.attempted:
        print("as named for this workload:")
        for name, (value, unit) in named_metrics(
                args.workload, outcome, metrics).items():
            print(f"  {name:30s} {_fmt(value):>14s} {unit}")
    print("details " + json.dumps(outcome.details, sort_keys=True))
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh interpreter."""
    from perfbench.metrics import WORKLOADS

    report: dict[str, object] = {"seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "error": proc.stderr[-2000:]}
        report["workloads"][name] = result
        if proc.returncode != 0 or not result.get("correct"):
            status = 1
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to .perfbench/report.json;"
          f" {'all outputs correct' if status == 0 else 'FAILURES'}")
    return status


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run the"
              " benchmark from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
