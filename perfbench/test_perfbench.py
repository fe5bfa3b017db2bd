"""The benchmark's own tests, at small sizes.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import repro.ir.interp as interp
from perfbench import run
from perfbench.measure import (
    REFERENCE_SECONDS,
    HostSpeed,
    Tracer,
    percentile,
    tail_percentile,
)
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.serve import ServeMixed
from perfbench.workloads import CompileSuite, FuzzAudit, PaperRun

ROOT = Path(__file__).resolve().parent.parent
FAST_KERNELS = ("livermore11", "livermore12", "livermore24")


class SmallSuite(CompileSuite):
    suites = 1


class SmallFuzz(FuzzAudit):
    programs_per_campaign = 2
    graphs_per_campaign = 2
    graph_chunks = 1
    quality_programs = 4


class SmallServe(ServeMixed):
    hot_programs = 6
    ladder = (2,)
    rung_requests = 20


def small_paper(seed: int = 1) -> PaperRun:
    workload = PaperRun(seed)
    workload.min_passes = 1
    workload.variants = [v for v in workload.variants if v[0] in FAST_KERNELS]
    return workload


def small_workloads(tmp_path: Path):
    return [
        SmallSuite(1),
        small_paper(),
        SmallFuzz(1),
        SmallServe(1, 1.0, ROOT, f"test-{tmp_path.name}"),
    ]


# -- the catalogue ---------------------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    bounds = [m["bound"] for m in spec["end_to_end"]]
    assert END_TO_END["setup_s"][2] == max(bounds) <= 0.25


# -- every metric, with its unit --------------------------------------------------


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    for workload in small_workloads(tmp_path):
        workload.setup()
        try:
            outcome = workload.run(0.0, None)
        finally:
            getattr(workload, "close", lambda: None)()
        assert outcome.failures == [], workload.name
        expected = {name: unit for name, (unit, _, _) in END_TO_END.items()
                    if name != "setup_s"}  # added by run.py
        assert {k: u for k, (_, u) in outcome.end_to_end.items()} == expected
        for name, (value, _) in outcome.end_to_end.items():
            assert math.isfinite(value) and value > 0, (workload.name, name)


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    for workload in small_workloads(tmp_path):
        workload.setup()
        tracer = Tracer()
        try:
            outcome = workload.run(0.0, tracer)
        finally:
            getattr(workload, "close", lambda: None)()
        assert outcome.failures == [], workload.name
        assert {k: u for k, (_, u) in outcome.layers.items()} == {
            name: unit for name, (unit, _) in PER_LAYER.items()}
        assert tracer.spans, workload.name
        assert tracer._patches == [], "the traced run restores every wrapper"


def test_command_prints_the_contract_line(capsys):
    assert run.main(["--workload", "compile-suite", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1000
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, (unit, _, _) in END_TO_END.items()}
    assert any(line.strip().startswith("compile_p99_ms") for line in lines)


# -- correctness oracles ------------------------------------------------------------


def test_corrupted_reference_result_is_counted(monkeypatch, capsys):
    original = interp.run_program

    def corrupted(*args, **kwargs):
        memory = original(*args, **kwargs)
        key = min(memory)
        memory[key] = memory[key] + 1.0
        return memory

    monkeypatch.setattr(interp, "run_program", corrupted)
    workload = small_paper()
    outcome = workload.run(0.0, None)
    assert outcome.failed == outcome.attempted == len(workload.variants)
    assert all("differ from the reference" in f for f in outcome.failures)

    monkeypatch.setattr(run, "_make", lambda *a, **k: small_paper())
    args = Namespace(workload="paper-run", seed=1, seconds=0.0, trace=1,
                     setup_only=False)
    assert run.run_one(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_open_loop_reports_a_generator_that_fell_behind(tmp_path):
    workload = SmallServe(2, 1.0, ROOT, f"late-{tmp_path.name}")
    requests = workload.requests
    for index, request in enumerate(requests):
        request.due = float(index)
        request.sent = request.due + 0.5
    report: dict = {}
    problems = workload._open_loop_problems(
        requests, {"backlog": [0] * len(requests), "send_seconds": 1.0},
        report)
    assert any("sent late" in p for p in problems)
    assert report["open_loop"]["late_p99_ms"] == 500.0
    for request in requests:
        request.sent = request.due
    grow = workload._open_loop_problems(
        requests,
        {"backlog": list(range(len(requests))), "send_seconds": 1.0}, {})
    assert any("backlog grew" in p for p in grow)


# -- seeds ----------------------------------------------------------------------------


def test_seed_changes_inputs_but_not_the_paper_program_set():
    assert SmallSuite(1).programs != SmallSuite(2).programs
    assert ([u.program_seed for u in FuzzAudit(1).units]
            != [u.program_seed for u in FuzzAudit(2).units])
    stream = lambda seed: [(r.name, r.first_sight)  # noqa: E731
                           for r in ServeMixed(seed, 2.0, ROOT).requests]
    assert stream(1) != stream(2)
    assert stream(1) == stream(1)
    first = [v[:2] for v in PaperRun(1).variants]
    second = [v[:2] for v in PaperRun(2).variants]
    assert sorted(first) == sorted(second) and len(first) == 52


# -- what the benchmark may import ------------------------------------------------------

#: ``repro.perf`` and what the ROADMAP plans to delete: the benchmark must
#: measure those deletions with unchanged code.
FORBIDDEN = ("repro.perf", "numeric_recurrence_bound",
             "DictModuloReservationTable", "REPRO_NUMPY", ".dense(")


def test_nothing_imports_repro_perf_or_a_deletion_target():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        for name in FORBIDDEN:
            assert name not in text, f"{path.name} mentions {name}"
    assert "repro.perf" not in sys.modules


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- measurement helpers -----------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    parent = tracer.add("outer", 0.0, 10.0)
    tracer.add("inner", 2.0, 5.0, parent)
    tracer.add("inner", 6.0, 7.0, parent)
    assert tracer.self_seconds() == {"outer": 6.0, "inner": 4.0}
    assert tracer.total_seconds() == {"outer": 10.0, "inner": 4.0}


def test_host_speed_rescales_by_the_samples_around_the_work():
    host = HostSpeed()
    host.at = [0.0, 1.0, 2.0, 3.0]
    host.took = [REFERENCE_SECONDS, 2 * REFERENCE_SECONDS,
                 4 * REFERENCE_SECONDS, REFERENCE_SECONDS]
    # Work from 1.5 s on lies between the samples at 1 s and 2 s, taken
    # while the host ran at a third of its reference speed on average.
    assert host.normalise(0.3, 1.5) == pytest.approx(0.1)
    # Before the first sample only the one after it counts.
    assert host.normalise(0.3, -1.0) == pytest.approx(0.3)
    # After the last sample only the one before it counts.
    assert host.normalise(0.3, 3.5) == pytest.approx(0.3)


def test_host_speed_tick_times_the_reference_task():
    host = HostSpeed()
    host.tick()
    host.tick()
    assert len(host.took) == 2 and all(t > 0 for t in host.took)
    assert host.spent >= sum(host.took)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 95
    assert tail_percentile(104) == 90
    assert tail_percentile(52) == 75
    assert percentile(list(range(1, 101)), 99) == 99


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_has_a_reason_in_benchmark_json(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    assert 0 < len(why) <= 200 and "\n" not in why
