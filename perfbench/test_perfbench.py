"""Tests of the benchmark itself: tiny runs of every workload, the metric
names against BENCHMARK.json, repeatable exact counts, the correctness gate,
the unpatched timed run and the self-time arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(HERE)) if p not in sys.path]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cosetlab import checking  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


CHEAP = {"search_s5": ("trivial", "c2", "c3"),
         "checker_s4_trivial": ("trivial-s4",),
         "cli_pipelines": ("coset-z4", "coset-z6", "coset-s3")}


def tiny(name: str, seed: int = 7, cases: int = 3) -> workloads.Workload:
    """A one-round workload of the first case of each of its cheapest kinds."""
    w = workloads.MAKERS[name](seed)
    kinds = CHEAP[name][:cases]
    picked = [next(c for c in w.rounds[0] if c.kind == kind) for kind in kinds]
    return workloads.Workload(name, [picked], w.run_case, w.state)


def traced_tiny(name: str, seed: int = 7) -> tuple[dict, dict]:
    w = tiny(name, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.timed_pass(w, 0, tracer=tracer, max_rounds=1)
    finally:
        tracer.uninstall()
    n = len(result["durations"])
    return result, tracer.layer_metrics(n, sum(result["durations"]))


def cli_result(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["search_s5", "cli_pipelines"])
def test_workload_runs_clean_at_tiny_size(name):
    result = run.timed_pass(tiny(name), 0, max_rounds=1)
    assert result["failures"] == []
    assert len(result["durations"]) == 3


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    code, result = cli_result("--workload", "cli_pipelines", "--seed", "3",
                              "--seconds", "0", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_exact_counts_repeat_for_one_seed():
    for name in ("search_s5", "cli_pipelines"):
        first, layers_a = traced_tiny(name)
        second, layers_b = traced_tiny(name)
        assert first["evals"] == second["evals"]
        for metric in ("search_decision.queries", "instances.derived_evals",
                       "instances.source_evals"):
            assert layers_a[metric] == layers_b[metric], (name, metric)
    assert layers_a["cli.commands"] == 3  # plant, reduce, solve


def test_search_case_makes_584_queries():
    result, layers = traced_tiny("search_s5")
    assert result["calls"] == 584 * 3
    assert layers["search_decision.queries"] == 584
    assert layers["checking.brute_decide_calls"] == 584


def test_gate_counts_a_wrong_program():
    w = tiny("search_s5", cases=1)  # the trivial subgroup

    def always_nontrivial():
        return checking.wrap_buggy(checking.BruteForceDecisionOracle(),
                                   checking.BugSpec("always_nontrivial"))

    w.state["oracle"] = always_nontrivial
    result = run.timed_pass(w, 0, max_rounds=1)
    assert len(result["failures"]) == 1


def test_run_with_a_failure_exits_nonzero(monkeypatch, capsys):
    broken = tiny("search_s5", cases=1)
    broken.state["oracle"] = lambda: checking.wrap_buggy(
        checking.BruteForceDecisionOracle(), checking.BugSpec("always_nontrivial"))
    monkeypatch.setitem(workloads.MAKERS, "search_s5", lambda seed: broken)
    monkeypatch.setattr(run, "measure_setup", lambda name, seed: 1.0)
    code = run.main(["--workload", "search_s5", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_timed_run_leaves_library_unpatched():
    pristine = tracing.function_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "cosetlab.checking.brute_decide" in tracing.patched_names(pristine)
        assert "cosetlab.search_decision.build_hsp_search_plan" in \
            tracing.patched_names(pristine)
    finally:
        tracer.uninstall()
    assert tracing.patched_names(pristine) == []
    run.timed_pass(tiny("search_s5", cases=1), 0, max_rounds=1)
    assert tracing.patched_names(pristine) == []


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],    # overlaps a: root loses [1, 4] once
        ["c", 6.0, 7.0, 0, 0],
        ["a1", 1.5, 2.0, 1, 0],
        ["other", 20.0, 21.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 1.0, 0.5, 1.0])


def test_trivial_s4_checker_case_is_kernel_bound():
    w = tiny("checker_s4_trivial", cases=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.timed_pass(w, 0, tracer=tracer, max_rounds=1)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(1, result["durations"][0])
    assert result["failures"] == []
    assert result["calls"] == 6385
    assert layers["instances.kernel_share"] >= 0.9
