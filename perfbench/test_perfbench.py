"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import ops
import tracing
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(workload, seed=1, seconds=2, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    files = ops.input_paths("work")

    def inputs(workload, seed):
        return [(op.argv, sorted(op.env.items())) for op in ops.first_deck(workload, seed, files)]

    for workload in ops.WORKLOADS:
        assert inputs(workload, 7) == inputs(workload, 7)
        assert inputs(workload, 7) != inputs(workload, 8)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    res = result_of(bench(workload))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_for_a_fixed_seed():
    first, second = (result_of(bench("atlas", seed=3, trace=1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == want
    assert want == tracing.METRICS
    counts = [name for name, unit in want.items() if unit == "count" or name.endswith("repeat_share")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    for layer in ("superalg", "supermat", "atlas", "cech", "families", "cli"):
        assert first["metrics"][f"{layer}.self_s"]["value"] > 0


def _real_run():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from supergeo.cli import run

    return run


def test_a_wrong_report_is_counted_as_failed():
    run = _real_run()
    deck = ops.first_deck("cohomology", 1, {})

    def wrong_h1(argv):
        code, report = run(argv)
        if argv[0] == "h1-tangent":
            report["details"]["agree"] = False
        if argv[0] == "sym-rank":
            raise RuntimeError("boom")
        return code, report

    outcomes = worker.Outcomes(len(deck))
    worker.timed_run(iter(deck), 60.0, wrong_h1, outcomes)
    assert outcomes.attempted == len(deck)
    bad = sum(op.argv[0] in ("h1-tangent", "sym-rank") for op in deck)
    assert outcomes.failed == len(outcomes.failures) == bad > 0
    assert any("raised RuntimeError" in p for f in outcomes.failures for p in f["problems"])


def test_the_digest_ops_run_even_after_the_window():
    run = _real_run()
    deck = ops.first_deck("cohomology", 1, {})
    outcomes = worker.Outcomes(2 * len(deck))
    latencies, _elapsed = worker.timed_run(iter(deck + deck), 0.0, run, outcomes)
    assert len(latencies) == 1
    assert outcomes.attempted == 2 * len(deck) and outcomes.failed == 0


def test_no_tail_from_ten_samples_or_fewer():
    assert worker.tail([0.001 * i for i in range(10)]) is None
    pct, value = worker.tail([0.001 * i for i in range(21)])
    assert (pct, value) == (50.0, 0.010)


@pytest.mark.parametrize(
    "op, code, details",
    [
        (ops.Op("obstruction/omega1", (), {"lambda": Fraction(3, 2)}), 0,
         {"lambda": "3/2", "class": {ops.GENERATOR: "3/4"}, "is_zero": False}),
        (ops.Op("berezinian/omega1", (), {"lambda": Fraction(1), "pair": "0<-1"}), 0,
         {"lambda": "1", "pair": "0<-1", "value": "1"}),
        (ops.Op("parse/nested", (), {"input": "z10"}), 0, {"input": "z10", "roundtrip_ok": False}),
        (ops.Op("control/twist-2", ()), 0, {}),
        (ops.Op("cohomology", (), {"n": 2, "k": -4, "q": 2}), 0, {"dim": 3, "basis": ["a", "b"]}),
    ],
)
def test_checks_reject_wrong_reports(op, code, details):
    assert ops.check(op, code, {"details": details})


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = bench("cohomology", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
