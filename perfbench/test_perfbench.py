"""Tests of the benchmark harness itself, on tiny passes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY = 0.02
BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))


def run_main(capsys, workload, seed=1, trace=0, scale=TINY):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, scale=scale) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def zv():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    return run.import_library()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = run_main(capsys, workload)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name in names:
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") for line in lines)
    assert any(line.startswith(f"ops_attempted {result['attempted']} fail_ratio 0.000000") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_their_call_counts(capsys, workload):
    _, first = run_main(capsys, workload, seed=5, trace=1)
    _, second = run_main(capsys, workload, seed=5, trace=1)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes", "rows")}
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["correct"] and second["correct"]


def test_traced_counts_follow_the_workload(capsys):
    _, chain = run_main(capsys, "chain_sweep", trace=1)
    _, slope = run_main(capsys, "slope_sweep", trace=1)
    chain, slope = chain["metrics"], slope["metrics"]
    assert chain["invariants.e_sup.calls"]["value"] == 0
    assert chain["chains.chain_spec.calls"]["value"] > 0
    foliation_calls = slope["chains.foliation_e.calls"]["value"]
    assert slope["chains.foliation_e.e_sup_calls"]["value"] == 2 * foliation_calls
    assert slope["invariants.e_sup.subset_solves"]["value"] > slope["invariants.e_sup.calls"]["value"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_strata(zv, tmp_path, workload):
    one = workloads.build(workload, zv, 1, TINY, str(tmp_path / "one"))
    again = workloads.build(workload, zv, 1, TINY, str(tmp_path / "again"))
    two = workloads.build(workload, zv, 2, TINY, str(tmp_path / "two"))
    assert one.fingerprint == again.fingerprint
    assert one.fingerprint != two.fingerprint
    assert one.strata == two.strata
    assert len(one.ops) == sum(one.strata.values())


def test_wrong_expected_value_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "cf_numerator", lambda seq: 0)
    lines, result = run_main(capsys, "chain_sweep")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("FAIL ") for line in lines)


def test_checkers_reject_wrong_outputs(zv, tmp_path):
    slope = workloads.build("slope_sweep", zv, 3, TINY, str(tmp_path))
    op = next(op for op in slope.ops if op.stratum.startswith("a"))
    assert op.check(op.call()) is None
    assert op.check(op.call() + 1) is not None
    assert workloads._check_cli(0, False, (0, "ok\n", "")) is None
    assert workloads._check_cli(1, False, (0, "ok\n", "")) is not None
    assert workloads._check_cli(0, True, (0, '{"a": 1}\n', "")) is not None


def test_latencies_are_calibrated_by_nearby_reference_chunks():
    nominal = run.REF_ITERATIONS / run.NOMINAL_REF_RATE
    tally = run.Tally()
    tally.ref_chunks = [nominal] * 20 + [2 * nominal] * 20
    tally.latencies = [0.01, 0.01]
    tally.ref_at = [10, 30]  # one op in the nominal spell, one in the slow one
    assert run.calibrated(tally) == pytest.approx([0.01, 0.005])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
