"""The benchmark's own tests, on the four experiments at L=4.

    python3 -m pytest perfbench -q

They check that the printed metrics match BENCHMARK.json by name and unit,
that traced counts repeat exactly, that tracing leaves the CSV bytes alone,
that the oracles reject a wrong answer, and that run.py fails cleanly
where the spinlab sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import LAYER_METRICS
from workloads import (WORKLOADS, check_gap_sweep, check_vqe, glass_energies,
                       single_flip_gap, task_seed, tiny_workloads)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = tiny_workloads()


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced benchmark runs of every tiny workload at seed 0."""
    return {name: [run.measure(w, 0, 1, True) for _ in range(2)]
            for name, w in TINY.items()}


def test_spec_matches_the_code():
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [n.removesuffix("-tiny") for n in TINY] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_printed_with_units(name, capsys):
    report = run.measure(TINY[name], 0, 1, False)
    run.print_report(report, {"nproc": 1})
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    metrics = result["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    readable = out.splitlines()[:-1]
    for metric, unit in [*run.END_TO_END.items(), ("fail_frac", "ratio")]:
        assert any(line.split()[:1] == [metric] and line.endswith(unit)
                   for line in readable), metric


def test_traced_output_has_every_layer_metric(traced_pairs):
    for reports in traced_pairs.values():
        for report in reports:
            result = report["result"]
            assert result["correct"], [s["errors"] for s in report["samples"]]
            assert {m: v["unit"] for m, v in result["metrics"].items()} \
                == LAYER_METRICS


def test_count_metrics_repeat_exactly(traced_pairs):
    counts = [m for m, unit in LAYER_METRICS.items() if unit in ("count", "B")]
    for name, (a, b) in traced_pairs.items():
        ma, mb = a["result"]["metrics"], b["result"]["metrics"]
        assert [ma[m]["value"] for m in counts] == \
            [mb[m]["value"] for m in counts], name
    vqe = traced_pairs["vqe-l10-tiny"][0]["result"]["metrics"]
    assert vqe["vqe.energy_and_gradient.calls"]["value"] > 0
    assert vqe["statevector.sample_indices.shots"]["value"] == 2 * 20 * 1000
    qe = traced_pairs["qemcmc-l10-tiny"][0]["result"]["metrics"]
    assert qe["qemcmc.run_chain.quantum.steps"]["value"] == 30
    assert qe["qemcmc.run_chain.single_flip.chain_steps"]["value"] == 4 * 30


def test_tracer_leaves_csv_bytes_unchanged(traced_pairs):
    for reports in traced_pairs.values():
        for report in reports:
            samples = report["samples"]
            assert {s["trace"] for s in samples} == {False, True}
            assert len({s["csv_sha256"] for s in samples}) == 1


def test_oracles_reject_wrong_answers():
    rows = [{"mean": str(-5.0 + 0.01 * (i % 3))} for i in range(20)]
    config = {"model.L": 4, "repetitions": 20}
    good = {"outputs": {"E0": -5.226251859505507, "E_var": -4.99}}
    assert check_vqe(good, rows, 0, config) == []
    wrong_e0 = {"outputs": {"E0": -5.2, "E_var": -4.99}}
    assert check_vqe(wrong_e0, rows, 0, config)

    v = glass_energies(4, task_seed(0, "gap-instance", 4000))
    delta = single_flip_gap(v, 1.0)
    row = {"instance_id": "fully-connected-4-0", "L": "4", "beta": "1",
           "proposal": "single-flip", "delta": repr(delta), "tau": "1.0",
           "acceptance_rate": "0.5"}
    config = {"L_list": [4], "beta_list": [1.0], "instances": 1,
              "proposals": ["single-flip"]}
    assert check_gap_sweep({}, [row], 0, config) == []
    row["delta"] = repr(delta + 1e-6)
    assert check_gap_sweep({}, [row], 0, config)


def test_fails_without_the_sources():
    bare = run.RUNS_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "qemcmc-l10", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
