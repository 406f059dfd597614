"""Smoke test of the benchmark itself, at a tiny element target.

    python3 -m pytest perfbench/test_smoke.py

For every workload and both trace modes it runs ``run.py`` and checks that
every metric named in ``BENCHMARK.json`` is printed with its unit, that the
outputs pass their checks, that no span wrapper reached an untraced study
and that the traced studies did carry one on every wrapped entry point.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_wrappers(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--elements", "200"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    record = json.loads(
        (HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json")
        .read_text())
    studies = record["studies"]
    assert len(studies) == result["attempted"] - 1   # minus the warm-up
    for study in studies:
        if study["kind"] == "untraced":
            assert study["wrappers"] == []
        else:
            assert len(study["wrappers"]) == len(tracing.PATCHES)
    assert any(s["kind"] == "traced" for s in studies) == bool(trace)


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"]
                                           for w in SPEC["workloads"])


def test_seed_draws_are_reproducible_and_in_range():
    for workload in run.WORKLOADS.values():
        assert workload.draw(7) == workload.draw(7)
        for seed in range(20):
            params = workload.draw(seed)
            assert workload.target[0] <= params["target"] <= workload.target[1]
            for name in ("theta", "eps"):
                bounds = getattr(workload, name)
                if bounds is not None:
                    assert bounds[1] <= params[name] <= bounds[2]
                    if seed == 0:
                        assert params[name] == bounds[0]


def test_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "study.py", "tracing.py"):
        (bench / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kellogg-xi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
