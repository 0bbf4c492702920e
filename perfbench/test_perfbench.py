"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest -q perfbench

They run a few ops of every workload (a short mode, not a measurement).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Inputs, SetupError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_reports_every_metric_with_its_unit(workload, trace):
    out = result("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--max-ops", "2", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == "0":
            assert got["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_wrong_expected_value_counts_the_op_as_failed(workload):
    w = run.open_workload(workload, 1)
    op = w.warm_up()
    [(_, passed)] = run.run_ops([op])
    assert passed is True
    key = next(iter(op.expected))
    op.expected[key] = "not what the program returns"
    [(_, passed)] = run.run_ops([op])
    assert passed is False


def test_traced_counts_repeat_and_show_validation_reuse():
    args = ("--workload", "order-check", "--seed", "1", "--seconds", "0",
            "--max-ops", "2", "--trace", "1")
    first, second = result(*args)["metrics"], result(*args)["metrics"]
    exact = ("calls", "distinct_curves", "hits", "resolutions", "max_coord_bits")
    for name, m in first.items():
        if name.rsplit(".", 1)[-1] in exact:
            assert m == second[name], name
    validate = "transversality.validate."
    assert first[validate + "calls"]["value"] > first[validate + "distinct_curves"]["value"]


def test_set_up_refuses_a_changed_input(tmp_path):
    shutil.copytree(HERE / "inputs", tmp_path / "inputs")
    target = tmp_path / "inputs" / "ladder" / "trefoil_right-e1-k2.td"
    target.write_text(target.read_text(encoding="utf-8").replace("cross 1", "cross  1"),
                      encoding="utf-8")
    with pytest.raises(SetupError, match="trefoil_right-e1-k2"):
        Inputs(tmp_path / "inputs")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", "ladder-analyze", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
