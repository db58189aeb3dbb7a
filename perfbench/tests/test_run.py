"""run.py end to end: the output contract, and refusal without a program."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def checkout(tmp_path, with_src: bool) -> str:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_refuses_without_the_program(tmp_path):
    out = run(checkout(tmp_path, with_src=False), "--workload", "ingest", "--seed", "1",
              "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_holds_every_declared_metric(tmp_path, trace, key):
    cwd = checkout(tmp_path, with_src=True)
    out = run(cwd, "--workload", "quick_ci", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(cwd, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[key]
    assert [(m["name"], m["unit"]) for m in declared] == \
        [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert not os.listdir(os.path.join(cwd, ".bench_work"))


def test_a_changed_reference_fails_the_run(tmp_path):
    cwd = checkout(tmp_path, with_src=True)
    path = os.path.join(cwd, "perfbench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["quick_ci"]["val_rmse_avg"] *= 1 + 1e-5
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    out = run(cwd, "--workload", "quick_ci", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "val_rmse_avg at the reference seed" in out.stdout
