"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

They run the benchmark itself, a few minutes in all, so they are kept out of
the repository's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_names()


@pytest.mark.parametrize("workload", ["enumeration", "cluster-n2048", "risk-scan-demo"])
def test_two_traced_runs_give_identical_counts(workload):
    units = dict(tracer.metric_names())
    runs = [result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if units[name] in tracer.COUNT_UNITS} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "enumeration", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_comparison_tolerates_rounding_only():
    assert not workloads.diff_line("a,0.300000000001,7", "a,0.3,7")
    assert workloads.diff_line("a,0.3001,7", "a,0.3,7")
    assert workloads.diff_line("a,0.3,8", "a,0.3,7")  # integers must match
    assert workloads.diff_line("b,0.3,7", "a,0.3,7")


def test_a_changed_output_is_reported():
    reference = json.loads((HERE / "reference" / "enumeration.json").read_text())
    outputs = {op: dict(files) for op, files in reference["ops"].items()}
    outputs["_exit"] = dict(reference["exit"])
    clean = workloads.compare_with_reference(outputs, reference)
    assert not any(clean.values())
    csv = outputs["rad-check"]["rad_check.csv"]
    outputs["rad-check"]["rad_check.csv"] = csv.replace("4.921875", "4.92", 1)
    outputs["_exit"]["brute_force_erm"] = 2
    found = workloads.compare_with_reference(outputs, reference)
    assert found["rad-check"] and found["brute_force_erm"]
