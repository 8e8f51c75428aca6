"""The per-op comparison and hashing of ``tools/same_outputs.py``."""

import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import kkmlab

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def same_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # it imports bench_pairs from its own folder
    yield importlib.import_module("same_outputs")
    sys.modules.pop("same_outputs", None)


def digests(stdout="a", **files):
    return {"exit": "0", "stdout": stdout, "stderr": "e",
            **{f"file {name}": h for name, h in files.items()}}


def test_identical_sides_are_the_same(same_outputs):
    side = {"w seed 42 op": digests(**{"report.csv": "r"}), "w seed 5 op": digests()}
    lines, differs = same_outputs.compare(side, dict(side))
    assert lines == ["w seed 42 op: same", "w seed 5 op: same"] and not differs


def test_a_synthetic_difference_is_named(same_outputs):
    parent = {"w seed 42 op": digests(**{"report.csv": "r"}), "w seed 42 other": digests()}
    change = {"w seed 42 op": digests("b", **{"report.csv": "r2", "extra.txt": "x"}),
              "w seed 42 new": digests()}
    lines, differs = same_outputs.compare(parent, change)
    assert differs
    assert lines == ["w seed 42 op: DIFFERS in file extra.txt, file report.csv, stdout",
                     "w seed 42 other: DIFFERS (only the parent ran it)",
                     "w seed 42 new: DIFFERS (only the change ran it)"]


def test_run_op_hashes_exit_streams_and_files(same_outputs, tmp_path):
    def call(out):
        out.mkdir(parents=True)
        (out / "result.txt").write_text("cost: 1\n")
        print("done")
        return 0

    def fails(out):
        raise ValueError("bad input")

    got = same_outputs.run_op(call, tmp_path / "ok")
    assert got.keys() == {"exit", "stdout", "stderr", "file result.txt"} and got["exit"] == "0"
    assert got == same_outputs.run_op(call, tmp_path / "again")
    raised = same_outputs.run_op(fails, tmp_path / "raised")
    assert raised["exit"] == "'raised ValueError'" and raised["stderr"] != got["stderr"]


def test_demo_ops_run_every_cluster_method_and_rad_check(same_outputs):
    root = Path("/checkout")
    ops = same_outputs.demo_ops(root, 5)
    assert [name for name, _ in ops] == ["cluster-lloyd", "cluster-approx", "cluster-nystrom",
                                         "rad-check"]
    common = ["--config", str(root / "demos" / "risk_scan.cfg"), "--seed", "5"]
    assert [list(argv) for _, argv in ops] == [
        ["cluster", *common, "--method", "lloyd"], ["cluster", *common, "--method", "approx"],
        ["cluster", *common, "--method", "nystrom"], ["rad-check", *common]]


def test_demo_ops_are_hashed_beside_the_workloads(same_outputs, monkeypatch, tmp_path):
    # the demo set runs in-process here as the child process runs it for each side
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    got = same_outputs.run_workload(TOOLS.parent, tmp_path / "work", same_outputs.DEMO, 42)
    names = [name for name, _ in same_outputs.demo_ops(TOOLS.parent, 42)]
    assert list(got) == [f"demo seed 42 {name}" for name in names]
    for op, digests in got.items():
        assert digests["exit"] == "0", op
        assert any(part.startswith("file ") for part in digests), op
    assert got == same_outputs.run_workload(TOOLS.parent, tmp_path / "again", same_outputs.DEMO, 42)


def test_optimal_ops_hash_the_value_and_exact_flag(same_outputs, monkeypatch, tmp_path):
    # the optimal set runs in-process here as the child process runs it for each side
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    got = same_outputs.run_workload(TOOLS.parent, tmp_path / "work", same_outputs.OPTIMAL, 5)
    names = [f"benchmark-k{k}" for k in range(1, 6)] + [f"atoms11-k{k}" for k in range(1, 4)]
    assert list(got) == [f"optimal seed 5 {name}" for name in names]
    g = np.random.default_rng([5, 11])
    w = g.random(11)
    atoms = kkmlab.DistributionSpec(g.normal(size=(11, 2)), w / w.sum(),
                                    kkmlab.KernelSpec("gaussian"))
    cases = [(kkmlab.standard_benchmark(k, seed=5), k) for k in range(1, 6)]
    cases += [(atoms, k) for k in range(1, 4)]
    exact = []
    for (op, digests), (P, k) in zip(got.items(), cases, strict=True):
        res = kkmlab.optimal_risk(P, k)
        exact.append(res.exact)
        line = f"{res.value!r} {res.exact}\n"
        assert digests == {"exit": "0", "stdout": hashlib.sha256(line.encode()).hexdigest(),
                           "stderr": hashlib.sha256(b"").hexdigest()}, op
    assert exact == [True, True, False, False, False, True, True, True]
