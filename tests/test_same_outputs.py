"""The per-op comparison and hashing of ``tools/same_outputs.py``."""

import importlib
import sys
from pathlib import Path

import pytest

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
