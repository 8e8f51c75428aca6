import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import kkmlab
from kkmlab._common import fmt12, write_float_csv

_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1 + 0.2,
            123456789012.5, 1.0, -3.0, 2.0**53, 1e-5, 7e22]


def fmt12_lines(header, rows, index):
    """The per-value writer ``write_float_csv`` replaces."""
    lines = [header]
    for i, row in enumerate(rows):
        lines.append(",".join(([str(i)] if index else []) + [fmt12(v) for v in row]))
    return "\n".join(lines) + "\n"


class TestWriteFloatCsv:
    @pytest.mark.parametrize("index", [False, True])
    def test_bytes_equal_fmt12(self, tmp_path, index):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(600, 5)) * 10.0 ** rng.integers(-8, 9, size=(600, 5))
        rows[: len(_SPECIAL)] = np.asarray(_SPECIAL)[:, None]
        rows[-len(_SPECIAL) :, 2] = _SPECIAL  # and in one column of the last block
        path = tmp_path / "t.csv"
        write_float_csv(path, "a,b,c,d,e", rows[:, :4], rows[:, 4], index=index)
        assert path.read_text(encoding="utf-8") == fmt12_lines("a,b,c,d,e", rows, index)

    def test_one_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_float_csv(path, "index,value", _SPECIAL, index=True)
        want = fmt12_lines("index,value", np.asarray(_SPECIAL)[:, None], True)
        assert path.read_text(encoding="utf-8") == want

    def test_integer_labels_written_as_integers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_float_csv(path, "point_index,cluster_id", np.array([0, 3, 1]), index=True)
        assert path.read_text(encoding="utf-8") == "point_index,cluster_id\n0,0\n1,3\n2,1\n"

    def test_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_float_csv(path, "iteration,cost", np.empty(0), index=True)
        assert path.read_text(encoding="utf-8") == "iteration,cost\n"


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only on a star import, and perfbench's
    # tracer wraps what __all__ names
    for info in pkgutil.iter_modules(kkmlab.__path__):
        module = importlib.import_module(f"kkmlab.{info.name}")
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, (info.name, stale)
    tree = ast.parse(Path(kkmlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"kkmlab.{node.module}")
        for alias in node.names:
            assert hasattr(kkmlab, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)
