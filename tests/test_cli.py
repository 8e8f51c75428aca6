import io
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kkmlab.clustering as clustering_module
import kkmlab.rademacher as rademacher_module
from kkmlab import cli
from kkmlab._common import fmt12
from kkmlab.cli import main
from kkmlab.config import FLAG_KEYS, ExperimentConfig

BASE_CONFIG = """
[kernel]
family = gaussian
bandwidth = 2.0

[data]
source = synthetic
generator = two_blobs
n = 24
separation = 8.0
spread = 1.0
dim = 2

[cluster]
k = 2
method = lloyd
restarts = 5

[nystrom]
m = 6
mode = fixed

[lab]
trials = 4000
grid = 2x4, 2x8, 4x8

[sweep]
n_values = 16, 24, 32
k_values = 2
methods = exact, nystrom
reps = 3
m_mode = fixed
m_fixed = 8

[run]
master_seed = 42
output_dir = {out}
"""


@pytest.fixture
def config_file(tmp_path):
    def make(extra: str = "", out: str | None = None, body: str | None = None):
        out_dir = out or str(tmp_path / "out")
        text = (body or BASE_CONFIG).format(out=out_dir) + extra
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        return path, Path(out_dir)

    return make


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestClusterCommand:
    def test_two_blobs_fixture(self, config_file, capsys):
        cfg, out = config_file()
        assert main(["cluster", "--config", str(cfg)]) == 0
        header, rows = read_csv(out / "assignment.csv")
        assert header == ["point_index", "cluster_id"]
        assert len(rows) == 24
        assert {r[1] for r in rows} == {"0", "1"}
        summary = (out / "summary.txt").read_text()
        assert "final_cost:" in summary and "method: lloyd" in summary
        theader, trows = read_csv(out / "trace.csv")
        assert theader == ["iteration", "cost"]
        costs = [float(r[1]) for r in trows]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_missing_data_file_exits_two(self, config_file, capsys):
        body = BASE_CONFIG.replace("source = synthetic", "source = csv\npath = /nope/missing.csv")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        assert "/nope/missing.csv" in capsys.readouterr().err

    def test_method_and_m_flags_override_config(self, config_file):
        cfg, out = config_file()
        assert main(["cluster", "--config", str(cfg), "--method", "nystrom", "--m", "8"]) == 0
        summary = (out / "summary.txt").read_text()
        assert "method: nystrom" in summary
        assert "m: 8" in summary

    def test_approx_method(self, config_file):
        cfg, out = config_file()
        assert main(["cluster", "--config", str(cfg), "--method", "approx"]) == 0
        assert "swaps_accepted:" in (out / "summary.txt").read_text()

    def test_missing_seed_rejected(self, config_file):
        body = BASE_CONFIG.replace("master_seed = 42\n", "")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2

    def test_output_dir_env_override(self, config_file, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("KKMLAB_OUTPUT_DIR", str(env_out))
        cfg, _ = config_file()
        assert main(["cluster", "--config", str(cfg)]) == 0
        assert (env_out / "assignment.csv").is_file()


REGRESSION_CONFIG = """
[kernel]
family = gaussian
bandwidth = 1.5

[data]
source = inline
inline = 0.19 -0.2; 0.96 0.16; -0.8 0.54; 1.96 1.42; -1.06 -1.9; -0.93 0.06; -3.49 -0.33;
  -1.87 -1.1; -0.82 -0.47; 0.62 1.56; -0.19 2.05; -1 0.53; 1.36 0.14; -1.12 -1.38;
  -0.69 0.33; -1.51 -0.31; -0.24 0.81; 0.32 0.53; -0.98 -0.19; 1.18 2.24

[cluster]
k = 4
restarts = 1

[nystrom]
m = 5
mode = fixed

[run]
master_seed = 7
output_dir = {out}
"""

# Outputs of `cluster` on REGRESSION_CONFIG, recorded before the three Lloyd
# loops shared one: labels, traces and summaries per method.
CLUSTER_REGRESSION = {
    "lloyd": (
        "2 2 0 3 1 0 1 1 1 3 0 0 2 1 0 1 0 2 1 3",
        [0.233413702261, 0.214002973432, 0.208211258102, 0.208211258102],
        {"iterations": "3", "converged": "True"},
        {"final_cost": 0.208211258102},
    ),
    "approx": (
        "3 3 1 0 2 1 2 2 1 0 0 1 3 2 1 1 1 3 1 0",
        [0.18203204168, 0.18203204168],
        {"iterations": "1", "converged": "True", "swaps_accepted": "5"},
        {"final_cost": 0.18203204168},
    ),
    "nystrom": (
        "1 1 0 2 3 0 3 3 0 2 2 0 1 3 0 0 1 1 0 2",
        [0.276343135781, 0.256620925495, 0.234254984319, 0.234254984319],
        {"iterations": "3", "converged": "True", "m": "5"},
        {"final_cost": 0.234254984319, "cost_projected": 0.0954484665716},
    ),
}


class TestClusterRegression:
    @pytest.mark.parametrize("method", sorted(CLUSTER_REGRESSION))
    def test_outputs_match_recorded(self, config_file, method):
        labels, costs, exact, floats = CLUSTER_REGRESSION[method]
        cfg, out = config_file(body=REGRESSION_CONFIG)
        assert main(["cluster", "--config", str(cfg), "--method", method]) == 0
        want = "point_index,cluster_id\n" + "".join(
            f"{i},{c}\n" for i, c in enumerate(labels.split())
        )
        assert (out / "assignment.csv").read_text() == want
        header, rows = read_csv(out / "trace.csv")
        assert header == ["iteration", "cost"]
        assert [int(r[0]) for r in rows] == list(range(len(costs)))
        assert [float(r[1]) for r in rows] == pytest.approx(costs, rel=1e-12, abs=0.0)
        summary = dict(
            line.split(": ", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary.keys() == {"method", "n", "k", "final_cost", *exact, *floats}
        assert (summary["method"], summary["n"], summary["k"]) == (method, "20", "4")
        assert {key: summary[key] for key in exact} == exact
        for key, value in floats.items():
            assert float(summary[key]) == pytest.approx(value, rel=1e-12, abs=0.0)


class TestClusterLinkage:
    def test_seed_linkage_is_not_multiplied_twice(self, config_file, monkeypatch):
        # without local search no seed is scored: each labeling's Gram
        # product is made once, by the Lloyd step that reads it
        cfg, _ = config_file(body=REGRESSION_CONFIG.replace("restarts = 1", "restarts = 4"))
        made = []
        linkage = clustering_module._cluster_linkage

        def counted(K, labels, k, weights=None):  # a labeling a row of each batched call
            made.extend(row.tobytes() for row in np.atleast_2d(labels))
            return linkage(K, labels, k, weights)

        monkeypatch.setattr(clustering_module, "_cluster_linkage", counted)
        assert main(["cluster", "--config", str(cfg), "--method", "lloyd"]) == 0
        assert len(made) == 7 and len(set(made)) == 7


class TestSpectrumAndEmbed:
    def test_spectrum_prints_modes(self, config_file, capsys):
        cfg, out = config_file()
        assert main(["spectrum", "--config", str(cfg)]) == 0
        captured = capsys.readouterr().out
        assert "effective_dimension=" in captured
        for mode in ("general", "eigendecay", "linear_k"):
            assert mode in captured
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["index", "eigenvalue"]
        assert len(rows) == 24

    def test_embed_csv_shape(self, config_file):
        cfg, out = config_file()
        assert main(["nystrom-embed", "--config", str(cfg), "--m", "5"]) == 0
        header, rows = read_csv(out / "embedded.csv")
        assert header == [f"z{j}" for j in range(5)] + ["residual"]
        assert len(rows) == 24
        assert all(float(r[-1]) >= 0.0 for r in rows)


# `rad-check` rows recorded before the cell logic moved into the library and
# each distinct block of sign patterns was summed once
RAD_HEADER = "k,n,estimator,value,std_error,trials,bound,verdict"
RAD_ROWS = {
    "2x4": ["2,4,finite_class,2,0,16,2,satisfied",
            "2,4,coordinate,3.43566017178,0,16,6,satisfied",
            "2,4,khintchine,0.5,0,0,0.5,satisfied"],
    "2x8": ["2,8,finite_class,3,0,256,2.82842712475,satisfied",
            "2,8,coordinate,4.99530985148,0,256,8.48528137424,satisfied",
            "2,8,khintchine,0.75,0,0,0.707106781187,satisfied"],
    "4x8": ["4,8,finite_class,4,0,256,4,satisfied",
            "4,8,coordinate,5.42684721429,0,256,8.48528137424,satisfied",
            "4,8,khintchine,0.5,0,0,0.5,satisfied"],
    "4x16": ["4,16,finite_class,6,0,65536,5.65685424949,satisfied",
             "4,16,coordinate,7.68419184589,0,65536,12,satisfied",
             "4,16,khintchine,0.75,0,0,0.707106781187,satisfied"],
    "2x20": ["2,20,finite_class,4.921875,0,1048576,4.472135955,satisfied",
             "2,20,coordinate,7.98367511498,0,1048576,13.416407865,satisfied",
             "2,20,khintchine,1.23046875,0,0,1.11803398875,satisfied"],
    "4x20": ["4,20,finite_class,7.5,0,1048576,6.32455532034,satisfied",
             "4,20,coordinate,8.6045196142,0,1048576,13.416407865,satisfied",
             "4,20,khintchine,0.9375,0,0,0.790569415042,satisfied"],
    "5x20": ["5,20,finite_class,7.5,0,1048576,7.07106781187,satisfied",
             "5,20,coordinate,8.71113124344,0,1048576,13.416407865,satisfied",
             "5,20,khintchine,0.75,0,0,0.707106781187,satisfied"],
}
RAD_FALLBACK = ("# cell (k=4, n=24): exact enumeration too large, "
                "falling back to 10000 Monte Carlo trials")
RAD_MONTE_CARLO_ROWS = {  # the 4x24 cell, by master seed
    42: ["4,24,finite_class,7.418,0.0577960347962,10000,6.92820323028,satisfied",
         "4,24,coordinate,9.41550650455,0.101211557549,10000,14.6969384567,satisfied",
         "4,24,khintchine,0.9375,0,0,0.866025403784,satisfied"],
    5: ["4,24,finite_class,7.4284,0.0577066750908,10000,6.92820323028,satisfied",
        "4,24,coordinate,9.44235140301,0.101140725792,10000,14.6969384567,satisfied",
        "4,24,khintchine,0.9375,0,0,0.866025403784,satisfied"],
    7: ["4,24,finite_class,7.4324,0.0579043894349,10000,6.92820323028,satisfied",
        "4,24,coordinate,9.24705351318,0.0994320247175,10000,14.6969384567,satisfied",
        "4,24,khintchine,0.9375,0,0,0.866025403784,satisfied"],
}


class TestRadCheckCommand:
    def test_default_grid_all_satisfied(self, config_file, capsys):
        cfg, out = config_file()
        assert main(["rad-check", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "violated" not in stdout
        header, rows = read_csv(out / "rad_check.csv")
        assert header[-1] == "verdict"
        assert len(rows) == 9  # three estimators per grid cell
        assert all(r[-1] == "satisfied" for r in rows)

    def test_non_divisible_cell_skipped(self, config_file, capsys):
        body = BASE_CONFIG.replace("grid = 2x4, 2x8, 4x8", "grid = 3x5, 2x4")
        cfg, out = config_file(body=body)
        assert main(["rad-check", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "skipped" in stdout and "divisible" in stdout
        _, rows = read_csv(out / "rad_check.csv")
        assert len(rows) == 3  # only the valid (2,4) cell

    def test_trials_flag_applies_to_monte_carlo_cells(self, config_file, capsys):
        # n = 26 exceeds the exact enumeration limit, forcing Monte Carlo
        body = BASE_CONFIG.replace("grid = 2x4, 2x8, 4x8", "grid = 2x26")
        cfg, out = config_file(body=body)
        assert main(["rad-check", "--config", str(cfg), "--trials", "3000"]) == 0
        stdout = capsys.readouterr().out
        assert "falling back to 3000 Monte Carlo trials" in stdout
        _, rows = read_csv(out / "rad_check.csv")
        trials = {r[2]: r[5] for r in rows}
        assert trials["finite_class"] == "3000"
        assert trials["coordinate"] == "3000"


    @pytest.mark.parametrize("seed", [42, 5, 7])
    @pytest.mark.parametrize("grid", ["2x4, 2x8, 4x8, 4x16", "2x20, 4x20, 5x20, 4x24"])
    def test_outputs_match_recorded(self, config_file, capsys, grid, seed):
        body = BASE_CONFIG.replace("trials = 4000\ngrid = 2x4, 2x8, 4x8",
                                   f"trials = 10000\ngrid = {grid}")
        cfg, out = config_file(body=body)
        assert main(["rad-check", "--config", str(cfg), "--seed", str(seed)]) == 0
        want = [RAD_HEADER]
        for cell in grid.split(", "):
            if cell == "4x24":
                want.append(RAD_FALLBACK)
            want += RAD_ROWS.get(cell) or RAD_MONTE_CARLO_ROWS[seed]
        assert capsys.readouterr().out.splitlines() == want
        assert (out / "rad_check.csv").read_text() == "\n".join(
            line for line in want if not line.startswith("#")) + "\n"

    def test_khintchine_row_is_exact_past_block_twenty(self, config_file, capsys):
        # its Monte Carlo mean read 1.8538,0,0 at seed 42
        body = BASE_CONFIG.replace("trials = 4000\ngrid = 2x4, 2x8, 4x8",
                                   "trials = 10000\ngrid = 1x22")
        cfg, out = config_file(body=body)
        assert main(["rad-check", "--config", str(cfg)]) == 0
        _, rows = read_csv(out / "rad_check.csv")
        assert ",".join(rows[2][2:7]) == "khintchine,1.85006904602,0,0,1.65831239518"

    @pytest.mark.parametrize("seed", [42, 5, 7])
    def test_cell_rows_match_recorded(self, seed):
        cells = {(4, 8): False, (4, 24): True}  # the cell fell back to Monte Carlo
        for (k, n), monte_carlo in cells.items():
            rows, fell_back = rademacher_module.rad_check_cell(
                rademacher_module.lower_bound_construction(k, n), 10_000, seed)
            assert fell_back == monte_carlo
            got = [f"{k},{n},{r.estimator},{fmt12(r.value)},{fmt12(r.std_error)},{r.trials},"
                   f"{fmt12(r.bound)},{r.verdict}" for r in rows]
            assert got == (RAD_MONTE_CARLO_ROWS[seed] if monte_carlo else RAD_ROWS[f"{k}x{n}"])


class TestRiskScanCommand:
    def test_report_grid_and_methods(self, config_file):
        cfg, out = config_file()
        assert main(["risk-scan", "--config", str(cfg)]) in (0, 1)
        header, rows = read_csv(out / "report.csv")
        assert header[:3] == ["n", "k", "method"]
        assert len(rows) == 3 * 1 * 2  # n grid x k grid x methods
        methods = {r[2] for r in rows}
        assert methods == {"exact_erm_approx", "nystrom"}
        assert (out / "summary.txt").is_file()

    def test_methods_flag_restricts(self, config_file):
        cfg, out = config_file()
        assert main(["risk-scan", "--config", str(cfg), "--methods", "exact"]) == 0
        _, rows = read_csv(out / "report.csv")
        assert {r[2] for r in rows} == {"exact_erm_approx"}

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        cfg, out = config_file()
        out2 = tmp_path / "out2"
        assert main(["risk-scan", "--config", str(cfg)]) in (0, 1)
        assert main(["risk-scan", "--config", str(cfg), "--output-dir", str(out2)]) in (0, 1)
        assert (out / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_starved_landmark_budget_violates_verdict(self, config_file, capsys):
        # a single landmark cannot track the exact method, so the
        # exact-vs-nystrom comparison must come back violated (exit 1)
        body = BASE_CONFIG.replace("m_mode = fixed\nm_fixed = 8", "m_mode = fixed\nm_fixed = 1")
        body = body.replace("n_values = 16, 24, 32", "n_values = 48, 96")
        body = body.replace("reps = 3", "reps = 10")
        body = body.replace("master_seed = 42", "master_seed = 5")
        cfg, out = config_file(body=body)
        assert main(["risk-scan", "--config", str(cfg)]) == 1
        assert "violated" in capsys.readouterr().out

    def test_floats_use_twelve_significant_digits(self, config_file):
        cfg, out = config_file()
        assert main(["risk-scan", "--config", str(cfg), "--methods", "exact"]) == 0
        _, rows = read_csv(out / "report.csv")
        for row in rows:
            for cell in (row[5], row[6], row[7]):
                mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
                assert len(mantissa) <= 12


class TestConfigValidation:
    def test_missing_config_file(self, capsys):
        assert main(["cluster", "--config", "/does/not/exist.cfg"]) == 2
        assert "/does/not/exist.cfg" in capsys.readouterr().err

    def test_nonpositive_workers_setting_exits_two(self, config_file, capsys):
        cfg, _ = config_file(extra="workers = 0\n")
        assert main(["risk-scan", "--config", str(cfg)]) == 2
        assert "workers" in capsys.readouterr().err

    def test_workers_above_one_exits_two(self, config_file, capsys):
        cfg, _ = config_file(extra="workers = 2\n")
        assert main(["risk-scan", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "workers" in err
        assert "Traceback" not in err

    @staticmethod
    def assert_one_line_error(capsys, word):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and word in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["cluster", "--method", "nystrom"], ["nystrom-embed"]])
    def test_fixed_landmarks_without_m_exit_two(self, config_file, capsys, command):
        cfg, _ = config_file(body=BASE_CONFIG.replace("m = 6\nmode", "mode"))
        assert main([*command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[nystrom]")

    @pytest.mark.parametrize("command, old, new, key", [
        (["cluster", "--method", "nystrom"], "m = 6\nmode", "mode", "[nystrom] m"),
        (["nystrom-embed"], "m = 6\nmode", "mode", "[nystrom] m"),
        (["risk-scan"], "m_fixed = 8\n", "", "[sweep] m_fixed"),
    ], ids=["cluster", "nystrom-embed", "risk-scan"])
    def test_missing_fixed_m_names_its_key(self, config_file, capsys, command, old, new, key):
        # the sweep's message used to call its key m
        cfg, _ = config_file(body=BASE_CONFIG.replace(old, new))
        assert main([*command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, f"error: {key}: fixed m policy needs m >= 1, got None")

    @pytest.mark.parametrize("command", [["cluster", "--method", "nystrom"], ["nystrom-embed"]])
    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_fixed_landmarks_below_one_exit_two(self, config_file, capsys, command, m):
        # used to be clamped to one landmark
        cfg, _ = config_file()
        assert main([*command, "--config", str(cfg), "--m", m]) == 2
        self.assert_one_line_error(capsys, f"got {m}")

    def test_unknown_landmark_mode_exits_two(self, config_file, capsys):
        cfg, _ = config_file(body=BASE_CONFIG.replace("mode = fixed", "mode = bogus"))
        assert main(["nystrom-embed", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "bogus")

    def test_sweep_m_fixed_below_one_exits_two(self, config_file, capsys):
        cfg, _ = config_file(body=BASE_CONFIG.replace("m_fixed = 8", "m_fixed = 0"))
        assert main(["risk-scan", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[sweep]")

    @pytest.mark.parametrize("method", ["lloyd", "nystrom"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_flag_exits_two(self, config_file, capsys, method, k):
        cfg, _ = config_file()
        assert main(["cluster", "--config", str(cfg), "--method", method, "--k", k]) == 2
        self.assert_one_line_error(capsys, "[cluster] k")

    @pytest.mark.parametrize("method", ["lloyd", "approx", "nystrom"])
    def test_k_above_n_exits_two(self, config_file, capsys, method):
        # the nystrom seeding used to end in numpy's ValueError with exit 1
        body = BASE_CONFIG.replace("source = synthetic", "source = inline\ninline = 0 0; 1 1")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg), "--method", method, "--k", "3"]) == 2
        self.assert_one_line_error(capsys, "k=3 exceeds n=2")

    def test_k_below_one_setting_exits_two(self, config_file, capsys):
        cfg, _ = config_file(body=BASE_CONFIG.replace("k = 2\nmethod", "k = 0\nmethod"))
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[cluster] k")

    def test_negative_rounds_exits_two(self, config_file, capsys):
        cfg, _ = config_file(body=BASE_CONFIG.replace("restarts = 5", "restarts = 5\nrounds = -1"))
        assert main(["cluster", "--config", str(cfg), "--method", "approx"]) == 2
        self.assert_one_line_error(capsys, "[cluster] rounds")

    @pytest.mark.parametrize(
        "command", [["cluster", "--method", "nystrom"], ["nystrom-embed"], ["spectrum"]]
    )
    def test_nonpositive_c_scale_exits_two(self, config_file, capsys, command):
        body = BASE_CONFIG.replace("m = 6\nmode = fixed", "m = 6\nmode = general\nc_scale = 0")
        cfg, _ = config_file(body=body)
        assert main([*command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[nystrom] c_scale")

    @pytest.mark.parametrize("delta", ["0", "1.5", "nan"])
    def test_delta_outside_unit_interval_exits_two_before_writing(self, config_file, capsys, delta):
        # spectrum used to write spectrum.csv before landmark_size refused the value
        body = BASE_CONFIG.replace("m = 6\nmode = fixed", f"m = 6\nmode = general\ndelta = {delta}")
        cfg, out = config_file(body=body)
        assert main(["spectrum", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[nystrom] delta")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "old, new, command, word",
        [("grid = 2x4, 2x8, 4x8", "grid = 0x4", "rad-check", "[lab] grid"),
         ("trials = 4000\ngrid = 2x4, 2x8, 4x8", "trials = 0\ngrid = 2x22", "rad-check",
          "[lab] trials"),
         ("k_values = 2", "k_values = 0", "risk-scan", "[sweep] k_values"),
         ("n_values = 16, 24, 32", "n_values = 16, 0", "risk-scan", "[sweep] n_values"),
         ("k_values = 2", "k_values = 20", "risk-scan", "[sweep] k_values"),
         ("reps = 3", "reps = 0", "risk-scan", "[sweep] reps"),
         ("n = 24", "n = 0", "cluster", "[data] n"),
         ("dim = 2", "dim = 0", "cluster", "[data] dim"),
         ("m = 6\nmode = fixed", "m = 6\nmode = fixed\njitter = -1", "nystrom-embed",
          "[nystrom] jitter"),
         ("m = 6\nmode = fixed", "m = 6\nmode = fixed\njitter = inf", "nystrom-embed",
          "[nystrom] jitter"),
         ("m = 6\nmode = fixed", "m = 6\nmode = general\nc_scale = inf", "spectrum",
          "[nystrom] c_scale"),
         ("master_seed = 42", "master_seed = -1", "cluster", "[run] master_seed"),
         ("m_fixed = 8", "m_fixed = 8\nbenchmark_seed = -1", "risk-scan",
          "[sweep] benchmark_seed")],
    )
    def test_out_of_range_setting_exits_two(self, config_file, capsys, old, new, command, word):
        # each used to end in a traceback with exit 1, a report of NaNs with
        # exit 0 (reps = 0), or an optimum search that ran for minutes (k > n)
        cfg, _ = config_file(body=BASE_CONFIG.replace(old, new))
        assert main([command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    def test_grid_past_the_class_limit_exits_two(self, config_file, capsys, monkeypatch):
        # a 30x30 cell lists 2^30 center sets, 8 GiB; the rule refuses it before any cell is built
        def build(*args):
            raise AssertionError("a rad-check cell was built")

        monkeypatch.setattr(cli, "lower_bound_construction", build)
        cfg, _ = config_file(body=BASE_CONFIG.replace("grid = 2x4, 2x8, 4x8", "grid = 2x4, 30x30"))
        assert main(["rad-check", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[lab] grid")

    @pytest.mark.parametrize("command, old, new, name, word", [
        ("rad-check", "trials = 4000\ngrid = 2x4, 2x8, 4x8",
         "trials = 1\ngrid = 1x22, 1x24, 1x26, 2x44", "lower_bound_construction",
         "[lab] trials must be >= 2, got 1"),
        ("risk-scan", "reps = 3", "reps = 1", "run_cell", "[sweep] reps must be >= 2, got 1"),
    ], ids=["rad-check", "risk-scan"])
    def test_single_draw_verdict_exits_two(self, config_file, capsys, monkeypatch,
                                           command, old, new, name, word):
        # one draw has std_error 0: these used to exit 1 with violated finite-class
        # rows, or with "0/3 cells overlap", and now stop before any cell is built
        def build(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(cli, name, build)
        cfg, _ = config_file(body=BASE_CONFIG.replace(old, new))
        assert main([command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    @pytest.mark.parametrize("command, module, name", [
        ("cluster", cli, "gram_matrix"),
        ("rad-check", rademacher_module, "coordinate_rad"),
    ])
    def test_out_of_memory_exits_two(self, config_file, capsys, monkeypatch, command, module, name):
        # numpy's own error for an array it cannot allocate, raised before anything is allocated
        from numpy._core._exceptions import _ArrayMemoryError

        def allocate(*args, **kwargs):
            raise _ArrayMemoryError((1_000_000, 1_000_000), np.dtype(float))

        monkeypatch.setattr(module, name, allocate)
        cfg, _ = config_file()
        assert main([command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, f"error: {command} ran out of memory: Unable to "
                                           "allocate 7.28 TiB for an array with shape "
                                           "(1000000, 1000000) and data type float64")

    @pytest.mark.parametrize(
        "command, word", [(["rad-check", "--trials", "0"], "[lab] trials"),
                          (["risk-scan", "--reps", "-1"], "[sweep] reps"),
                          (["spectrum", "--seed", "-1"], "[run] master_seed"),
                          (["rad-check", "--trials", "1"], "[lab] trials must be >= 2, got 1"),
                          (["risk-scan", "--reps", "1"], "[sweep] reps must be >= 2, got 1")],
    )
    def test_out_of_range_flag_exits_two(self, config_file, capsys, command, word):
        cfg, _ = config_file()
        assert main([*command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    @pytest.mark.parametrize(
        "command, word", [(["cluster", "--k", "abc"], "[cluster] k: cannot parse 'abc'"),
                          (["nystrom-embed", "--m", "1.5"], "[nystrom] m: cannot parse '1.5'"),
                          (["cluster", "--method", "bogus"], "[cluster] method must be one of"),
                          (["spectrum", "--seed", "x"], "[run] master_seed: cannot parse 'x'")],
    )
    def test_unparsable_flag_exits_two(self, config_file, capsys, command, word):
        # argparse used to reject these itself: a usage text and SystemExit(2) out of main
        cfg, _ = config_file()
        assert main([*command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    @pytest.mark.parametrize("command, old, new, name, word", [
        (["cluster", "--method", "nystrom"], "m = 6\nmode", "mode", "gram_matrix", "[nystrom]"),
        (["cluster", "--method", "nystrom", "--m", "0"], "", "", "gram_matrix", "[nystrom] m"),
        (["nystrom-embed", "--m", "0"], "", "", "gram_matrix", "[nystrom] m"),
        (["risk-scan"], "m_fixed = 8\n", "", "run_cell", "[sweep]"),
    ], ids=["cluster-no-m", "cluster-m-0", "embed-m-0", "risk-scan-no-m-fixed"])
    def test_landmark_policy_is_checked_before_any_work(self, config_file, capsys, monkeypatch,
                                                         command, old, new, name, word):
        # cluster --method nystrom used to build its Gram and output directory first
        def work(*args, **kwargs):
            raise AssertionError(f"{name} ran before the landmark policy was checked")

        monkeypatch.setattr(cli, name, work)
        cfg, out = config_file(body=BASE_CONFIG.replace(old, new) if old else None)
        assert main([*command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)
        assert not out.exists()

    @pytest.mark.parametrize("source, data, word", [
        ("csv", b"\n# points\nx,y\n\n0,0\n\n0.2\n", "line 7 has 1 values, not 2"),
        ("csv", b"x,y\n\n", "has no numeric rows"),
        ("csv", b"x,y\n0,0\n\xff,1\n", "line 3 is not numeric"),
        ("inline", "x y; 1 2", "inline row 1 is not numeric"),
        ("inline", "1 2;; 3", "inline row 2 has 1 values, not 2"),
        ("inline", ",", "inline has no numeric rows"),
    ], ids=["csv-ragged", "csv-header-only", "csv-not-utf8", "inline-no-header",
            "inline-blank-row", "inline-empty"])
    def test_bad_point_rows_exit_two(self, config_file, capsys, tmp_path, source, data, word):
        # a CSV is numbered by file line, blank lines counted, and skips its header
        # lines; inline data has no header, and its blank rows are not counted.  A
        # byte that is not UTF-8 used to end in a UnicodeDecodeError traceback
        if source == "csv":
            (tmp_path / "pts.csv").write_bytes(data)
            data = f"\npath = {tmp_path / 'pts.csv'}"
        else:
            data = f"\ninline = {data}"
        body = BASE_CONFIG.replace("source = synthetic", f"source = {source}{data}")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    @pytest.mark.parametrize(
        "old, new, word",
        [("restarts = 5", "restarts = 5\nkk = 3", "[cluster] unknown key 'kk'"),
         ("[cluster]", "[clusterr]", "unknown section [clusterr]"),
         ("[run]", "[DEFAULT]\nk = 3\n\n[run]", "unknown section [DEFAULT]")],
    )
    def test_unknown_section_or_key_exits_two(self, config_file, capsys, old, new, word):
        # used to be ignored, so the run went on with the defaults and exit 0
        cfg, _ = config_file(body=BASE_CONFIG.replace(old, new))
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    @pytest.mark.parametrize(
        "old, new, word",
        [("method = lloyd", "method = bogus", "[cluster] method"),
         ("source = synthetic", "source = nowhere", "[data] source"),
         ("generator = two_blobs", "generator = three_blobs", "[data] generator"),
         ("m = 6\nmode = fixed", "m = 6\nmode = bogus", "[nystrom] mode"),
         ("m_mode = fixed", "m_mode = bogus", "[sweep] m_mode"),
         ("family = gaussian", "family = cosine", "[kernel] family"),
         ("bandwidth = 2.0", "bandwidth = 2.0\nnormalize = ture", "[kernel] normalize")],
    )
    def test_unknown_enumerated_value_exits_two(self, config_file, capsys, old, new, word):
        # used to load, so rad-check, which reads none of these keys, exited 0
        # (and normalize = ture read as False)
        cfg, _ = config_file(body=BASE_CONFIG.replace(old, new))
        assert main(["rad-check", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, word)

    @pytest.mark.parametrize(
        "command", ["cluster", "nystrom-embed", "rad-check", "risk-scan", "spectrum"]
    )
    def test_unknown_sweep_method_exits_two(self, config_file, capsys, command):
        # used to load, so every command but risk-scan went on and exited 0
        cfg, _ = config_file(body=BASE_CONFIG.replace("methods = exact, nystrom",
                                                      "methods = exact, bogus"))
        assert main([command, "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[sweep] methods")

    def test_percent_sign_is_literal(self, config_file, capsys):
        # used to end in an InterpolationSyntaxError traceback with exit 1
        cfg, _ = config_file(body=BASE_CONFIG.replace("bandwidth = 2.0", "bandwidth = 2%"))
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[kernel] bandwidth: cannot parse '2%'")

    def test_ragged_points_csv_exits_two(self, config_file, capsys, tmp_path):
        data = tmp_path / "pts.csv"
        data.write_text("x,y\n0,0\n0.2\n5,5\n", encoding="utf-8")
        body = BASE_CONFIG.replace("source = synthetic", f"source = csv\npath = {data}")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "line 3")

    @pytest.mark.parametrize("method", ["lloyd", "approx", "nystrom"])
    @pytest.mark.parametrize(
        "setting, key",
        [("max_iter = 0", "[cluster] max_iter"), ("max_iter = -3", "[cluster] max_iter"),
         ("rel_tol = -1", "[cluster] rel_tol"), ("rel_tol = nan", "[cluster] rel_tol")],
    )
    def test_bad_lloyd_settings_exit_two(self, config_file, capsys, method, setting, key):
        # max_iter = 0 and rel_tol = -1 used to end in a ValueError traceback
        # with exit 1 under lloyd and approx, and to run unchecked under nystrom
        cfg, _ = config_file(body=BASE_CONFIG.replace("restarts = 5", f"restarts = 5\n{setting}"))
        assert main(["cluster", "--config", str(cfg), "--method", method]) == 2
        self.assert_one_line_error(capsys, key)

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_restarts_below_one_exits_two(self, config_file, capsys, restarts):
        # restarts = 0 used to leave no Lloyd run and end in a TypeError traceback
        body = BASE_CONFIG.replace("restarts = 5", f"restarts = {restarts}").replace(
            "source = synthetic", "source = inline\ninline = 0 0; 0.1 0; 4 4; 4.1 4; 4 4.2; 0 0.2"
        )
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "[cluster] restarts")

    def test_ragged_inline_points_exit_two(self, config_file, capsys):
        body = BASE_CONFIG.replace("source = synthetic", "source = inline\ninline = 1 2; 3 4; 5")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "inline row 3")

    def test_non_numeric_inline_point_exits_two(self, config_file, capsys):
        # used to end in float()'s ValueError traceback with exit 1
        body = BASE_CONFIG.replace("source = synthetic", "source = inline\ninline = 1 a; 2 3; 4 5")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "inline row 1 is not numeric" in err and "'a'" in err

    def test_overflowing_kernel_exits_two(self, config_file, capsys):
        body = BASE_CONFIG.replace(
            "family = gaussian", "family = polynomial\ndegree = 60\noffset = 1.0"
        ).replace("source = synthetic", "source = inline\ninline = 1e3 1e3; -1e3 1e3; 1e3 -1e3")
        cfg, _ = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "overflows")

    def test_overflowing_gaussian_prints_only_its_error(self, config_file, capsys):
        # numpy used to warn of overflow in matmul and an invalid subtract first
        body = BASE_CONFIG.replace("source = synthetic",
                                   "source = inline\ninline = 0 0; 1e200 1e200; 1 1; 2 2")
        cfg, _ = config_file(body=body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end main in a traceback
            assert main(["cluster", "--config", str(cfg)]) == 2
        self.assert_one_line_error(capsys, "the gaussian kernel overflows")

    def test_empty_sweep_grid_rejected(self, config_file):
        body = BASE_CONFIG.replace("n_values = 16, 24, 32", "n_values =")
        cfg, _ = config_file(body=body)
        assert main(["risk-scan", "--config", str(cfg)]) == 2

    def test_inline_points(self, config_file, tmp_path):
        body = BASE_CONFIG.replace(
            "source = synthetic",
            "source = inline\ninline = 0 0; 0.1 0; 4 4; 4.1 4; 4 4.2; 0 0.2",
        ).replace("n = 24", "")
        cfg, out = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 0
        _, rows = read_csv(out / "assignment.csv")
        assert len(rows) == 6

    def test_csv_points_roundtrip(self, config_file, tmp_path):
        data = tmp_path / "pts.csv"
        data.write_text("x,y\n0,0\n0.2,0\n5,5\n5.2,5\n", encoding="utf-8")
        body = BASE_CONFIG.replace(
            "source = synthetic", f"source = csv\npath = {data}"
        )
        cfg, out = config_file(body=body)
        assert main(["cluster", "--config", str(cfg)]) == 0
        _, rows = read_csv(out / "assignment.csv")
        assert len(rows) == 4


# small enough that any command on it runs in a fraction of a second
FUZZ_BASE = {
    "kernel": {"bandwidth": "2.0"},
    "data": {"n": "12"},
    "cluster": {"k": "2", "restarts": "2"},
    "nystrom": {"m": "4", "mode": "fixed"},
    "lab": {"trials": "50", "grid": "2x4"},
    "sweep": {"n_values": "8, 12", "k_values": "2", "methods": "exact, nystrom", "reps": "2",
              "m_mode": "fixed", "m_fixed": "4"},
    "run": {"master_seed": "42"},
}
# every key but the output directory, and values that keep the runs small
FUZZ_KEYS = [(name, f.name) for name, cls in get_type_hints(ExperimentConfig).items()
             for f in fields(cls) if f.name != "output_dir"]
SMALL = st.sampled_from(["1", "2", "3"])
FUZZ_VALUE = SMALL | st.sampled_from([
    "", "0", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e-9", "x", "2x4", "1x3, 2x2", "true",
    "off", "bogus", "fixed", "general", "eigendecay", "linear_k", "linear", "polynomial",
    "inline", "csv", "approx", "nystrom", "exact, approx", "0 0; 1 1; 0 1", "0 0",
])
FLAG_VALUE = SMALL | st.sampled_from(["-1", "0", "1.5", "x", "lloyd", "approx", "nystrom", "exact",
                                      "exact,nystrom"])
# each command's value flags besides --config and --output-dir
COMMAND_FLAGS = {
    "cluster": ["--seed", "--method", "--m", "--k"], "spectrum": ["--seed", "--k"],
    "nystrom-embed": ["--seed", "--m"], "rad-check": ["--seed", "--trials"],
    "risk-scan": ["--seed", "--methods", "--reps"],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(COMMAND_FLAGS)),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUE), max_size=2),
       flags=st.lists(st.tuples(st.integers(0, 3), FLAG_VALUE), max_size=2))
def test_any_config_and_flags_keep_the_exit_contract(fuzz_dir, command, edits, flags):
    sections = {name: dict(keys) for name, keys in FUZZ_BASE.items()}
    for (name, key), value in edits:
        sections.setdefault(name, {})[key] = value
    sections["run"]["output_dir"] = str(fuzz_dir / "out")
    cfg = fuzz_dir / "fuzz.cfg"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items()), encoding="utf-8")
    names = COMMAND_FLAGS[command]
    argv = [command, "--config", str(cfg), *(f"{names[i % len(names)]}={v}" for i, v in flags)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "violated" in out.getvalue()


def test_help_lists_each_commands_flags_and_their_rules(capsys):
    offered = set()
    for command, flags in COMMAND_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert set(re.findall(r"--[a-z-]+", text)) == {"--help", "--config", "--output-dir",
                                                       *flags}
        offered.update(flags)
        if command == "cluster":
            assert "--method METHOD override [cluster] method, one of lloyd, approx, nystrom" \
                in text
            assert "--m M override [nystrom] m, >= 1: a fixed landmark count" in text
    assert offered | {"--output-dir"} == {"--" + flag.replace("_", "-") for flag in FLAG_KEYS}
