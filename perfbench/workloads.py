"""The benchmark's workloads: their inputs, operations and output checks.

Each workload turns ``--seed`` into input files and a config under its work
directory, then runs a fixed list of operations.  An operation is one CLI
invocation (``kkmlab.cli.main``) or one top-level library call.  Nothing here
imports kkmlab: the worker process passes the package in, and the checks
recompute what they verify with plain numpy, so the program never vouches for
its own output.

Why each workload exists is documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42  # the demo config's own master seed; references are recorded here

# Numeric fields of an output agree with a reference when
# |got - want| <= ATOL + RTOL * |want|; text and integer fields must match exactly.
RTOL = 1e-7
ATOL = 1e-9

# An output larger than this is stored in a reference as every SAMPLE_EVERY-th
# line plus per-column sums instead of in full.
FULL_TEXT_LIMIT = 100_000
SAMPLE_EVERY = 128


@dataclass(frozen=True)
class Op:
    """One operation of a workload pass.

    ``argv`` is a CLI invocation; ``--output-dir`` is appended per pass.  An
    op without ``argv`` is the library call ``brute_force_erm``.  ``exits``
    lists the exit codes the op may return; exit 1 must come with a
    ``violated`` line on stdout.
    """

    name: str
    argv: tuple[str, ...] = ()
    exits: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, work_dir, root) -> list[Op]
    check: object  # (outputs, reference, work_dir) -> {op name: [problem]}


# --------------------------------------------------------------------------
# inputs


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _write_points(path: Path, points: np.ndarray) -> Path:
    header = ",".join(f"x{j}" for j in range(points.shape[1]))
    rows = [",".join(format(float(v), ".17g") for v in row) for row in points]
    return _write(path, header + "\n" + "\n".join(rows) + "\n")


def read_points(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def blob_points(seed: int, n: int = 2048, k: int = 8, dim: int = 3) -> np.ndarray:
    """n points in k Gaussian blobs (unit spread, centres ~ N(0, 4^2 I))."""
    rng = np.random.default_rng([seed, n, k, dim])
    centers = 4.0 * rng.normal(size=(k, dim))
    labels = np.repeat(np.arange(k), n // k)
    return centers[labels] + rng.normal(size=(labels.size, dim))


K4_REPS = 4
K4_NS = (64, 256)
DEMO_NS = (64, 128, 256)
DEMO_REPS = 25


def setup_risk_k4(seed: int, work: Path, root: Path) -> list[Op]:
    cfg = _write(work / "risk_k4.cfg", f"""\
[kernel]
family = gaussian
bandwidth = 1.0

[nystrom]
c_scale = 1.0
delta = 0.1

[sweep]
n_values = {", ".join(map(str, K4_NS))}
k_values = 4
methods = exact, nystrom
reps = {K4_REPS}
m_mode = general

[run]
master_seed = {seed}
workers = 1
""")
    return [Op("risk-scan", ("risk-scan", "--config", str(cfg)), exits=(0, 1))]


def setup_risk_demo(seed: int, work: Path, root: Path) -> list[Op]:
    # the shipped config, unchanged; the seed only overrides its master seed
    cfg = root / "demos" / "risk_scan.cfg"
    return [Op("risk-scan", ("risk-scan", "--config", str(cfg), "--seed", str(seed)),
               exits=(0, 1))]


CLUSTER_N = 2048
CLUSTER_K = 8
NYSTROM_DELTA = 0.1


def setup_cluster(seed: int, work: Path, root: Path) -> list[Op]:
    points = _write_points(work / "points.csv", blob_points(seed, CLUSTER_N, CLUSTER_K))
    cfg = _write(work / "cluster.cfg", f"""\
[kernel]
family = gaussian
bandwidth = 1.0

[data]
source = csv
path = {points}

[cluster]
k = {CLUSTER_K}
restarts = 10

[nystrom]
mode = general
c_scale = 1.0
delta = {NYSTROM_DELTA}

[run]
master_seed = {seed}
workers = 1
""")
    common = ("--config", str(cfg))
    return [
        Op("spectrum", ("spectrum", *common)),
        Op("nystrom-embed", ("nystrom-embed", *common)),
        Op("cluster-lloyd", ("cluster", *common, "--method", "lloyd")),
        Op("cluster-nystrom", ("cluster", *common, "--method", "nystrom")),
    ]


RAD_GRID = ((2, 20), (4, 20), (5, 20), (4, 24))
RAD_TRIALS = 10_000
ERM_N = 12
ERM_K = 4


def setup_enumeration(seed: int, work: Path, root: Path) -> list[Op]:
    _write_points(work / "erm_points.csv",
                  np.random.default_rng([seed, ERM_N]).normal(size=(ERM_N, 3)))
    cfg = _write(work / "rad.cfg", f"""\
[lab]
trials = {RAD_TRIALS}
grid = {", ".join(f"{k}x{n}" for k, n in RAD_GRID)}

[run]
master_seed = {seed}
workers = 1
""")
    return [
        Op("rad-check", ("rad-check", "--config", str(cfg)), exits=(0, 1)),
        Op("brute_force_erm"),
    ]


def library_call(kkmlab, work: Path):
    """The enumeration workload's library op: exact ERM on a 12-point Gram.

    The Gram matrix is input, built at set-up.  The returned callable writes
    the result as the op's output file.
    """
    K = kkmlab.gram_matrix(kkmlab.KernelSpec("gaussian", bandwidth=1.0),
                           read_points(work / "erm_points.csv"))

    def call(out_dir: Path) -> int:
        assignment, cost = kkmlab.brute_force_erm(K, ERM_K)
        labels = " ".join(str(int(v)) for v in assignment.labels)
        _write(out_dir / "result.txt", f"cost: {cost!r}\nlabels: {labels}\n")
        return 0

    return call


# --------------------------------------------------------------------------
# comparing outputs with references

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _close(got: str, want: str) -> bool:
    if got == want:
        return True
    if not any(c in got + want for c in ".eE"):
        return False  # two integers
    g, w = float(got), float(want)
    return abs(g - w) <= ATOL + RTOL * abs(w)


def diff_line(got: str, want: str) -> bool:
    """True when two lines differ beyond the numeric tolerance."""
    if got == want:
        return False
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return True
    for i, (a, b) in enumerate(zip(g, w)):
        if (i % 2 == 0 and a != b) or (i % 2 == 1 and not _close(a, b)):
            return True
    return False


def _column_sums(lines: list[str]) -> list[list[float]]:
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return [table.sum(axis=0).tolist(), np.abs(table).sum(axis=0).tolist()]


def snapshot(text: str):
    """What a reference stores of one output: the text, or a sample of a large CSV."""
    if len(text) <= FULL_TEXT_LIMIT:
        return text
    lines = text.splitlines()
    return {
        "lines": len(lines),
        "sample": {str(i): lines[i] for i in range(0, len(lines), SAMPLE_EVERY)},
        "column_sums": _column_sums(lines),
    }


def compare(got: str, want) -> str | None:
    """First difference between an output and its reference snapshot, or None."""
    lines = got.splitlines()
    if isinstance(want, str):
        want_lines = want.splitlines()
        if len(lines) != len(want_lines):
            return f"{len(lines)} lines, reference has {len(want_lines)}"
        for i, (a, b) in enumerate(zip(lines, want_lines)):
            if diff_line(a, b):
                return f"line {i + 1} differs: {a[:120]!r} vs {b[:120]!r}"
        return None
    if len(lines) != want["lines"]:
        return f"{len(lines)} lines, reference has {want['lines']}"
    for i, line in want["sample"].items():
        if diff_line(lines[int(i)], line):
            return f"line {int(i) + 1} differs from the reference"
    (sums, abs_sums), (want_sums, want_abs) = _column_sums(lines), want["column_sums"]
    for j, (s, w, a) in enumerate(zip(sums, want_sums, want_abs)):
        if abs(s - w) > ATOL * want["lines"] + RTOL * a:
            return f"column {j} sums to {s!r}, reference {w!r}"
    return None


def compare_with_reference(outputs: dict, reference: dict) -> dict[str, list[str]]:
    problems = {}
    for op, files in reference["ops"].items():
        got = outputs.get(op, {})
        found = []
        if outputs["_exit"].get(op) != reference["exit"][op]:
            found.append(f"exit {outputs['_exit'].get(op)}, reference {reference['exit'][op]}")
        for name, want in files.items():
            if name not in got:
                found.append(f"{name} missing")
            elif (msg := compare(got[name], want)) is not None:
                found.append(f"{name}: {msg} (reference seed {reference['seed']})")
        problems[op] = found
    return problems


# --------------------------------------------------------------------------
# invariant checks, valid at every seed


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _near(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-10) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)


class _Checks:
    """Collects problems per op; a failed expectation never raises."""

    def __init__(self, ops):
        self.problems = {op: [] for op in ops}

    def expect(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.problems[op].append(message)
        return ok


REPORT_HEADER = (
    "n,k,method,m_used,reps,mean_empirical_risk,mean_population_risk,"
    "optimal_risk,optimal_exact,mean_excess_risk,std_error,mean_generalization_gap"
)
_OVERLAP = re.compile(
    r"exact_vs_nystrom: (\d+)/(\d+) cells overlap \(2 std_error bands\) -> (consistent|violated)$"
)
_ALPHA = re.compile(r"alpha_n\[(exact_erm_approx|nystrom),k=2\](?: = \S+ \+- \S+|: not fitted \(.*\))$")


def _check_risk_scan(outputs, reference, ns, k, reps, expect_alpha):
    op = "risk-scan"
    c = _Checks([op])
    files = outputs.get(op, {})
    if not c.expect(op, "report.csv" in files and "summary.txt" in files,
                    "report.csv or summary.txt missing"):
        return c.problems
    header, rows = _csv(files["report.csv"])
    c.expect(op, ",".join(header) == REPORT_HEADER, "report.csv header changed")
    grid = [(n, method) for n in ns for method in ("exact_erm_approx", "nystrom")]
    if not c.expect(op, [(r[0], r[1], r[2]) for r in rows]
                    == [(str(n), str(k), m) for n, m in grid],
                    "report.csv rows are not the configured grid"):
        return c.problems
    # the optimal risk depends on the distribution only, never on the seed
    _, ref_rows = _csv(reference["ops"][op]["report.csv"])
    for row, ref in zip(rows, ref_rows):
        n, method = int(row[0]), row[2]
        m_used, emp, pop, opt, excess, se, gap = (
            float(row[i]) for i in (3, 5, 6, 7, 9, 10, 11))
        where = f"cell n={n} {method}"
        c.expect(op, row[4] == str(reps), f"{where}: reps {row[4]} != {reps}")
        c.expect(op, row[8] == ref[8] and _near(opt, float(ref[7]), RTOL, ATOL),
                 f"{where}: optimal risk {row[7]} (exact={row[8]}) differs from "
                 f"{ref[7]} (exact={ref[8]})")
        c.expect(op, _near(excess, pop - opt, 1e-9, 1e-11), f"{where}: excess != pop - opt")
        c.expect(op, _near(gap, pop - emp, 1e-9, 1e-11), f"{where}: gap != pop - emp")
        c.expect(op, se >= 0.0 and emp >= 0.0, f"{where}: negative risk or std error")
        if row[8] == "1":
            c.expect(op, pop >= opt - 1e-9, f"{where}: population risk below the optimum")
        if method == "nystrom":
            c.expect(op, 1.0 <= m_used <= n, f"{where}: m_used {m_used} outside [1, {n}]")
        else:
            c.expect(op, m_used == 0.0, f"{where}: m_used {m_used} != 0")
    summary = files["summary.txt"].splitlines()
    alpha = [line for line in summary if line.startswith("alpha_n")]
    overlap = [_OVERLAP.match(line) for line in summary if line.startswith("exact_vs_nystrom")]
    c.expect(op, len(alpha) == (2 if expect_alpha else 0)
             and all(_ALPHA.match(line) for line in alpha), "unexpected alpha_n lines")
    if c.expect(op, len(overlap) == 1 and overlap[0] is not None,
                "exact_vs_nystrom verdict line missing or malformed"):
        verdict = overlap[0].group(3)
        c.expect(op, int(overlap[0].group(2)) == len(ns), "wrong number of paired cells")
        c.expect(op, outputs["_exit"][op] == (1 if verdict == "violated" else 0),
                 f"exit {outputs['_exit'][op]} does not match verdict {verdict}")
    c.expect(op, files.get("stdout") == files["summary.txt"], "stdout is not the summary")
    return c.problems


def check_risk_k4(outputs, reference, work):
    return _check_risk_scan(outputs, reference, K4_NS, 4, K4_REPS, expect_alpha=False)


def check_risk_demo(outputs, reference, work):
    return _check_risk_scan(outputs, reference, DEMO_NS, 2, DEMO_REPS, expect_alpha=True)


def _gaussian_rows(X: np.ndarray, rows: slice, bandwidth: float = 1.0) -> np.ndarray:
    d2 = np.sum((X[rows, None, :] - X[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * bandwidth**2))


def kernel_kmeans_cost(X: np.ndarray, labels: np.ndarray, k: int, chunk: int = 256) -> float:
    """Mean squared feature-space distance to the cluster means (Gaussian, h=1),
    accumulated over row blocks so no n x n matrix is held."""
    n = X.shape[0]
    onehot = (labels[:, None] == np.arange(k)[None, :]).astype(float)
    sizes = onehot.sum(axis=0)
    within = np.zeros(k)
    for start in range(0, n, chunk):
        block = slice(start, min(start + chunk, n))
        within += np.einsum("ik,ik->k", _gaussian_rows(X, block) @ onehot, onehot[block])
    return float((n - np.sum(within / sizes)) / n)  # Gaussian kernel: K_ii = 1


def _landmark_budget(n: int, k: int, xi: float, mode: str) -> int:
    base = math.sqrt(n) * math.log(1.0 / NYSTROM_DELTA)
    raw = base if mode == "eigendecay" else base * min(k, xi) / (
        math.sqrt(k) if mode == "general" else k)
    return int(min(max(math.ceil(raw), 1), n))


def _summary(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def check_cluster(outputs, reference, work):
    ops = ["spectrum", "nystrom-embed", "cluster-lloyd", "cluster-nystrom"]
    c = _Checks(ops)
    X = read_points(work / "points.csv")
    n, k = X.shape[0], CLUSTER_K

    m_general = None
    files = outputs.get("spectrum", {})
    if c.expect("spectrum", "spectrum.csv" in files, "spectrum.csv missing"):
        header, rows = _csv(files["spectrum.csv"])
        vals = np.array([float(r[1]) for r in rows])
        c.expect("spectrum", header == ["index", "eigenvalue"] and len(rows) == n
                 and [r[0] for r in rows] == [str(i) for i in range(n)], "bad spectrum.csv shape")
        c.expect("spectrum", bool(np.all(vals >= 0) and np.all(np.diff(vals) <= 0)),
                 "eigenvalues are not nonnegative and nonincreasing")
        c.expect("spectrum", _near(vals.sum(), float(n), 1e-8), "eigenvalues do not sum to trace K")
        out = files.get("stdout", "").splitlines()
        xi = float(np.sum(vals / (vals + 1.0)))
        head = re.fullmatch(r"n=(\d+) k=(\d+) effective_dimension=(\S+)", out[0]) if out else None
        if c.expect("spectrum", head is not None and len(out) == 6, "unexpected stdout layout"):
            c.expect("spectrum", (int(head[1]), int(head[2])) == (n, k)
                     and _near(float(head[3]), xi, 1e-9), "effective dimension is wrong")
            c.expect("spectrum", out[1] == "eigenvalues: " + ",".join(r[1] for r in rows),
                     "printed eigenvalues differ from spectrum.csv")
            table = [f"{mode},{_landmark_budget(n, k, xi, mode)}"
                     for mode in ("general", "eigendecay", "linear_k")]
            c.expect("spectrum", out[2:] == ["mode,m", *table], "landmark table is wrong")
            m_general = _landmark_budget(n, k, xi, "general")

    files = outputs.get("nystrom-embed", {})
    if c.expect("nystrom-embed", "embedded.csv" in files, "embedded.csv missing"):
        header, rows = _csv(files["embedded.csv"])
        m = len(header) - 1
        c.expect("nystrom-embed", header == [f"z{j}" for j in range(m)] + ["residual"]
                 and len(rows) == n, "bad embedded.csv shape")
        c.expect("nystrom-embed", m_general is None or m == m_general,
                 f"embedding uses m={m}, the general budget is {m_general}")
        table = np.array(rows, dtype=float)
        resid = table[:, -1]
        c.expect("nystrom-embed", bool(np.all(resid >= 0)), "negative residual")
        # projection plus residual recovers the feature norm K_ii = 1
        c.expect("nystrom-embed", bool(np.allclose(np.sum(table[:, :-1] ** 2, axis=1) + resid,
                                                   1.0, rtol=0, atol=1e-8)),
                 "|z|^2 + residual != K_ii")
        line = re.fullmatch(r"nystrom-embed: n=(\d+) m=(\d+) rank=(\d+) mean_residual=(\S+)",
                            files.get("stdout", "").strip())
        c.expect("nystrom-embed", line is not None and (int(line[1]), int(line[2])) == (n, m)
                 and 1 <= int(line[3]) <= m and _near(float(line[4]), resid.mean(), 1e-9, 1e-11),
                 "stdout does not describe the embedding")

    for op, method in (("cluster-lloyd", "lloyd"), ("cluster-nystrom", "nystrom")):
        files = outputs.get(op, {})
        if not c.expect(op, {"assignment.csv", "trace.csv", "summary.txt"} <= files.keys(),
                        "assignment.csv, trace.csv or summary.txt missing"):
            continue
        header, rows = _csv(files["assignment.csv"])
        labels = np.array([int(r[1]) for r in rows])
        c.expect(op, header == ["point_index", "cluster_id"] and len(rows) == n
                 and [r[0] for r in rows] == [str(i) for i in range(n)], "bad assignment.csv")
        if not c.expect(op, set(labels.tolist()) == set(range(k)), "not every cluster is used"):
            continue
        _, trace = _csv(files["trace.csv"])
        costs = np.array([float(r[1]) for r in trace])
        s = _summary(files["summary.txt"])
        c.expect(op, (s.get("method"), s.get("n"), s.get("k")) == (method, str(n), str(k)),
                 "summary names the wrong run")
        c.expect(op, s.get("iterations") == str(len(costs) - 1) and s.get("converged") == "True",
                 "summary iterations or convergence disagree with trace.csv")
        c.expect(op, _near(float(s.get("final_cost", "nan")), costs[-1], 1e-11, 1e-12),
                 "final_cost is not the last trace cost")
        c.expect(op, bool(np.all(np.diff(costs) <= 1e-12)), "Lloyd cost increased")
        true_cost = kernel_kmeans_cost(X, labels, k)
        if method == "lloyd":
            c.expect(op, _near(costs[-1], true_cost, 1e-8, 1e-10),
                     f"final cost {costs[-1]} is not the assignment's cost {true_cost}")
        else:
            # centres restricted to the landmark span cost at least the exact means
            c.expect(op, costs[-1] >= true_cost - 1e-9,
                     "in-space cost is below the exact cost of its assignment")
            c.expect(op, m_general is None or s.get("m") == str(m_general),
                     f"clusters with m={s.get('m')}, the general budget is {m_general}")
    return c.problems


_RAD_ROW = "k,n,estimator,value,std_error,trials,bound,verdict"


def check_enumeration(outputs, reference, work):
    c = _Checks(["rad-check", "brute_force_erm"])
    op = "rad-check"
    files = outputs.get(op, {})
    if c.expect(op, "rad_check.csv" in files, "rad_check.csv missing"):
        header, rows = _csv(files["rad_check.csv"])
        want_cells = [(str(k), str(n), e) for k, n in RAD_GRID
                      for e in ("finite_class", "coordinate", "khintchine")]
        c.expect(op, ",".join(header) == _RAD_ROW
                 and [tuple(r[:3]) for r in rows] == want_cells, "rad_check.csv rows changed")
        _, ref_rows = _csv(reference["ops"][op]["rad_check.csv"])
        violated = False
        for row, ref in zip(rows, ref_rows):
            k, n, est = int(row[0]), int(row[1]), row[2]
            value, se, trials, bound = float(row[3]), float(row[4]), int(row[5]), float(row[6])
            where = f"cell {k}x{n} {est}"
            exact = est == "khintchine" or n <= 20
            if exact:  # exact cells do not depend on the seed
                c.expect(op, not diff_line(",".join(row), ",".join(ref)),
                         f"{where}: {','.join(row)} differs from {','.join(ref)}")
            else:
                c.expect(op, trials == RAD_TRIALS and se > 0, f"{where}: not a Monte Carlo row")
            want_bound = {"finite_class": math.sqrt(k * n / 2.0), "coordinate": 3.0 * math.sqrt(n),
                          "khintchine": math.sqrt((n // k) / 8.0)}[est]
            c.expect(op, _near(bound, want_bound, 1e-11), f"{where}: bound {bound} != {want_bound}")
            ok = {"finite_class": value >= bound - 3.0 * se,
                  "coordinate": value <= bound + 3.0 * se, "khintchine": value >= bound}[est]
            c.expect(op, row[7] == ("satisfied" if ok else "violated"), f"{where}: wrong verdict")
            violated = violated or row[7] == "violated"
        c.expect(op, outputs["_exit"][op] == int(violated), "exit code does not match the verdicts")
        printed = [line for line in files.get("stdout", "").splitlines() if not line.startswith("#")]
        c.expect(op, printed == files["rad_check.csv"].splitlines(), "stdout table != rad_check.csv")

    op = "brute_force_erm"
    text = outputs.get(op, {}).get("result.txt", "")
    found = re.fullmatch(r"cost: (\S+)\nlabels: ([0-9 ]+)\n", text)
    if c.expect(op, found is not None, "result.txt missing or malformed"):
        cost, labels = float(found[1]), np.array(found[2].split(), dtype=int)
        X = read_points(work / "erm_points.csv")
        if c.expect(op, labels.size == ERM_N and set(labels.tolist()) == set(range(ERM_K)),
                    "labels are not a partition into k nonempty blocks"):
            c.expect(op, _near(cost, kernel_kmeans_cost(X, labels, ERM_K), 1e-9, 1e-12),
                     "returned cost is not the cost of the returned partition")
            # a global minimiser admits no improving single-point move
            for i in range(ERM_N):
                for j in range(ERM_K):
                    moved = labels.copy()
                    moved[i] = j
                    if j != labels[i] and len(set(moved.tolist())) == ERM_K:
                        if kernel_kmeans_cost(X, moved, ERM_K) < cost - 1e-12:
                            c.expect(op, False, f"moving point {i} to block {j} lowers the cost")
    return c.problems


WORKLOADS = {
    "risk-surrogate-k4": Workload(setup_risk_k4, check_risk_k4),
    "risk-scan-demo": Workload(setup_risk_demo, check_risk_demo),
    "cluster-n2048": Workload(setup_cluster, check_cluster),
    "enumeration": Workload(setup_enumeration, check_enumeration),
}
