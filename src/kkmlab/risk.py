"""Excess-clustering-risk experiments on finite-support distributions.

Making the data distribution finite-support (atoms plus weights) keeps every
population quantity exactly computable: fitted centers always lie in the
span of the sampled points, hence in the span of the atoms, so their
population risk reduces to algebra on the atom Gram matrix.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property

import numpy as np

from ._common import as_points, ensure_rng, fmt12
from .clustering import (
    _SEARCH_MAX_K,
    _SEARCH_MAX_N,
    Assignment,
    _cluster_linkage,
    _lloyd,
    _onehot,
    _partition_search,
    _point_center_dists,
    brute_force_erm,
)
from .errors import (
    CoefficientDimensionMismatch,
    KTooSmall,
    NonFiniteInput,
    NonPositiveRisk,
    SingularLandmarkBlockWarning,
)
from .kernels import GramMatrix, KernelSpec, _cost_margin, capped_effective_dimension, gram_matrix
from .nystrom import (
    _euclidean_kmeanspp,
    _euclidean_lloyd,
    landmark_coefficients,
    landmark_size,
    nystrom_embed,
    sample_landmarks_uniform,
)
from .seeding import _erm_runs, approximate_erm

__all__ = [
    "DistributionSpec",
    "OptimalRisk",
    "MPolicy",
    "CellRecord",
    "RiskReport",
    "BetaRatioSummary",
    "population_risk",
    "optimal_risk",
    "run_cell",
    "scaling_fit",
    "exact_vs_nystrom",
    "beta_ratio_study",
    "standard_benchmark",
]

METHODS = ("exact_erm_approx", "nystrom", "approx_erm")
# the names a config's [sweep] methods may use for them
METHOD_ALIASES = {"exact": "exact_erm_approx", "approx": "approx_erm", **{m: m for m in METHODS}}

_EXACT_ERM_RESTARTS = 20
_SURROGATE_RUNS = 200

# Geometry of the standard benchmark: per fitted cluster count k, k atom
# clouds of 6 atoms each on the unit sphere.  The spread is wide enough that
# several partitions of the atoms stay nearly tied, which keeps the empirical
# minimizer fluctuating at desk-scale sample sizes; seed and spread were
# fixed by calibration runs and are part of the benchmark definition.
BENCHMARK_SEED = 11
BENCHMARK_SPREAD = 1.0
BENCHMARK_DIM = 3
BENCHMARK_ATOMS_PER_CLOUD = 6


@dataclass(frozen=True)
class DistributionSpec:
    """Finite-support distribution: atoms, sampling weights, and the kernel
    under which all geometry is measured."""

    atoms: np.ndarray
    weights: np.ndarray
    kernel: KernelSpec
    generator_seed: int | None = None

    def __post_init__(self):
        atoms = as_points(self.atoms, "atoms")
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atoms and weights must align")
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):  # NaN fails
            raise ValueError("weights must be nonnegative and sum to 1")
        atoms = atoms.copy()
        weights = weights.copy()
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if np.any(self.gram.diag > 1.0 + 1e-9):
            raise ValueError("atom feature norms must not exceed 1 under the kernel")

    @cached_property
    def gram(self) -> GramMatrix:
        return gram_matrix(self.kernel, self.atoms)

    @cached_property
    def _optimal_risks(self) -> dict:
        """``optimal_risk`` results by (k, surrogate_runs), filled on demand."""
        return {}

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True)
class OptimalRisk:
    """Optimal population risk; ``exact`` is False when the value came from
    a seeded multi-restart search instead of partition enumeration."""

    value: float
    exact: bool


@dataclass(frozen=True)
class MPolicy:
    """How the landmark count is chosen per cell: a fixed m, or one of the
    landmark_size modes evaluated on each rep's sample."""

    MODES = ("fixed", "general", "eigendecay", "linear_k")

    mode: str = "general"
    m: int | None = None
    c_scale: float = 1.0
    delta: float = 0.1

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown m policy mode {self.mode!r}")
        if self.mode == "fixed" and (self.m is None or self.m < 1):
            raise ValueError(f"fixed m policy needs m >= 1, got {self.m}")

    def describe(self) -> str:
        if self.mode == "fixed":
            return f"fixed:{self.m}"
        return f"{self.mode}:c={fmt12(self.c_scale)}:d={fmt12(self.delta)}"

    def landmarks_for(self, K: GramMatrix, n: int, k: int) -> int:
        if self.mode == "fixed":
            return int(min(self.m, n))
        xi = None
        if self.mode in ("general", "linear_k"):
            # landmark_size reads only min(k, xi)
            xi = capped_effective_dimension(K, k)
        return landmark_size(n, k, self.delta, xi=xi, mode=self.mode, c_scale=self.c_scale)


@dataclass(frozen=True)
class CellRecord:
    n: int
    k: int
    method: str
    m_used: float
    reps: int
    mean_empirical_risk: float
    mean_population_risk: float
    optimal_risk: float
    optimal_exact: bool
    mean_excess_risk: float
    std_error: float
    mean_generalization_gap: float


@dataclass
class RiskReport:
    """Grid of cell records."""

    cells: list[CellRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """A header of ``CellRecord``'s fields and a row per cell: floats as
        ``fmt12`` writes them, the exactness flag as 0 or 1."""
        lines = [",".join(f.name for f in fields(CellRecord))]
        for c in self.cells:
            values = (fmt12(v) if isinstance(v, float) else str(int(v) if isinstance(v, bool) else v)
                      for v in astuple(c))
            lines.append(",".join(values))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class BetaRatioSummary:
    max: float
    mean: float
    p95: float
    ratios: np.ndarray


def population_risk(P: DistributionSpec, centers) -> float:
    """Exact expected squared distance to the nearest center.

    ``centers`` is a (k, n_atoms) matrix of coefficient vectors over the
    atoms; center j is sum_a centers[j, a] * phi(atom_a).
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != P.n_atoms:
        raise CoefficientDimensionMismatch(
            f"centers must be (k, {P.n_atoms}), got {centers.shape}"
        )
    if not np.all(np.isfinite(centers)):
        raise NonFiniteInput("non-finite values in centers")
    K = P.gram
    cross = K.entries @ centers.T
    quad = np.einsum("ki,ij,kj->k", centers, K.entries, centers)
    D = K.diag[:, None] - 2.0 * cross + quad[None, :]
    np.clip(D, 0.0, None, out=D)
    return float(P.weights @ D.min(axis=1))


def _weighted_partition_costs(K: np.ndarray, w: np.ndarray, chunk: np.ndarray, k: int) -> np.ndarray:
    _, T, Wc = _cluster_linkage(K, chunk, k, w)
    # a weightless block's T is 0: it adds 0, as in the search's screen
    return float(w @ np.diagonal(K)) - np.sum(T / np.where(Wc > 0, Wc, 1.0), axis=1)


def _weighted_mean_centers(w: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, N) coefficient rows for weighted cluster means; empty clusters get
    the origin (coefficients all zero)."""
    centers = np.zeros((k, w.size))
    for j in range(k):
        members = labels == j
        wj = w[members].sum()
        if wj > 0:
            centers[j, members] = w[members] / wj
    return centers


def optimal_risk(P: DistributionSpec, k: int, surrogate_runs: int = _SURROGATE_RUNS) -> OptimalRisk:
    """Optimal clustering risk of the distribution.

    Exact when the atom count is at most 12 and k at most 4, by the pruned
    weighted partition search (optimal centers are weighted cluster means).
    Otherwise a surrogate: the best population risk over ``surrogate_runs``
    seeded approximate fits on the atom set, each polished by a
    weight-aware Lloyd pass.

    The result is cached on the ``DistributionSpec`` instance per
    (k, surrogate_runs), so repeated calls with the same ``P`` compute it
    once; an equal but separately built distribution computes it again.
    """
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if surrogate_runs < 1:
        raise ValueError(f"surrogate_runs must be >= 1, got {surrogate_runs}")
    key = (k, surrogate_runs)
    if key not in P._optimal_risks:
        P._optimal_risks[key] = _compute_optimal_risk(P, k, surrogate_runs)
    return P._optimal_risks[key]


def _compute_optimal_risk(P: DistributionSpec, k: int, surrogate_runs: int) -> OptimalRisk:
    N, K, w = P.n_atoms, P.gram, P.weights
    if k >= N:
        return OptimalRisk(value=0.0, exact=True)
    m = 2.0 * _cost_margin(K)  # bounds a weighted cost's rounding, as _partition_search derives
    if N <= _SEARCH_MAX_N and k <= _SEARCH_MAX_K:
        _, best = _partition_search(
            K.entries, w, k, lambda rows: _weighted_partition_costs(K.entries, w, rows, k), 2.0 * m)
        return OptimalRisk(value=max(best, 0.0), exact=True)

    seed_base = 0 if P.generator_seed is None else int(P.generator_seed)
    fits = {}  # the polish is deterministic: each distinct fit is polished once
    rngs = [np.random.default_rng([seed_base, 0x5EED, k, run]) for run in range(surrogate_runs)]
    for a, _, _ in _erm_runs(K, k, rngs):
        fits.setdefault(a.labels.tobytes(), a.labels)

    def fit(labels):  # Lloyd in the weighted geometry: weighted costs and means
        return _weighted_partition_costs(K.entries, w, labels, k), lambda rows: _point_center_dists(
            K, *_cluster_linkage(K.entries, labels[rows], k, w))

    best = np.inf
    for a, _ in _lloyd([Assignment.from_labels(labels, k) for labels in fits.values()],
                       fit, 100, 0.0, lambda: m):
        best = min(best, population_risk(P, _weighted_mean_centers(w, a.labels, k)))
    return OptimalRisk(value=max(best, 0.0), exact=False)


def _cell_tag(n: int, k: int, method: str, policy: MPolicy) -> int:
    return zlib.crc32(f"{n}|{k}|{method}|{policy.describe()}".encode())


def _sample_centers_to_atoms(gamma_sample: np.ndarray, sample_atoms: np.ndarray, n_atoms: int) -> np.ndarray:
    """Re-express (k, n_sample) coefficients over sample points as
    coefficients over atoms, merging repeated draws of the same atom."""
    out = np.zeros((gamma_sample.shape[0], n_atoms))
    np.add.at(out.T, sample_atoms, gamma_sample.T)
    return out


def _fit_once(K: GramMatrix, k: int, method: str, policy: MPolicy, rng):
    """Fit one sample with the requested method.

    Returns (empirical_cost, sample_coefficients, m_used) where the
    coefficients are (k, n) over the sample points.
    """
    n = K.n
    if method in ("exact_erm_approx", "approx_erm"):
        restarts = _EXACT_ERM_RESTARTS if method == "exact_erm_approx" else 1
        fits = _erm_runs(K, k, [rng] * restarts)
        # ties go to the earliest restart: min keeps the first of equal keys
        a, trace, _ = min(fits, key=lambda fit: float(fit[1].per_iteration_cost[-1]))
        G, sizes = _onehot(a.labels, k)
        return float(trace.per_iteration_cost[-1]), (G / sizes).T, 0.0

    if method == "nystrom":
        m = policy.landmarks_for(K, n, k)
        L = sample_landmarks_uniform(n, m, rng)
        with warnings.catch_warnings():
            # resampling a finite-support distribution duplicates atoms, so a
            # rank-deficient landmark block is the expected case here
            warnings.simplefilter("ignore", SingularLandmarkBlockWarning)
            emb = nystrom_embed(K, L)
        resid = float(np.mean(emb.residuals))
        # Lloyd is deterministic and draws nothing: each distinct start runs once
        starts = {s.tobytes(): s for s in _euclidean_kmeanspp(emb.coords, k, rng, _EXACT_ERM_RESTARTS)}
        fits = _euclidean_lloyd(emb.coords, [Assignment.from_labels(s, k) for s in starts.values()])
        a, trace = min(fits, key=lambda fit: float(fit[1].per_iteration_cost[-1]) + resid)
        beta = landmark_coefficients(emb, a)  # (k, m) over landmark positions
        gamma = np.zeros((k, n))
        np.add.at(gamma.T, L.indices, beta.T)
        return float(trace.per_iteration_cost[-1]) + resid, gamma, float(m)

    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def run_cell(
    P: DistributionSpec,
    n: int,
    k: int,
    method: str,
    m_policy: MPolicy | None = None,
    reps: int = 50,
    master_seed: int = 0,
) -> CellRecord:
    """Monte Carlo estimate of one (n, k, method) cell.

    Each rep draws n atoms i.i.d. by weight, fits with the method, and
    evaluates the fitted centers' population risk exactly.  The per-rep RNG
    is derived from (master_seed, cell tag, rep index), so records are
    bit-identical across reruns.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    policy = m_policy if m_policy is not None else MPolicy()
    opt = optimal_risk(P, k)
    tag = _cell_tag(n, k, method, policy)

    results = []
    for rep in range(reps):
        rng = np.random.default_rng([master_seed, tag, rep])
        sample_atoms = rng.choice(P.n_atoms, size=n, p=P.weights)
        K = gram_matrix(P.kernel, P.atoms[sample_atoms])
        emp, gamma_sample, m_used = _fit_once(K, k, method, policy, rng)
        gamma = _sample_centers_to_atoms(gamma_sample, sample_atoms, P.n_atoms)
        results.append((emp, population_risk(P, gamma), m_used))
    emps = np.array([r[0] for r in results])
    pops = np.array([r[1] for r in results])
    ms = np.array([r[2] for r in results])
    mean_pop = float(pops.mean())
    se = float(pops.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return CellRecord(
        n=n,
        k=k,
        method=method,
        m_used=float(ms.mean()),
        reps=reps,
        mean_empirical_risk=float(emps.mean()),
        mean_population_risk=mean_pop,
        optimal_risk=opt.value,
        optimal_exact=opt.exact,
        mean_excess_risk=mean_pop - opt.value,
        std_error=se,
        mean_generalization_gap=float((pops - emps).mean()),
    )


def scaling_fit(report, axis: str, method: str | None = None,
                k: int | None = None, n: int | None = None):
    """Least-squares slope of log excess risk against log n or log k.

    Cells with nonpositive excess risk are excluded with a warning; at least
    three must remain.  Returns (exponent, half_width) with the half width
    twice the slope's standard error.
    """
    if axis not in ("n", "k"):
        raise ValueError("axis must be 'n' or 'k'")
    cells = report.cells if isinstance(report, RiskReport) else list(report)
    if method is not None:
        cells = [c for c in cells if c.method == method]
    if k is not None:
        cells = [c for c in cells if c.k == k]
    if n is not None:
        cells = [c for c in cells if c.n == n]

    pts = []
    for c in cells:
        if c.mean_excess_risk > 0:
            pts.append((getattr(c, axis), c.mean_excess_risk))
        else:
            warnings.warn(
                f"cell (n={c.n}, k={c.k}, {c.method}) has nonpositive excess "
                "risk and is excluded from the fit",
                stacklevel=2,
            )
    if len(pts) < 3:
        raise NonPositiveRisk(f"need >= 3 positive-excess cells, have {len(pts)}")

    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(pts) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return float(slope), 2.0 * se


def exact_vs_nystrom(report, n_values, k_values):
    """The verdict on a sweep of both methods over the (n, k) grid, as its
    summary line and exit status (1 when violated): consistent when in 80% of
    the cells the excess risks differ by at most their 2 std_error bands."""
    by_key = {(c.n, c.k, c.method): c for c in report.cells}
    pairs = [(by_key[n, k, "exact_erm_approx"], by_key[n, k, "nystrom"])
             for k in k_values for n in n_values]
    if any(c.reps < 2 for pair in pairs for c in pair):
        raise ValueError("every cell needs reps >= 2: one rep has no std_error band")
    overlapping = sum(abs(e.mean_excess_risk - v.mean_excess_risk)
                      <= 2.0 * e.std_error + 2.0 * v.std_error for e, v in pairs)
    verdict = "consistent" if overlapping / len(pairs) >= 0.8 else "violated"
    return (f"exact_vs_nystrom: {overlapping}/{len(pairs)} cells overlap "
            f"(2 std_error bands) -> {verdict}"), int(verdict == "violated")


def beta_ratio_study(
    P: DistributionSpec,
    instances: int,
    rng=None,
    k: int | None = None,
) -> BetaRatioSummary:
    """Cost ratio of the approximate solver against the exact minimizer over
    tiny sampled instances (n <= 8, k <= 3, so the denominator is exact).

    ``k`` fixes the cluster count; by default each instance draws k in
    {2, 3}.  Samples with fewer distinct points than clusters are redrawn,
    since no k-center solution exists for them.
    """
    rng = ensure_rng(rng)
    ratios = np.empty(instances)
    for i in range(instances):
        n = int(rng.integers(5, 9))
        ki = int(rng.integers(2, 4)) if k is None else k
        for _ in range(100):
            sample_atoms = rng.choice(P.n_atoms, size=n, p=P.weights)
            if np.unique(P.atoms[sample_atoms], axis=0).shape[0] >= ki:
                break
        K = gram_matrix(P.kernel, P.atoms[sample_atoms])
        _, denom = brute_force_erm(K, ki)
        _, trace, _ = approximate_erm(K, ki, rng=rng)
        num = float(trace.per_iteration_cost[-1])
        if denom < 1e-15:
            ratios[i] = 1.0 if num < 1e-12 else np.inf
        else:
            ratios[i] = num / denom
    return BetaRatioSummary(
        max=float(ratios.max()),
        mean=float(ratios.mean()),
        p95=float(np.percentile(ratios, 95)),
        ratios=ratios,
    )


def standard_benchmark(
    k: int,
    bandwidth: float = 1.0,
    seed: int = BENCHMARK_SEED,
    dim: int = BENCHMARK_DIM,
    atoms_per_cloud: int = BENCHMARK_ATOMS_PER_CLOUD,
    spread: float = BENCHMARK_SPREAD,
) -> DistributionSpec:
    """The benchmark family: k atom clouds of ``atoms_per_cloud`` atoms each
    on the unit sphere, uniform weights, Gaussian kernel."""
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    rng = np.random.default_rng([seed, k])
    centers = rng.normal(size=(k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    atoms = []
    for c in centers:
        pts = c[None, :] + spread * rng.normal(size=(atoms_per_cloud, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        atoms.append(pts)
    atoms = np.vstack(atoms)
    weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    return DistributionSpec(
        atoms=atoms,
        weights=weights,
        kernel=KernelSpec("gaussian", bandwidth=bandwidth),
        generator_seed=seed,
    )
