"""Kernel evaluation, Gram matrices, and spectral quantities.

The Gram matrix is the single geometry oracle for everything downstream:
clustering costs, landmark embeddings, and risk evaluation all reduce to
algebra on its entries.  Feature vectors are never materialized here; the
squared feature-space distance comes from the polarization identity

    ||phi_i - phi_j||^2 = K_ii - 2 K_ij + K_jj.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._common import as_points
from .errors import (
    InvalidDecayParams,
    NonFiniteInput,
    NormalizationViolated,
    SpectralFailure,
)

__all__ = [
    "KernelSpec",
    "GramMatrix",
    "Spectrum",
    "gram_matrix",
    "spectrum_of",
    "effective_dimension",
    "capped_effective_dimension",
    "eigendecay_xi_bound",
]

_FAMILIES = ("gaussian", "linear", "polynomial")

# Relative margin by which the trace bound must clear the cap before the
# eigendecomposition is skipped; it absorbs rounding in the O(n^2) sums.
_XI_BOUND_MARGIN = 1e-9

# Gram rows the Gaussian passes work on at once: 64 rows of a few thousand
# points stay in cache from one pass to the next.
_GRAM_BLOCK_ROWS = 64


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its parameters.

    ``normalize`` asserts the unit-ball feature assumption kappa(x, x) <= 1:
    Gaussian kernels satisfy it automatically, linear and polynomial kernels
    are checked at Gram construction and rejected rather than rescaled, so
    the assumption stays auditable.
    """

    family: str = "gaussian"
    bandwidth: float = 1.0
    degree: int = 2
    offset: float = 0.0
    normalize: bool = False

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {', '.join(_FAMILIES)}, got {self.family}")
        if self.family == "gaussian" and not self.bandwidth > 0:
            raise ValueError("gaussian bandwidth must be positive")
        if self.family == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial degree must be an integer >= 1")
            if self.offset < 0:
                raise ValueError("polynomial offset must be nonnegative")


@dataclass(frozen=True)
class DistinctGram:
    """A Gram matrix on its distinct rows: row i is, bit for bit, row
    ``rep[groups[i]]``, which has ``sizes[groups[i]]`` copies; ``entries``
    and ``dists`` are the Gram and squared distances of the rows ``rep``, and
    ``trace`` that of the full Gram."""

    groups: np.ndarray
    rep: np.ndarray
    sizes: np.ndarray
    entries: np.ndarray
    dists: np.ndarray
    trace: float
    margin: float  # bounds |cost on these, copies as weights - cost on the full Gram|


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD kernel matrix with a cached diagonal, and the distinct
    input point of each row (``groups``) when known.

    Immutable after construction.
    """

    entries: np.ndarray
    diag: np.ndarray = field(repr=False)
    n: int
    groups: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_entries(cls, entries: np.ndarray, groups=None) -> "GramMatrix":
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("Gram matrix must be square")
        # exact symmetry so the stored matrix equals its transpose bitwise; the
        # check follows it, since entries past about 9e307 overflow in the sum
        with np.errstate(over="ignore", invalid="ignore"):
            entries = 0.5 * (entries + entries.T)
        if not np.all(np.isfinite(entries)):
            raise NonFiniteInput("Gram matrix entries are non-finite or overflow when symmetrized")
        if np.any(np.diagonal(entries) < 0):
            raise ValueError("Gram matrix diagonal has a negative entry, which no PSD matrix has")
        return cls._frozen(entries, groups)

    @classmethod
    def _frozen(cls, entries: np.ndarray, groups=None) -> "GramMatrix":
        """Wrap an exactly symmetric float matrix, which becomes read-only."""
        entries.setflags(write=False)
        diag = np.ascontiguousarray(np.diagonal(entries))
        diag.setflags(write=False)
        return cls(entries=entries, diag=diag, n=entries.shape[0], groups=groups)

    @cached_property
    def distinct(self) -> DistinctGram | None:
        """The Gram on the distinct rows, or None without groups or when more
        than half the rows are distinct."""
        if self.groups is None:
            return None
        _, first, groups = np.unique(self.groups, return_index=True, return_inverse=True)
        if 2 * len(first) > self.n:
            return None
        # a row that differs from its group's first row in any bit is a group of its own
        same = np.all(self.entries == self.entries[first[groups]], axis=1)
        key = np.where(same, groups, self.n + np.arange(self.n))
        _, rep, groups = np.unique(key, return_index=True, return_inverse=True)
        if 2 * len(rep) > self.n:
            return None
        entries = self.entries[np.ix_(rep, rep)]
        dists = np.clip(self.diag[rep, None] - 2.0 * entries + self.diag[rep], 0.0, None)
        sizes = np.bincount(groups).astype(float)
        trace = float(np.sum(self.diag))
        return DistinctGram(groups, rep, sizes, entries, dists, trace, _cost_margin(self))


def _cost_margin(K: GramMatrix) -> float:
    """``_rounding_margin`` with max|K| as the scale."""
    return _rounding_margin(K.n, max(float(K.entries.max()), -float(K.entries.min())))


def _rounding_margin(n: int, scale: float) -> float:
    """Bound on the gap between two floating-point evaluations of one
    labeling's mean-centroid cost on n points that sum in different orders,
    when no Gram entry exceeds ``scale`` in size (for coordinates z, max
    ||z_i||^2 bounds their linear kernel).

    Each evaluation is within gamma_{3n+4} scale of the exact cost, where
    gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1 and 4.2): a block's pair sum meets gamma_{2n}
    s_j^2 scale whether it is a Gram product or a running sum, and the
    division by s_j, the sum over blocks and the trace add the rest.  Four
    roundings more cover a threshold built on it.  NaN if ``scale`` is NaN.
    """
    m = (3 * n + 8) * 2.0**-53
    return 2.0 * m / (1.0 - m) * scale


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted nonincreasing, negatives clamped to zero."""

    eigenvalues: np.ndarray

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        vals = np.sort(np.asarray(values, dtype=float))[::-1]
        vals = np.clip(vals, 0.0, None)
        vals.setflags(write=False)
        return cls(eigenvalues=vals)


def _eigvalsh(entries: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralFailure(str(exc)) from exc


def gram_matrix(spec: KernelSpec, X) -> GramMatrix:
    """Build the n x n kernel matrix of a point set.

    ``X`` is an (n, d) array (a 1-d array is treated as n scalar points).
    With ``spec.normalize`` set, any point whose feature norm exceeds 1 is
    rejected with :class:`NormalizationViolated`; non-finite points, and
    kernel values that overflow, with :class:`NonFiniteInput`.

    The kernel is written in place over X X^T, so the build peaks at one
    n x n buffer plus a block of rows.  numpy computes X X^T with a symmetric
    rank-k update and mirrors one triangle into the other, and the kernel is
    elementwise in terms symmetric in (i, j), so K equals K^T bit for bit
    without a symmetrizing copy.
    """
    X = as_points(X, "X")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        K = X @ X.T
        if spec.family == "gaussian":
            sq = np.diagonal(K).copy()
            for s in range(0, len(K), _GRAM_BLOCK_ROWS):
                rows = slice(s, s + _GRAM_BLOCK_ROWS)
                blk = K[rows]  # a view: exp(-(sq_i + sq_j - 2 x_i.x_j) / 2h^2) overwrites it
                blk *= 2.0
                np.subtract(sq[rows, None] + sq[None, :], blk, out=blk)
                np.clip(blk, 0.0, None, out=blk)
                np.divide(blk, -2.0 * spec.bandwidth**2, out=blk)  # (-a) / c == a / (-c) exactly
                np.exp(blk, out=blk)
        elif spec.family == "polynomial":
            K += spec.offset
            K **= spec.degree
    if not (np.isfinite(K.min()) and np.isfinite(K.max())):  # no n x n temporary
        raise NonFiniteInput(f"the {spec.family} kernel overflows on these points")

    if spec.normalize and spec.family != "gaussian":
        if np.any(np.diagonal(K) > 1.0 + 1e-12):
            raise NormalizationViolated(
                "normalization flag set but some kappa(x, x) > 1"
            )
    return GramMatrix._frozen(K, np.unique(X, axis=0, return_inverse=True)[1])


def dists_to_points(K: GramMatrix, idx) -> np.ndarray:
    """All-points squared distances to a set of data points (n x len(idx))."""
    idx = np.asarray(idx, dtype=int)
    d = K.diag[:, None] - 2.0 * K.entries[:, idx] + K.diag[idx][None, :]
    return np.clip(d, 0.0, None)


def spectrum_of(K: GramMatrix) -> Spectrum:
    """Eigenvalue spectrum of a Gram matrix (clamped, nonincreasing)."""
    return Spectrum.from_values(_eigvalsh(K.entries))


def effective_dimension(K) -> float:
    """Trace of K (K + I)^{-1}, i.e. the sum of lambda / (lambda + 1).

    Accepts a :class:`GramMatrix` or an already-computed :class:`Spectrum`.
    Negative floating-point eigenvalues are clamped to zero first, since the
    exact matrix is PSD.
    """
    if isinstance(K, Spectrum):
        vals = K.eigenvalues
    else:
        vals = spectrum_of(K).eigenvalues
    return float(np.sum(vals / (vals + 1.0)))


def capped_effective_dimension(K: GramMatrix, cap: float) -> float:
    """``min(cap, effective_dimension(K))``, without the O(n^3)
    eigendecomposition when a lower bound on xi already exceeds ``cap``.

    Cauchy-Schwarz over the eigenvalues gives
    (sum lambda)^2 <= sum lambda / (lambda + 1) * sum lambda (lambda + 1), so
    xi >= tr(K)^2 / (||K||_F^2 + tr K), which takes O(n^2) to evaluate.
    Clamping negative eigenvalues only raises the bound, so it holds for any
    symmetric matrix with a positive trace.
    """
    tr = float(np.sum(K.diag))
    fro = float(np.einsum("ij,ij->", K.entries, K.entries))
    if tr > 0.0 and tr * tr > cap * (1.0 + _XI_BOUND_MARGIN) * (fro + tr):
        return float(cap)
    return min(float(cap), effective_dimension(K))


def eigendecay_xi_bound(c: float, alpha: float, k: int) -> float:
    """Effective-dimension cap (1 + c / (alpha - 1)) sqrt(k) under the
    polynomial eigenvalue-decay assumption lambda_i <= c i^{-alpha}."""
    if not alpha > 1:
        raise InvalidDecayParams(f"alpha must exceed 1, got {alpha}")
    if not c > 0:
        raise InvalidDecayParams(f"c must be positive, got {c}")
    if k < 1:
        raise InvalidDecayParams(f"k must be >= 1, got {k}")
    return (1.0 + c / (alpha - 1.0)) * math.sqrt(k)
