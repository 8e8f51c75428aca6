"""Numerical checks on sign-weighted clustering complexity.

The supremum over all center collections is uncomputable, so the lab works
with two tractable restrictions:

  * the single-center class over the unit ball, whose sign-weighted supremum
    has a closed form per sign draw (see :func:`signed_scatter_supremum`);
  * explicit finite classes of center collections, where both the sign
    expectation and the class supremum can be enumerated exactly at small n.

Together these bracket the general bound: the basis-vector construction of
:func:`lower_bound_construction` pushes the finite-class value up to
sqrt(k n / 2) while its per-coordinate value stays below 3 sqrt(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._common import as_points, ensure_rng
from .errors import (
    EnumerationTooLarge,
    InvalidLogArgument,
    NonFiniteInput,
    NormViolation,
    NotDivisible,
)

__all__ = [
    "RadEstimate",
    "LowerBoundInstance",
    "KhintchineResult",
    "signed_scatter_supremum",
    "coordinate_rad",
    "lower_bound_construction",
    "finite_class_rad",
    "khintchine_check",
    "CheckRow",
    "rad_check_cell",
    "theorem_bound_value",
]

_EXACT_PATTERN_LIMIT = 2**20  # auto-enumerate sign patterns up to this many
_EXACT_CLASS_LIMIT = 2**16
_LOW_BITS = 14
_BLOCK = 2**_LOW_BITS  # sign patterns per enumeration block
_low_signs = functools.cache(lambda: _sign_block(0, _BLOCK, _LOW_BITS))  # built on first use


@dataclass(frozen=True)
class RadEstimate:
    """Complexity value with its Monte Carlo standard error.

    ``exact`` is set when full sign-pattern enumeration replaced sampling, in
    which case ``std_error`` is zero and ``trials`` counts the patterns.
    """

    value: float
    std_error: float
    trials: int
    exact: bool


@dataclass(frozen=True)
class LowerBoundInstance:
    """Basis-vector dataset: n/k copies of each of e_1 .. e_k, paired with
    the 2^k center collections (s_1 e_1, ..., s_k e_k), s in {-1, +1}^k."""

    k: int
    n: int
    data: np.ndarray
    class_size: int

    def center_sets(self) -> np.ndarray:
        """(2^k, k, k) array; member s has centers s_j e_j."""
        signs = _sign_block(0, self.class_size, self.k)
        return signs[:, :, None] * np.eye(self.k)[None, :, :]


class KhintchineResult(NamedTuple):
    lhs: float
    rhs: float


# one estimator's row of a rad-check cell; the verdict is "satisfied" or "violated"
CheckRow = NamedTuple("CheckRow", [("estimator", str), ("value", float), ("std_error", float),
                                   ("trials", int), ("bound", float), ("verdict", str)])


def _sign_block(start: int, stop: int, n: int) -> np.ndarray:
    """Rows are the +-1 patterns of the integers [start, stop) over n bits."""
    if n > _LOW_BITS and start % _BLOCK == 0 and stop - start == _BLOCK:
        # an aligned full block: the low-bit table beside start's upper bits
        signs = np.empty((_BLOCK, n))
        signs[:, :_LOW_BITS] = _low_signs()
        signs[:, _LOW_BITS:] = 2 * ((start >> np.arange(_LOW_BITS, n)) & 1) - 1
        return signs
    codes = np.arange(start, stop, dtype=np.int64)[:, None]
    bits = (codes >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(float)


@functools.lru_cache(maxsize=1)
def _grouping(shape: tuple, raw: bytes):
    """For the (n, d) data in ``raw``: a sign row per vector of per-group
    plus-counts, in mixed radix, each row's weight (its group's radix
    stride), and the table row of each code below ``_BLOCK``, the sum of its
    set bits' weights; None if no row repeats or the vectors outnumber a
    block.  Kept for the last data: both exact estimators of a cell share it."""
    _, group, sizes = np.unique(np.frombuffer(raw).reshape(shape), axis=0,
                                return_inverse=True, return_counts=True)
    strides = np.cumprod(np.concatenate(([1], sizes + 1)))
    if len(sizes) == shape[0] or strides[-1] > _BLOCK:
        return None
    rank = np.tril(group[:, None] == group[None, :], -1).sum(axis=1)  # within the group
    plus = np.arange(strides[-1])[:, None] // strides[:-1] % (sizes + 1)
    signs = np.where(rank < plus[:, group], 1.0, -1.0)
    weights, low = strides[group], np.zeros(1, dtype=np.int64)
    for w in weights[:_LOW_BITS]:  # codes with this bit set follow those without
        low = np.concatenate((low, low + w))
    return signs, weights, low


def _pattern_sum(data: np.ndarray, count: int, values) -> float:
    """Sum over the codes [0, count), block by block, of ``values`` on their
    sign rows; a pattern's value may depend only on how many plus signs each
    group of identical data rows gets.  With a ``_grouping``, ``values`` runs
    once, on its sign rows, and each block gathers from that table at its
    codes' weight sums: the block path's values in its order, so every bit
    of the sum is kept where a value is exact in the counts (integer partial
    sums, as on basis vectors)."""
    n = data.shape[0]
    grouping = _grouping(data.shape, data.tobytes())
    total = 0.0
    if grouping is None:
        for start in range(0, count, _BLOCK):
            total += float(values(_sign_block(start, min(start + _BLOCK, count), n)).sum())
        return total
    signs, weights, low = grouping
    table = values(signs)
    # blocks start at multiples of _BLOCK: a code's weight sum is its block
    # start's upper bits' plus its low bits', so a block's values depend only
    # on that offset and its length, and each distinct block is summed once
    starts = np.arange(0, count, _BLOCK)
    offsets = ((starts[:, None] >> np.arange(_LOW_BITS, n)) & 1) @ weights[_LOW_BITS:]
    sums = {}
    for start, offset in zip(starts.tolist(), offsets.tolist()):
        block = (offset, min(count - start, _BLOCK))
        if block not in sums:
            sums[block] = float(table[low[: block[1]] + offset].sum())
        total += sums[block]
    return total


def _monte_carlo(n: int, trials: int, rng, values) -> RadEstimate:
    """Mean of ``values`` over ``trials`` uniform +-1 rows of length n, drawn
    in one block, with its standard error (0 for a single trial)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    signs = 2.0 * ensure_rng(rng).integers(0, 2, size=(trials, n)) - 1.0
    vals = values(signs)
    se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RadEstimate(value=float(vals.mean()), std_error=se, trials=trials, exact=False)


def signed_scatter_supremum(data: np.ndarray, sigma: np.ndarray) -> float:
    """Exact sup over unit-ball centers c of sum_j sigma_j ||phi_j - c||^2.

    With s = sum sigma_j, v = sum sigma_j phi_j and base = sum sigma_j
    ||phi_j||^2, the inner maximum of s ||c||^2 - 2 <v, c> over ||c|| <= 1 is
    s + 2||v|| when s >= 0 or ||v|| > |s|, and ||v||^2 / |s| otherwise
    (attained inside the ball; the s < 0, v = 0 corner gives 0 at c = 0).
    """
    sigma = np.asarray(sigma, dtype=float)
    return float(_batch_suprema(_unit_ball_points(data), sigma[None, :])[0])


def _unit_ball_points(data) -> np.ndarray:
    """``as_points`` of feature vectors in the unit ball (tolerance 1e-9)."""
    data = as_points(data, "data")
    norms = np.linalg.norm(data, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        raise NormViolation(f"feature norms must be <= 1, max was {norms.max():.6g}")
    return data


def _batch_suprema(data: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`signed_scatter_supremum` over rows of ``signs``."""
    norms2 = np.einsum("ij,ij->i", data, data)
    s = signs.sum(axis=1)
    V = signs @ data
    nv = np.linalg.norm(V, axis=1)
    base = signs @ norms2
    at_boundary = (s >= 0.0) | (nv > -s)
    inner = np.where(
        at_boundary,
        s + 2.0 * nv,
        nv**2 / np.where(at_boundary, 1.0, -s),
    )
    return base + inner


def coordinate_rad(data, trials: int = 10_000, rng=None, exact: bool | None = None) -> RadEstimate:
    """Sign expectation of the unit-ball single-center supremum.

    Every feature vector must lie in the unit ball (checked, tolerance
    1e-9).  The per-draw supremum is closed form; the expectation over sign
    vectors is enumerated exactly when 2^n <= 2^20 (the default), otherwise
    estimated by Monte Carlo with ``trials`` draws.
    """
    data = _unit_ball_points(data)
    n = data.shape[0]
    if exact is None:
        exact = 2**n <= _EXACT_PATTERN_LIMIT
    if exact:
        if 2**n > _EXACT_PATTERN_LIMIT:
            raise EnumerationTooLarge(f"2^{n} sign patterns exceed the exact limit")
        count = 2**n
        total = _pattern_sum(data, count, lambda signs: _batch_suprema(data, signs))
        return RadEstimate(value=total / count, std_error=0.0, trials=count, exact=True)

    return _monte_carlo(n, trials, rng, lambda signs: _batch_suprema(data, signs))


def lower_bound_construction(k: int, n: int) -> LowerBoundInstance:
    """Dataset of n/k copies of each basis vector, with its 2^k sign classes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1 or n % k != 0:
        raise NotDivisible(f"n={n} is not a positive multiple of k={k}")
    data = np.repeat(np.eye(k), n // k, axis=0)
    data.setflags(write=False)
    return LowerBoundInstance(k=k, n=n, data=data, class_size=2**k)


def _min_dist_table(data: np.ndarray, center_sets) -> np.ndarray:
    """(C, n) table of min-over-centers squared distances per class, from one
    stacked product: each class's slice is that class's own product."""
    centers = np.asarray(center_sets, dtype=float)
    if centers.shape[0] == 0:
        raise ValueError("center_sets must be nonempty")
    if not np.all(np.isfinite(centers)):
        raise NonFiniteInput("non-finite values in center_sets")
    norms2 = np.einsum("ij,ij->i", data, data)
    csq = np.einsum("cij,cij->ci", centers, centers)
    d = norms2[:, None] - 2.0 * (data @ centers.transpose(0, 2, 1)) + csq[:, None, :]
    return np.clip(d, 0.0, None).min(axis=2)


def finite_class_rad(
    data,
    center_sets,
    trials: int = 10_000,
    rng=None,
    exact: bool = False,
) -> RadEstimate:
    """Sign expectation of the max over an explicit finite class.

    Exact mode enumerates all 2^n sign vectors in complementary pairs, so a
    single-member class comes out exactly zero; it is guarded to n <= 20 and
    at most 2^16 classes.
    """
    data = as_points(data, "data")
    n = data.shape[0]
    V = _min_dist_table(data, center_sets)

    if exact:
        if 2**n > _EXACT_PATTERN_LIMIT or V.shape[0] > _EXACT_CLASS_LIMIT:
            raise EnumerationTooLarge(
                f"exact enumeration refused for n={n}, classes={V.shape[0]}"
            )
        def pair_values(signs):
            U = V @ signs.T
            return U.max(axis=0) + (-U).max(axis=0)

        # patterns with sigma_n = -1; the complement supplies the rest
        total = _pattern_sum(data, 2 ** (n - 1), pair_values)
        return RadEstimate(value=total / 2**n, std_error=0.0, trials=2**n, exact=True)

    return _monte_carlo(n, trials, rng, lambda signs: (V @ signs.T).max(axis=0))


def khintchine_check(block: int) -> KhintchineResult:
    """Half the expected absolute sign sum over a block, exact at every block
    by de Moivre's E|S_b| = b C(b-1, floor((b-1)/2)) / 2^(b-1) and rounded once,
    against sqrt(block/8), half of Szarek's optimal L1 Khintchine bound."""
    if block < 1:
        raise ValueError("block must be >= 1")
    lhs = block * math.comb(block - 1, (block - 1) // 2) / 2**block
    return KhintchineResult(lhs=lhs, rhs=math.sqrt(block / 8.0))


def rad_check_cell(inst: LowerBoundInstance, trials: int, master_seed: int):
    """The sandwich on one construction: the finite class must reach
    sqrt(kn/2) and the coordinate value stay below 3 sqrt(n), up to three
    standard errors, and the exact sign sums over blocks of n/k reach
    sqrt(block/8).  Past the exact limits, ``trials`` >= 2 patterns are drawn
    from ``default_rng([master_seed, tag, k, n])``, tags 0xAB and 0xAC in row
    order.  Returns the three rows and whether the finite class was sampled."""
    k, n = inst.k, inst.n
    rng = [np.random.default_rng([master_seed, tag, k, n]) for tag in (0xAB, 0xAC)]
    monte_carlo = 2**n > _EXACT_PATTERN_LIMIT or inst.class_size > _EXACT_CLASS_LIMIT
    if monte_carlo and trials < 2:
        raise ValueError(f"a sampled cell needs trials >= 2, got {trials}")
    fc = finite_class_rad(inst.data, inst.center_sets(), trials, rng[0], exact=not monte_carlo)
    coord = coordinate_rad(inst.data, trials, rng[1])
    kh = khintchine_check(n // k)
    lower, upper = math.sqrt(k * n / 2.0), 3.0 * math.sqrt(n)
    rows = [("finite_class", fc.value, fc.std_error, fc.trials, lower,
             fc.value >= lower - 3.0 * fc.std_error),
            ("coordinate", coord.value, coord.std_error, coord.trials, upper,
             coord.value <= upper + 3.0 * coord.std_error),
            ("khintchine", kh.lhs, 0.0, 0, kh.rhs, kh.lhs >= kh.rhs)]
    return [CheckRow(*row, "satisfied" if ok else "violated") for *row, ok in rows], monte_carlo


def theorem_bound_value(
    k: int,
    n: int,
    max_coord_rad: float,
    delta_exponent: float,
    c_const: float,
) -> float:
    """Upper-bound formula c * sqrt(k) * R * log^{3/2 + d}(n / R) with R the
    largest per-coordinate complexity.  Only ordering and scaling of this
    value are meaningful; the constants are caller-supplied."""
    if not max_coord_rad > 0 or not n > max_coord_rad:
        raise InvalidLogArgument(
            f"need 0 < max_coord_rad < n, got {max_coord_rad} and {n}"
        )
    log_term = math.log(n / max_coord_rad)
    return c_const * math.sqrt(k) * max_coord_rad * log_term ** (1.5 + delta_exponent)
