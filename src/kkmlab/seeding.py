"""Kernel k-means++ seeding and local-search improvement.

Seeding and search keep centers on data points; the squared-distance
(D^2) sampler draws each new candidate proportionally to its squared kernel
distance from the current center set, so points sitting on a center carry
exactly zero selection probability.  Candidate swaps are scored by the same
objective every other module reports: the mean squared distance of points to
their induced cluster's feature mean.  A swap is accepted only on strict
improvement (> 1e-12) to prevent cycling, which makes the recorded cost
nonincreasing per accepted swap by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import ensure_rng
from .clustering import Assignment, cluster_cost, kernel_lloyd
from .errors import EmptyCluster, InvariantViolated, KTooLarge, KTooSmall
from .kernels import GramMatrix, dists_to_points

__all__ = [
    "SeedingResult",
    "kernel_kmeanspp",
    "local_search_improve",
    "approximate_erm",
]

_STRICT_IMPROVEMENT = 1e-12
_BLOCK_ELEMENTS = 2**16  # cap on B * n * k^2, the floats in a block's one-hot stack


@dataclass(frozen=True)
class SeedingResult:
    """k distinct data-point centers, the assignment they induce, and the
    induced assignment's mean-centroid cost."""

    center_indices: np.ndarray
    induced: Assignment
    cost: float
    swaps_accepted: int


def _labels_cost(K: GramMatrix, labels: np.ndarray, k: int) -> float:
    """Mean-centroid cost of a labeling, or +inf if some cluster is empty."""
    sizes = np.bincount(labels, minlength=k)
    if np.any(sizes == 0):
        return np.inf
    G = (labels[:, None] == np.arange(k)[None, :]).astype(float)
    T = np.einsum("ij,ij->j", G, K.entries @ G)
    cost = (float(np.sum(K.diag)) - float(np.sum(T / sizes))) / K.n
    return max(cost, 0.0)


def _swap_costs(K: GramMatrix, center_dists: np.ndarray, cand_cols: np.ndarray) -> np.ndarray:
    """Costs of all single-center swaps for B candidates, scored as one batch.

    Entry (b, p) is the mean-centroid cost of the nearest-center labeling
    after center p's distance column is replaced by ``cand_cols[:, b]``, or
    +inf if that labeling leaves a cluster empty.  Each entry equals
    ``_labels_cost`` of the same labeling bit for bit: the labels keep
    ``np.argmin``'s first-minimum rule, and each trial keeps its own ``K @ G``
    (one wide product could use other BLAS kernels, so other bits).
    """
    n, k = center_dists.shape
    B = cand_cols.shape[1]
    pos = np.arange(k)
    first = np.argmin(center_dists, axis=1)
    rest = center_dists.copy()
    rest[np.arange(n), first] = np.inf
    # the nearest center other than p is the nearest one, or the second if p is the nearest
    is_first = pos[:, None] == first
    other = np.where(is_first, np.argmin(rest, axis=1), first)
    other_d = np.where(is_first, rest.min(axis=1), center_dists.min(axis=1))
    cand = cand_cols.T[:, None, :]
    takes_cand = (cand < other_d) | ((cand == other_d) & (pos[:, None] < other))
    labels = np.where(takes_cand, pos[:, None], other).reshape(B * k, n)
    sizes = np.bincount((labels + k * np.arange(B * k)[:, None]).ravel(), minlength=B * k * k)
    sizes = sizes.reshape(B * k, k)
    G = (labels[:, :, None] == pos).astype(float)
    T = np.einsum("pij,pij->pj", G, np.matmul(K.entries, G))
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = (float(np.sum(K.diag)) - np.sum(T / sizes, axis=1)) / n
    costs = np.maximum(costs, 0.0)
    costs[np.any(sizes == 0, axis=1)] = np.inf
    return costs.reshape(B, k)


def _result_for_centers(K: GramMatrix, centers: np.ndarray, swaps: int) -> SeedingResult:
    labels = np.argmin(dists_to_points(K, centers), axis=1)  # ties: lowest position
    induced = Assignment.from_labels(labels, len(centers))
    if np.any(induced.cluster_sizes == 0):
        raise EmptyCluster("duplicate data points left a center with no cell")
    return SeedingResult(
        center_indices=np.asarray(centers, dtype=np.int64),
        induced=induced,
        cost=cluster_cost(K, induced),
        swaps_accepted=swaps,
    )


def _dsq_draw(rng: np.random.Generator, d2: np.ndarray, size: int) -> np.ndarray:
    """Up to ``size`` i.i.d. indices drawn with probability proportional to d2
    (must not be all zero), from one ``rng.random(size)``.

    Each is what ``rng.choice(d2.size, p=d2 / d2.sum())`` returns from the
    same uniform, by the same arithmetic, without that call's checks on
    ``p``.  Draws from the first zero-weight one on are dropped.
    """
    cdf = (d2 / float(d2.sum())).cumsum()
    cdf /= cdf[-1]
    choice = cdf.searchsorted(rng.random(size), side="right")
    valid = np.logical_and.accumulate(d2[choice] > 0.0)
    if not valid[0]:
        raise InvariantViolated(f"D^2 sampler drew point {choice[0]}, which has zero weight")
    return choice[valid]


def _dsq_centers(n: int, k: int, rng: np.random.Generator, dists_to) -> list[int]:
    """k distinct point indices by D^2 sampling, in either geometry:
    ``dists_to(i)`` returns every point's squared distance to point i."""
    centers = [int(rng.integers(n))]
    d2 = dists_to(centers[0])
    for _ in range(1, k):
        if d2.sum() > 0.0:
            nxt = int(_dsq_draw(rng, d2, 1)[0])
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(centers))
            nxt = int(rng.choice(remaining))
        centers.append(nxt)
        d2 = np.minimum(d2, dists_to(nxt))
    return centers


def kernel_kmeanspp(K: GramMatrix, k: int, rng=None) -> SeedingResult:
    """D^2-sampling seeding on kernel distances.

    The first center is uniform over the points; each later one is drawn
    proportionally to the squared distance from the centers chosen so far.
    If every remaining point sits exactly on a chosen center (duplicated
    data), the draw falls back to uniform over the non-center indices so
    that k distinct indices are still returned.
    """
    n = K.n
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds n={n}")
    rng = ensure_rng(rng)
    centers = _dsq_centers(n, k, rng, lambda i: dists_to_points(K, [i])[:, 0])
    return _result_for_centers(K, np.asarray(centers), swaps=0)


def local_search_improve(
    K: GramMatrix,
    seed: SeedingResult,
    rounds: int,
    rng=None,
) -> SeedingResult:
    """Improve a seeding by D^2-sampled single-center swaps.

    Per round: draw a candidate point by D^2 sampling against the current
    centers, try swapping it for each center in turn, and keep the best
    strictly improving swap if any.

    A rejected round changes nothing, so rounds are scored in blocks of
    candidates drawn at once; the first improving one is applied and the
    generator rewound to just after its draw, so results and generator state
    equal the round-by-round loop's.  Blocks double in width until a swap,
    then restart at 1; B * n * k^2 stays within ``_BLOCK_ELEMENTS``.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if rounds == 0:
        return seed
    rng = ensure_rng(rng)

    centers = np.asarray(seed.center_indices, dtype=np.int64).copy()
    cost = float(seed.cost)
    swaps = int(seed.swaps_accepted)

    center_dists = dists_to_points(K, centers)
    d2 = center_dists.min(axis=1)
    max_width = max(1, _BLOCK_ELEMENTS // (K.n * len(centers) ** 2))
    width = 1
    while rounds > 0 and d2.sum() > 0.0:  # else every point sits on a center
        size = min(width, rounds)
        state = rng.bit_generator.state
        cands = _dsq_draw(rng, d2, size)
        cand_cols = dists_to_points(K, cands)
        costs = _swap_costs(K, center_dists, cand_cols)
        better = costs.min(axis=1) < cost - _STRICT_IMPROVEMENT
        j = int(np.argmax(better))  # the first improving candidate, if any
        used = j + 1 if better[j] else len(cands)
        if used < size:  # rewind past the draws the round-by-round loop never made
            rng.bit_generator.state = state
            rng.random(used)
        rounds -= used
        width = 1 if better[j] else min(2 * width, max_width)
        if better[j]:
            p = int(np.argmin(costs[j]))  # first minimum: lowest position wins ties
            centers[p] = cands[j]
            cost = float(costs[j, p])
            swaps += 1
            center_dists[:, p] = cand_cols[:, j]
            d2 = center_dists.min(axis=1)

    return _result_for_centers(K, centers, swaps=swaps)


def approximate_erm(
    K: GramMatrix,
    k: int,
    rounds: int | None = None,
    lloyd_refine: bool = True,
    rng=None,
    max_iter: int = 300,
    rel_tol: float = 1e-9,
):
    """Seeding, local search, and optional Lloyd refinement in one call.

    ``rounds`` defaults to 25 * k, mirroring the O(k) local-search budget of
    the underlying algorithm with the constant fixed at 25.  Returns the
    final assignment and its cost.
    """
    rng = ensure_rng(rng)
    if rounds is None:
        rounds = 25 * k
    seed = kernel_kmeanspp(K, k, rng)
    improved = local_search_improve(K, seed, rounds, rng)
    if not lloyd_refine:
        return improved.induced, improved.cost
    assignment, trace = kernel_lloyd(K, improved.induced, max_iter=max_iter, rel_tol=rel_tol)
    return assignment, float(trace.per_iteration_cost[-1])
