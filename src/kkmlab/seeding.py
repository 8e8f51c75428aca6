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


@dataclass(frozen=True)
class SeedingResult:
    """k distinct data-point centers, the assignment they induce, and the
    induced assignment's mean-centroid cost."""

    center_indices: np.ndarray
    induced: Assignment
    cost: float
    swaps_accepted: int


def _labels_for_centers(K: GramMatrix, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; ties go to the lowest center position."""
    return np.argmin(dists_to_points(K, centers), axis=1).astype(np.int64)


def _labels_cost(K: GramMatrix, labels: np.ndarray, k: int) -> float:
    """Mean-centroid cost of a labeling, or +inf if some cluster is empty."""
    sizes = np.bincount(labels, minlength=k)
    if np.any(sizes == 0):
        return np.inf
    G = (labels[:, None] == np.arange(k)[None, :]).astype(float)
    T = np.einsum("ij,ij->j", G, K.entries @ G)
    cost = (float(np.sum(K.diag)) - float(np.sum(T / sizes))) / K.n
    return max(cost, 0.0)


def _swap_costs(K: GramMatrix, center_dists: np.ndarray, cand_col: np.ndarray) -> np.ndarray:
    """Costs of all k single-center swaps, scored as one batch.

    Entry p is the mean-centroid cost of the nearest-center labeling after
    center p's distance column is replaced by ``cand_col``, or +inf if that
    labeling leaves a cluster empty.  Each entry equals ``_labels_cost`` of
    the same labeling bit for bit: the per-trial arithmetic is unchanged.
    """
    n, k = center_dists.shape
    pos = np.arange(k)
    trial = np.repeat(center_dists[None, :, :], k, axis=0)
    trial[pos, :, pos] = cand_col
    labels = np.argmin(trial, axis=2)
    G = (labels[:, :, None] == pos).astype(float)
    T = np.einsum("pij,pij->pj", G, np.matmul(K.entries, G))
    sizes = G.sum(axis=1)
    empty = np.any(sizes == 0.0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = (float(np.sum(K.diag)) - np.sum(T / sizes, axis=1)) / n
    costs = np.maximum(costs, 0.0)
    costs[empty] = np.inf
    return costs


def _result_for_centers(K: GramMatrix, centers: np.ndarray, swaps: int) -> SeedingResult:
    labels = _labels_for_centers(K, centers)
    induced = Assignment.from_labels(labels, len(centers))
    if np.any(induced.cluster_sizes == 0):
        raise EmptyCluster("duplicate data points left a center with no cell")
    return SeedingResult(
        center_indices=np.asarray(centers, dtype=np.int64),
        induced=induced,
        cost=cluster_cost(K, induced),
        swaps_accepted=swaps,
    )


def _dsq_draw(rng: np.random.Generator, d2: np.ndarray) -> int:
    """Sample an index with probability proportional to d2 (must not be all zero).

    Consumes one ``rng.random()`` and returns what
    ``rng.choice(d2.size, p=d2 / d2.sum())`` returns, by the same
    arithmetic, without that call's checks on ``p``.
    """
    cdf = (d2 / float(d2.sum())).cumsum()
    cdf /= cdf[-1]
    choice = int(cdf.searchsorted(rng.random(), side="right"))
    if not d2[choice] > 0.0:
        raise InvariantViolated(f"D^2 sampler drew point {choice}, which has zero weight")
    return choice


def _dsq_centers(n: int, k: int, rng: np.random.Generator, dists_to) -> list[int]:
    """k distinct point indices by D^2 sampling, in either geometry:
    ``dists_to(i)`` returns every point's squared distance to point i."""
    centers = [int(rng.integers(n))]
    d2 = dists_to(centers[0])
    for _ in range(1, k):
        if d2.sum() > 0.0:
            nxt = _dsq_draw(rng, d2)
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

    for _ in range(rounds):
        if d2.sum() <= 0.0:
            break  # every point sits on a center; no swap can help
        cand = _dsq_draw(rng, d2)

        cand_col = dists_to_points(K, [cand])[:, 0]
        costs = _swap_costs(K, center_dists, cand_col)
        best_pos = int(np.argmin(costs))  # first minimum: lowest position wins ties
        best_cost = float(costs[best_pos])

        if best_cost < cost - _STRICT_IMPROVEMENT:
            centers[best_pos] = cand
            cost = best_cost
            swaps += 1
            center_dists[:, best_pos] = cand_col
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
