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


def _nearest_others(center_dists: np.ndarray):
    """Per center position p and point i: the nearest center other than p,
    its distance, and whether p wins a tie with it (``np.argmin``'s rule)."""
    n, k = center_dists.shape
    pos = np.arange(k)[:, None]
    first = np.argmin(center_dists, axis=1)
    rest = center_dists.copy()
    rest[np.arange(n), first] = np.inf
    # the nearest center other than p is the nearest one, or the second if p is the nearest
    is_first = pos == first
    other = np.where(is_first, np.argmin(rest, axis=1), first)
    other_d = np.where(is_first, rest.min(axis=1), center_dists.min(axis=1))
    return other, other_d, pos < other


def _weighted_swap_costs(gram, near, cand_cols, weights, trace: float, n: int) -> np.ndarray:
    """(B, k) mean-centroid costs, or +inf where a cluster is empty, of the
    nearest-center labelings of the rows of ``gram`` once center p is replaced
    by the candidate with distance column ``cand_cols[:, b]``.  Row u stands
    for ``weights[u]`` of the n points, and ``near`` is ``_nearest_others``
    at the same rows.  Each trial keeps its own product (one wide product
    could use other BLAS kernels, so other bits)."""
    other, other_d, wins_tie = near
    k, rows = other.shape
    cand = cand_cols.T[:, None, :]
    takes_cand = (cand < other_d) | ((cand == other_d) & wins_tie)
    labels = np.where(takes_cand, np.arange(k)[:, None], other).reshape(-1, rows)
    W = (labels[:, :, None] == np.arange(k)) * weights[:, None]
    sizes = W.sum(axis=1)
    T = np.einsum("pij,pij->pj", W, np.matmul(gram, W))
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = (trace - (T / sizes).sum(axis=1)) / n
    costs = np.maximum(costs, 0.0)
    costs[(sizes == 0).any(axis=1)] = np.inf
    return costs.reshape(-1, k)


def _swap_costs(K: GramMatrix, near, cand_cols: np.ndarray) -> np.ndarray:
    """Exact ``_weighted_swap_costs`` on the full Gram: each entry equals, bit
    for bit, the cost of its labeling scored on its own."""
    trace = float(np.sum(K.diag))
    return _weighted_swap_costs(K.entries, near, cand_cols, np.ones(K.n), trace, K.n)


def _screen(K: GramMatrix, near, rows: np.ndarray, bar: float) -> np.ndarray:
    """Whether a swap of each distinct row in ``rows`` (positions in
    ``K.distinct.rep``) may cost less than ``bar``, scored on ``K.distinct``
    (``near`` taken at its rows ``rep``): copies of a row have the same
    distances, so the same labels."""
    d = K.distinct
    grouped = _weighted_swap_costs(d.entries, near, d.dists[:, rows], d.sizes, d.trace, K.n)
    return grouped.min(axis=1) < bar + d.margin


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
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds n={n}")
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
    rng = ensure_rng(rng)
    centers = _dsq_centers(K.n, k, rng, lambda i: dists_to_points(K, [i])[:, 0])
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

    A rejected round changes nothing, so the remaining rounds' candidates are
    drawn in one block of up to ``cap`` at a time and scored exactly in draw
    order, in chunks that double in width from 1 after each swap; the first
    improving candidate is applied and the generator rewound to just after
    its draw, so results and generator state equal the round-by-round loop's.
    A chunk holds at most ``_BLOCK_ELEMENTS / (n k^2)`` candidates, and
    ``cap`` is the same bound with ``n`` counting only distinct rows when
    they are screened.

    When Gram rows repeat (``K.distinct``), each distinct row drawn is first
    screened once per center set on the distinct rows, and only candidates
    whose rows the screen cannot reject are scored exactly, so every accepted
    swap and cost comes from exact scores.  ``_nearest_others`` then runs on
    the distinct rows, spread to all n only when a center set scores exactly.
    Without a screen, a row drawn again under the same centers would score
    the same, so only its first draw per center set is scored.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if rounds == 0:
        return seed
    rng = ensure_rng(rng)

    centers = np.asarray(seed.center_indices, dtype=np.int64).copy()
    cost = float(seed.cost)
    swaps = int(seed.swaps_accepted)
    k = len(centers)

    center_dists = dists_to_points(K, centers)
    d = K.distinct
    max_width = max(1, _BLOCK_ELEMENTS // (K.n * k**2))
    cap = max_width if d is None else max(1, _BLOCK_ELEMENTS // (len(d.rep) * k**2))
    width, moved = 1, True
    while rounds > 0:
        if moved:  # what the draws, the screen and the trial labels need of the centers
            d2 = center_dists.min(axis=1)
            if not d2.sum() > 0.0:  # every point sits on a center
                break
            bar = cost - _STRICT_IMPROVEMENT
            if d is None:
                near = _nearest_others(center_dists)
            else:  # copies of a row have the same center distances, so the same near
                near, near_rep = None, _nearest_others(center_dists[d.rep])
            # one verdict per row: -1 not yet screened (or scored), 0 rejected, 1 kept
            verdict = np.full(K.n if d is None else len(d.rep), -1, dtype=np.int8)
        size = min(rounds, cap)
        state = rng.bit_generator.state
        cands = _dsq_draw(rng, d2, size)
        if d is None:  # a row drawn again scores the same: only its first draw is kept
            uniq, first = np.unique(cands, return_index=True)
            kept = np.sort(first[verdict[uniq] < 0])
            verdict[uniq] = 0  # scored and rejected below, or reset by a swap
        else:
            rows = d.groups[cands]
            new = np.flatnonzero((np.bincount(rows, minlength=verdict.size) > 0) & (verdict < 0))
            if new.size:
                verdict[new] = _screen(K, near_rep, new, bar)
            kept = np.flatnonzero(verdict[rows] == 1)
        pos, better = 0, np.empty(0, dtype=np.int64)
        while pos < kept.size and not better.size:  # exact scores up to the first improver
            chunk = kept[pos : pos + width]
            if near is None:
                near = tuple(a[:, d.groups] for a in near_rep)
            cand_cols = dists_to_points(K, cands[chunk])
            costs = _swap_costs(K, near, cand_cols)
            better = np.flatnonzero(costs.min(axis=1) < bar)  # the first one is applied
            pos += chunk.size
            width = 1 if better.size else min(2 * width, max_width)
        used = int(chunk[better[0]]) + 1 if better.size else len(cands)
        if used < size:  # rewind past the draws the round-by-round loop never made
            rng.bit_generator.state = state
            rng.random(used)
        rounds -= used
        moved = better.size > 0
        if moved:
            j = better[0]
            p = int(np.argmin(costs[j]))  # first minimum: lowest position wins ties
            centers[p] = cands[chunk[j]]
            cost = float(costs[j, p])
            swaps += 1
            center_dists[:, p] = cand_cols[:, j]

    # the loop's columns and exact cost are ``_result_for_centers``', bit for bit
    induced = Assignment.from_labels(np.argmin(center_dists, axis=1), k)
    return SeedingResult(centers, induced, cost, swaps)


def approximate_erm(
    K: GramMatrix,
    k: int,
    rounds: int | None = None,
    rng=None,
    max_iter: int = 300,
    rel_tol: float = 1e-9,
):
    """Seeding, local search, and Lloyd refinement in one call.

    ``rounds`` defaults to 25 * k, mirroring the O(k) local-search budget of
    the underlying algorithm with the constant fixed at 25.  Returns the
    final assignment, its Lloyd trace (the last cost is the assignment's),
    and the number of local-search swaps accepted.
    """
    rng = ensure_rng(rng)
    if rounds is None:
        rounds = 25 * k
    seed = kernel_kmeanspp(K, k, rng)
    improved = local_search_improve(K, seed, rounds, rng)
    assignment, trace = kernel_lloyd(K, improved.induced, max_iter=max_iter, rel_tol=rel_tol)
    return assignment, trace, improved.swaps_accepted
