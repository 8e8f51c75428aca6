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

from dataclasses import dataclass, replace

import numpy as np

from ._common import ensure_rng
from .clustering import Assignment, _check_lloyd, _kernel_lloyd, _onehot, cluster_cost
from .errors import EmptyCluster, InvariantViolated, KTooLarge, KTooSmall
from .kernels import GramMatrix, dists_to_points

__all__ = [
    "SeedingResult",
    "kernel_kmeanspp",
    "local_search_improve",
    "approximate_erm",
]

_STRICT_IMPROVEMENT = 1e-12
_BLOCK_ELEMENTS = 2**16  # cap on C * rows * k^2, the floats in a scoring call's one-hot stack
_MAX_RUNS = 50  # runs of one lockstep batch


@dataclass(frozen=True)
class SeedingResult:
    """k distinct data-point centers, the assignment they induce, and the
    induced assignment's mean-centroid cost."""

    center_indices: np.ndarray
    induced: Assignment
    cost: float
    swaps_accepted: int


def _min_k(a: np.ndarray) -> np.ndarray:
    """``a.min(axis=-1)`` a column at a time: numpy reduces a short last axis
    row by row, far slower, and a min is exact, so the bits are the same."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.minimum(out, a[..., j], out=out)
    return out


def _nearest_others(center_dists: np.ndarray):
    """Per center position p and point i of (..., n, k) distances: the
    nearest center other than p, its distance, and whether p wins a tie with
    it (``np.argmin``'s rule), each (..., k, n)."""
    k = center_dists.shape[-1]
    pos = np.arange(k)[:, None]
    first = np.argmin(center_dists, axis=-1)
    rest = np.where(first[..., None] == np.arange(k), np.inf, center_dists)
    # the nearest center other than p is the nearest one, or the second if p is the nearest
    first = first[..., None, :]
    is_first = pos == first
    other = np.where(is_first, np.argmin(rest, axis=-1)[..., None, :], first)
    other_d = np.where(is_first, _min_k(rest)[..., None, :], _min_k(center_dists)[..., None, :])
    return other, other_d, pos < other


def _weighted_swap_costs(gram, near, cand_cols, weights, trace: float, n: int) -> np.ndarray:
    """(C, k) mean-centroid costs, or +inf where a cluster is empty, of the
    nearest-center labelings of the rows of ``gram`` once center p is replaced
    by the candidate with distance column ``cand_cols[:, c]``.  Row u stands
    for ``weights[u]`` of the n points, and ``near`` is ``_nearest_others``
    at the same rows, of one center set or of one per candidate.  Each trial
    keeps its own product (one wide product could use other BLAS kernels, so
    other bits), and a call builds at most ``_BLOCK_ELEMENTS`` one-hot floats
    at a time."""
    other, other_d, wins_tie = near
    k, rows = other.shape[-2:]
    step = max(1, _BLOCK_ELEMENTS // (rows * k * k))
    if cand_cols.shape[1] > step:
        return np.concatenate([
            _weighted_swap_costs(gram, [a[s : s + step] if a.ndim == 3 else a for a in near],
                                 cand_cols[:, s : s + step], weights, trace, n)
            for s in range(0, cand_cols.shape[1], step)])
    cand = cand_cols.T[:, None, :]
    takes_cand = (cand < other_d) | ((cand == other_d) & wins_tie)
    labels = np.where(takes_cand, np.arange(k)[:, None], other).reshape(-1, rows)
    return _weighted_costs(gram, labels, k, weights, trace, n).reshape(-1, k)


def _weighted_costs(gram, labels, k: int, weights, trace: float, n: int) -> np.ndarray:
    """Mean-centroid costs, or +inf where a cluster is empty, of the (P, rows)
    labelings of the rows of ``gram``, row u standing for ``weights[u]`` of
    the n points: each trial with its own product in one stacked call."""
    W, sizes = _onehot(labels, k, weights)
    T = np.einsum("pij,pij->pj", W, np.matmul(gram, W))
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = (trace - (T / sizes).sum(axis=1)) / n
    costs = np.maximum(costs, 0.0)
    costs[(sizes == 0).any(axis=1)] = np.inf
    return costs


def _swap_costs(K: GramMatrix, near, cand_cols: np.ndarray) -> np.ndarray:
    """Exact ``_weighted_swap_costs`` on the full Gram: each entry equals, bit
    for bit, the cost of its labeling scored on its own."""
    trace = float(np.sum(K.diag))
    return _weighted_swap_costs(K.entries, near, cand_cols, np.ones(K.n), trace, K.n)


def _screen(K: GramMatrix, near, rows: np.ndarray, bar) -> np.ndarray:
    """Whether a swap of each distinct row in ``rows`` (positions in
    ``K.distinct.rep``) may cost less than ``bar``, scored on ``K.distinct``
    (``near`` taken at its rows ``rep``): copies of a row have the same
    distances, so the same labels."""
    d = K.distinct
    grouped = _weighted_swap_costs(d.entries, near, d.dists[:, rows], d.sizes, d.trace, K.n)
    return _min_k(grouped) < bar + d.margin


def _dsq_draw(d2: np.ndarray, u: np.ndarray):
    """(B, s) indices drawn with probability proportional to each row of the
    (B, n) d2 (none all zero), one per uniform in the same row of ``u``, and
    whether each has positive weight: what ``rng.choice(n, p=row / row.sum())``
    returns from the same uniform, by the same arithmetic, without that call's
    checks on ``p`` (the rows of a C-ordered d2 sum as they do on their own)."""
    cdf = (d2 / d2.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    choice = np.array([c.searchsorted(v, side="right") for c, v in zip(cdf, u)],
                      dtype=np.int64).reshape(u.shape)
    return choice, d2[np.arange(len(d2))[:, None], choice] > 0.0


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds n={n}")


def _dsq_centers(dists_to, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(B, k) point indices by D^2 sampling in either geometry, ``dists_to(idx)``
    giving the (n, len(idx)) squared distances: run b starts at ``first[b]``
    and draws each later center from its next uniform in ``u[b]``.  Once every
    point sits on a center, a new one would get no cell: ``EmptyCluster``."""
    centers, d2 = [first], np.ascontiguousarray(dists_to(first).T)
    for step in u.T[:, :, None]:
        if not (d2.sum(axis=1) > 0.0).all():
            raise EmptyCluster("duplicate data points left a center with no cell")
        nxt, ok = _dsq_draw(d2, step)
        if not ok.all():
            raise InvariantViolated(f"D^2 sampler drew point {nxt[~ok][0]}, which has zero weight")
        centers.append(nxt[:, 0])
        np.minimum(d2, dists_to(nxt[:, 0]).T, out=d2)
    return np.array(centers).T


def _runs(K: GramMatrix, k: int, rngs, rounds: int, seeds=None) -> list[SeedingResult]:
    """k-means++ seeding (unless ``seeds`` holds a batch of one's) and ``rounds``
    rounds of local search for B runs on one Gram in lockstep, each run with
    the result and generator state of its own round-by-round calls.  Only the
    search reads a seed's cost: with ``rounds`` 0 it is NaN, not a Gram product.

    Run b draws from ``rngs[b]``; runs share one generator, in run order, or
    have one each.  Its uniforms are drawn up front in its calls' order:
    ``integers(n)``, one per later center, then one per round.  A run that
    stops early (every point on a center) hands back its unused rounds, and
    the later runs on its generator are fitted again, one at a time.

    Each step scores every run's next draws not yet known to be rejected in
    one exact call (one draw after a swap, twice as many after a step without
    one), and each run applies its first improver.  Known rejections: a point
    drawn again, which scores the same, or where Gram rows repeat
    (``K.distinct``) a row drawn again or one that fails its screen on the
    distinct rows, once per center set."""
    if len(rngs) > _MAX_RUNS:  # a batch's state grows with B, and larger ones are no faster
        return _runs(K, k, rngs[:_MAX_RUNS], rounds) + _runs(K, k, rngs[_MAX_RUNS:], rounds)
    n, B = K.n, len(rngs)
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if seeds is None:
        _check_k(k, n)
    first, u0, u, states = np.empty(B, np.int64), np.empty((B, k - 1)), np.empty((B, rounds)), []
    for b, rng in enumerate(rngs):
        if seeds is None:
            first[b], u0[b] = rng.integers(n), rng.random(k - 1)
        states.append(rng.bit_generator.state)
        u[b] = rng.random(rounds)
    if seeds is None:
        centers = _dsq_centers(lambda idx: dists_to_points(K, idx), first, u0)
        swaps = np.zeros(B, np.int64)
    else:
        centers = np.array([s.center_indices for s in seeds], dtype=np.int64)
        cost = np.array([s.cost for s in seeds])
        swaps = np.array([s.swaps_accepted for s in seeds])
    cd = dists_to_points(K, centers.ravel()).reshape(n, B, k).transpose(1, 0, 2).copy()
    if seeds is None:  # every seed labelled from one table, and scored in one stacked product
        labels = np.argmin(cd, axis=2)  # ties: lowest position
        if (_onehot(labels, k)[1] == 0).any():
            raise EmptyCluster("duplicate data points left a center with no cell")
        if rounds == 0:
            return [SeedingResult(c, Assignment.from_labels(a, k), np.nan, 0)
                    for c, a in zip(centers, labels)]
        cost = _weighted_costs(K.entries, labels, k, np.ones(n), float(np.sum(K.diag)), n)

    d = K.distinct
    near = tuple(np.empty((B, k, n), dtype) for dtype in (np.int64, float, bool))
    draws, keep = np.empty((B, rounds), np.int64), np.zeros((B, rounds), bool)  # keep: to score
    t, used, moved = np.zeros(B, np.int64), np.full(B, rounds), np.arange(B)  # t: first round
    width, max_width = np.ones(B, np.int64), max(1, _BLOCK_ELEMENTS // (B * n * k * k))
    while True:
        if moved.size:  # draws, screen and trial labels for the runs' new centers
            d2 = _min_k(cd[moved])
            stop = ~(d2.sum(axis=1) > 0.0)  # every point sits on a center
            used[moved[stop]] = t[moved[stop]]
            keep[moved], width[moved] = False, 1
            moved, d2 = moved[~stop], d2[~stop]
            for a, a_new in zip(near, _nearest_others(cd[moved])):
                a[moved] = a_new
            drawn, ok = _dsq_draw(d2, u[moved])
            ahead = np.arange(rounds) >= t[moved, None]
            ok = np.logical_and.accumulate(ok | ~ahead, axis=1)  # a zero-weight draw ends the run
            draws[moved] = np.where(ok, drawn, ~drawn)  # ~: marks the draw that raises
            ids = drawn if d is None else d.groups[drawn]
            pos = np.flatnonzero(ahead & ok)
            _, firsts = np.unique(pos // rounds * n + ids.ravel()[pos], return_index=True)
            r, j = np.divmod(pos[firsts], rounds)
            runs = moved[r]
            keep[runs, j] = True if d is None else _screen(
                K, tuple(a[..., d.rep][runs] for a in near), ids[r, j],
                cost[runs] - _STRICT_IMPROVEMENT)
            hit = ~ok[:, -1]  # the run would reach its first zero-weight draw, which raises
            keep[moved[hit], ok[hit].argmin(axis=1)] = True
        r, j = np.nonzero(keep & (keep.cumsum(axis=1) <= width[:, None]))  # in draw order
        if not r.size:
            break
        cand = draws[r, j]
        cols = dists_to_points(K, np.where(cand < 0, ~cand, cand))
        costs = _swap_costs(K, tuple(a[r] for a in near), cols)
        keep[r, j] = False
        win = np.flatnonzero((_min_k(costs) < cost[r] - _STRICT_IMPROVEMENT) & (cand >= 0))
        win = win[r[win] != np.append(-1, r[win])[:-1]]  # each run applies its first improver
        if np.any(cand < 0) and np.any(stuck := (cand < 0) & ~np.isin(r, r[win])):
            raise InvariantViolated(
                f"D^2 sampler drew point {~cand[stuck][0]}, which has zero weight")
        width[r] = np.minimum(2 * width[r], max_width)
        moved, j, costs = r[win], j[win], costs[win]
        p = np.argmin(costs, axis=1)  # first minimum: lowest position wins ties
        centers[moved, p] = cand[win]
        cost[moved] = costs[np.arange(moved.size), p]
        swaps[moved] += 1
        cd[moved, :, p] = cols[:, win].T
        t[moved] = j + 1

    # the columns and exact costs are those of each run's centers scored on their own
    out = [SeedingResult(centers[b], Assignment.from_labels(np.argmin(cd[b], axis=1), k),
                         float(cost[b]), int(swaps[b])) for b in range(B)]
    for b in np.flatnonzero(used < rounds):  # hand back the rounds a stopped run did not use
        rngs[b].bit_generator.state = states[b]
        rngs[b].random(used[b])
        if any(r is rngs[b] for r in rngs[b + 1 :]):  # they drew from the wrong place
            return out[: b + 1] + [_runs(K, k, [r], rounds)[0] for r in rngs[b + 1 :]]
    return out


def kernel_kmeanspp(K: GramMatrix, k: int, rng=None) -> SeedingResult:
    """D^2-sampling seeding on kernel distances.

    The first center is uniform over the points; each later one is drawn
    proportionally to the squared distance from the centers chosen so far.
    If every point sits exactly on a chosen center before k are chosen
    (duplicated data), ``EmptyCluster``.
    """
    seed = _runs(K, k, [ensure_rng(rng)], 0)[0]
    return replace(seed, cost=cluster_cost(K, seed.induced))


def local_search_improve(
    K: GramMatrix,
    seed: SeedingResult,
    rounds: int,
    rng=None,
) -> SeedingResult:
    """Improve a seeding by D^2-sampled single-center swaps.

    Per round: draw a candidate point by D^2 sampling against the current
    centers, try swapping it for each center in turn, and keep the best
    strictly improving swap if any.  A batch of one ``_runs``, whose result
    and generator state are the round-by-round loop's.  A seed fitted on a
    Gram of another size is a ``ValueError``.
    """
    if seed.induced.n != K.n:
        raise ValueError("seed and Gram matrix disagree on n")
    if rounds == 0:
        return seed
    return _runs(K, len(seed.center_indices), [ensure_rng(rng)], rounds, [seed])[0]


def _erm_runs(K: GramMatrix, k: int, rngs, rounds: int | None = None, max_iter: int = 300,
              rel_tol: float = 1e-9) -> list[tuple]:
    """``approximate_erm`` once per generator in ``rngs`` (see ``_runs``).
    Lloyd is deterministic, so each distinct start runs once, and restarts
    from one start share its assignment and read-only trace: one ``_kernel_lloyd``
    batch.  A bad ``max_iter`` or ``rel_tol`` is rejected before any draw."""
    _check_lloyd(max_iter, rel_tol)
    runs = _runs(K, k, rngs, 25 * k if rounds is None else rounds)
    starts = {s.induced.labels.tobytes(): s.induced for s in runs}  # in first-seen order
    fits = dict(zip(starts, _kernel_lloyd(K, list(starts.values()), max_iter, rel_tol)))
    return [(*fits[s.induced.labels.tobytes()], s.swaps_accepted) for s in runs]


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
    return _erm_runs(K, k, [ensure_rng(rng)], rounds, max_iter, rel_tol)[0]
