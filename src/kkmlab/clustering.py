"""Exact kernel k-means: cost evaluation, Lloyd iteration, brute-force ERM.

Centers are implicit cluster means in feature space, so every quantity is a
Gram-matrix expansion.  The empirical criterion is always normalized by 1/n;
unnormalized sums are never exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import ensure_rng
from .errors import (
    EmptyCluster,
    InstanceTooLarge,
    InvariantViolated,
    KTooLarge,
    KTooSmall,
)
from .kernels import GramMatrix, _cost_margin

__all__ = [
    "Assignment",
    "ClusterCostTrace",
    "cluster_cost",
    "kernel_lloyd",
    "brute_force_erm",
    "random_assignment",
]

_SEARCH_MAX_N, _SEARCH_MAX_K = 12, 4  # the exact search's limit: S(12, 4) = 611,501 leaves
_WIDE_MIN_ROWS = 1024  # 1.1 ms wide against 6.6 ms stacked at k=2, B=10: ROADMAP.md's table


@dataclass(frozen=True)
class Assignment:
    """Partition of n points into k clusters (labels in [0, k))."""

    labels: np.ndarray
    k: int
    cluster_sizes: np.ndarray

    @classmethod
    def from_labels(cls, labels, k: int) -> "Assignment":
        values = np.asarray(labels)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("labels must be a nonempty 1-d array")
        if k < 1:
            raise ValueError("k must be >= 1")
        if values.min() < 0 or values.max() >= k or values.dtype.kind == "f" and (values % 1).any():
            raise ValueError(f"labels must be integers in [0, {k})")
        labels = values.astype(np.int64)  # a copy
        sizes = np.bincount(labels, minlength=k).astype(np.int64)
        labels.setflags(write=False)
        sizes.setflags(write=False)
        return cls(labels=labels, k=k, cluster_sizes=sizes)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class ClusterCostTrace:
    """Cost after the initial assignment and after each Lloyd step."""

    per_iteration_cost: np.ndarray
    converged: bool
    iterations: int


def _onehot(labels: np.ndarray, k: int, weights=None):
    """The (..., n, k) one-hot stack of (..., n) labels, each point's weight
    (1 by default) in its cluster's column and +0 elsewhere, and its sum over
    the points bit for bit: a bincount over label + k * labeling adds in row
    order as numpy's sum does at k >= 2, but at k = 1 numpy sums pairwise."""
    w = None if weights is None else np.broadcast_to(weights, labels.shape).ravel()
    G, n = np.zeros((*labels.shape, k)), labels.shape[-1]
    G.reshape(-1)[np.arange(0, G.size, k) + labels.ravel()] = 1.0 if w is None else w
    if k == 1:
        return G, G.sum(axis=-2)
    idx = (labels.reshape(-1, n) + np.arange(0, G.size // n, k)[:, None]).ravel()
    return G, np.bincount(idx, w, minlength=G.size // n).reshape(*labels.shape[:-1], k)


def _gram_products(M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``np.matmul(M, G)`` for an (n, k) or (B, n, k) one-hot stack; from
    ``_WIDE_MIN_ROWS`` rows at k, B >= 2, one (n, B k) product that reads M once.
    OpenBLAS 0.3.31 keeps each product's bits there (not at k = 1 or n < 768)
    except on Haswell kernels at odd n unless 4 | k, or n = 2 mod 4 on two threads."""
    if G.ndim < 3 or len(G) < 2 or G.shape[2] < 2 or len(M) < _WIDE_MIN_ROWS:
        return np.matmul(M, G)
    B, n, k = G.shape
    return (M @ G.transpose(1, 0, 2).reshape(n, B * k)).reshape(n, B, k).transpose(1, 0, 2)


def _cluster_linkage(M: np.ndarray, labels: np.ndarray, k: int, weights=None):
    """Per-cluster sums of the Gram entries M: KG[i, j] = sum_{t in C_j} w_t M_it,
    T[j] = sum_{t, t' in C_j} w_t w_t' M_tt' and sizes[j] = sum_{t in C_j} w_t,
    with every weight w_t = 1 unless ``weights`` are given; for a (B, n) stack
    of labelings, each with a leading B axis, by one ``_gram_products`` call."""
    G, sizes = _onehot(labels, k, weights)
    KG = _gram_products(M, G)
    return KG, np.einsum("...ij,...ij->...j", G, KG), sizes


def _linkage_cost(K: GramMatrix, T: np.ndarray, sizes: np.ndarray):
    """Mean-centroid cost from the per-cluster sums of a populated labeling,
    or one per row of a stack of them."""
    return np.maximum((float(np.sum(K.diag)) - np.sum(T / sizes, axis=-1)) / K.n, 0.0)


def cluster_cost(K: GramMatrix, a: Assignment) -> float:
    """Mean squared distance of each point to its cluster's feature mean."""
    if a.n != K.n:
        raise ValueError("assignment and Gram matrix disagree on n")
    if np.any(a.cluster_sizes == 0):
        raise EmptyCluster("cluster_cost needs every cluster populated")
    _, T, sizes = _cluster_linkage(K.entries, a.labels, a.k)
    return float(_linkage_cost(K, T, sizes))


def _point_center_dists(K: GramMatrix, KG: np.ndarray, T: np.ndarray, sizes: np.ndarray):
    """(n, k) squared distances to every cluster mean, from the labeling's
    ``_cluster_linkage``, or (B, n, k) from a stack's; empty clusters get +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        D = K.diag[:, None] - 2.0 * KG / sizes[..., None, :] + (T / sizes**2)[..., None, :]
    return np.clip(np.where(sizes[..., None, :] == 0, np.inf, D), 0.0, None)


def _repair_empty(labels: np.ndarray, k: int, dist_to_own: np.ndarray) -> np.ndarray:
    """Move the worst-served point into each empty cluster, one at a time.

    Points that are sole members of their cluster are not eligible donors.
    """
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(sizes == 0):
        eligible = sizes[labels] > 1
        if not np.any(eligible):
            raise EmptyCluster("cannot repair: no cluster has two points")
        cand = np.where(eligible, dist_to_own, -np.inf)
        donor = int(np.argmax(cand))
        sizes[labels[donor]] -= 1
        labels[donor] = j
        sizes[j] += 1
    return labels


def _check_lloyd(max_iter: int, rel_tol: float) -> None:
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not rel_tol >= 0:
        raise ValueError("rel_tol must be >= 0")


def _lloyd(inits, fit, max_iter: int, rel_tol: float, margin):
    """Lloyd iteration from each start in ``inits`` (one k), in lockstep, in
    the geometry that ``fit`` describes: ``fit(labels)`` returns the costs of a
    (b, n) stack of labelings and a callable giving, for some ``rows`` of the
    stack, the (len(rows), n, k) squared distances from every point to its
    cluster means.  A step that raises a run's cost by more than ``margin()``,
    a rounding bound, is ``InvariantViolated``.

    Each step reassigns every point to its nearest center (ties broken toward
    the lowest cluster index).  A cluster that empties is repaired by donating
    the point currently farthest from its own center, which keeps k fixed and
    never increases the cost.  A run stops when its labels are unchanged
    (their cost is repeated, not refit), its relative cost drop falls below
    ``rel_tol``, or ``max_iter`` is reached; each step fits only the runs
    still moving.  Returns one (assignment, trace) per start, each what a
    batch of its own returns; the traces' costs are read-only.
    """
    _check_lloyd(max_iter, rel_tol)
    if any(np.any(a.cluster_sizes == 0) for a in inits):
        raise EmptyCluster("initial assignment has an empty cluster")

    labels, k = np.array([a.labels for a in inits]), inits[0].k
    cost, dists = fit(labels)
    costs = [[float(c)] for c in cost]
    converged, iterations = [False] * len(inits), [max_iter] * len(inits)
    live = rows = np.arange(len(inits))  # the moving runs, and their rows in the last fit
    for it in range(1, max_iter + 1):
        D = dists(rows)
        new = np.argmin(D, axis=-1)
        counts = np.bincount((new + k * np.arange(len(new))[:, None]).ravel(), minlength=k * len(new))
        for r in np.flatnonzero((counts.reshape(-1, k) == 0).any(axis=1)):
            new[r] = _repair_empty(new[r], k, D[r, np.arange(D.shape[1]), new[r]])
        same = (new == labels[live]).all(axis=1)
        for b in live[same]:
            costs[b].append(costs[b][-1])  # fit is deterministic: the same labels, the same bits
            converged[b], iterations[b] = True, it
        live, new = live[~same], new[~same]
        if not live.size:
            break
        labels[live] = new
        cost, dists = fit(new)
        moving = []
        for r, (b, c) in enumerate(zip(live, map(float, cost))):
            prev = costs[b][-1]
            costs[b].append(c)
            if c > prev and c - prev > margin():  # the margin only when a rise is seen
                raise InvariantViolated(f"a Lloyd step raised the cost from {prev!r} to {c!r}")
            iterations[b] = it
            if ((prev - c) / prev if prev > 0 else 0.0) < rel_tol:
                converged[b] = True
            else:
                moving.append(r)
        live, rows = live[moving], np.array(moving, dtype=np.int64)
        if not live.size:
            break

    out = []
    for b in range(len(inits)):
        trace = ClusterCostTrace(np.asarray(costs[b], dtype=float), converged[b], iterations[b])
        trace.per_iteration_cost.setflags(write=False)  # repeated restarts share one result
        out.append((Assignment.from_labels(labels[b], k), trace))
    return out


def _kernel_lloyd(K: GramMatrix, inits, max_iter: int, rel_tol: float):
    """``kernel_lloyd`` from each start in ``inits``, in one ``_lloyd`` batch."""

    def fit(labels):
        # one linkage of the live labelings per step gives their costs and the
        # next step's point-to-center distances: one wide product from 1024 rows
        KG, T, sizes = _cluster_linkage(K.entries, labels, inits[0].k)
        return _linkage_cost(K, T, sizes), lambda rows: _point_center_dists(
            K, KG[rows], T[rows], sizes[rows])

    return _lloyd(inits, fit, max_iter, rel_tol, lambda: _cost_margin(K))


def kernel_lloyd(K: GramMatrix, init: Assignment, max_iter: int = 300, rel_tol: float = 1e-9):
    """Lloyd iteration in feature space with centers at the implicit cluster
    means; steps, empty-cluster repair and stopping rules are ``_lloyd``'s."""
    if init.n != K.n:
        raise ValueError("init and Gram matrix disagree on n")
    return _kernel_lloyd(K, [init], max_iter, rel_tol)[0]


def _grow_partitions(K: np.ndarray, w: np.ndarray, k: int, cap=(np.inf,), rows=None, sums=None):
    """Yield the partitions of ``K``'s points, weighted by w >= 0, into exactly
    k nonempty blocks that complete the prefixes ``rows`` (the empty one by
    default), in lexicographic order: depth-first, 512 prefixes at a time, as
    ``(prefix, r, b, cost)``.  Leaf i is the row ``prefix[r[i]]`` followed by
    block ``b[i]``, so a caller builds only the rows it keeps.

    ``sums = (T, s, A)`` holds each prefix's block pair sums T (B, k), weights
    s and weighted row sums A (B, k, n - p) over the unlabelled columns, so
    placing point p in block b costs O(n): T_b += 2 w_p A_b[p] + w_p^2 K_pp,
    s_b += w_p, A_b += w_p K_p.  The partial scatter sum_{i<=p} w_i K_ii -
    sum_j T_j / s_j (0 for a weightless block), a leaf's cost, only grows as
    points join, so a child whose scatter exceeds ``cap[0]``, read as the
    child is made, is dropped with every completion."""
    n = len(w)
    if rows is None:
        rows, sums = np.zeros((1, 0), dtype=np.int64), (np.zeros((1, k)), np.zeros((1, k)),
                                                        np.zeros((1, k, n)))
    p = rows.shape[1]
    blocks = np.arange(k)
    lead = w[: p + 1] @ np.diagonal(K)[: p + 1]
    wp, pair = w[p], w[p] * w[p] * K[p, p]
    for s in range(0, len(rows), 512):  # small slices stay in cache
        prefix = rows[s : s + 512]
        used = prefix.max(axis=1, keepdims=True, initial=-1) + 1
        # a child opens at most one new block and leaves room for the rest
        fits = (blocks <= used) & (n - p > k - np.maximum(used, blocks + 1))
        r, b = np.nonzero(fits)  # row-major: children follow their parents' order
        parent, i = s + r, np.arange(len(r))
        T, sizes = sums[0][parent], sums[1][parent]
        T[i, b] += 2.0 * wp * sums[2][parent, b, 0] + pair
        sizes[i, b] += wp
        cost = lead - np.sum(T / np.where(sizes > 0, sizes, 1.0), axis=1)
        live = ~(cost > cap[0])  # a NaN never drops
        if not live.all():
            r, b, parent, T, sizes, cost = (a[live] for a in (r, b, parent, T, sizes, cost))
            if not r.size:
                continue
        if p + 1 == n:
            yield prefix, r, b, cost
        else:
            A = sums[2][:, :, 1:][parent]
            A[np.arange(len(r)), b] += wp * K[p, p + 1 :]
            yield from _grow_partitions(K, w, k, cap, np.column_stack((prefix[r], b)), (T, sizes, A))


def _partition_search(K: np.ndarray, w: np.ndarray, k: int, rescore, slack: float):
    """The first partition of ``K``'s points, weighted by w >= 0, into exactly
    k nonempty blocks of least ``rescore(rows)`` cost in ``_grow_partitions``'
    order, and that cost.  ``slack`` is 2m, where m bounds the gap between a
    partition's screen and its rescore, in the screen's units.

    Only partitions that screen within slack of the least screen so far,
    ``best_fast``, are rescored; the first strict minimum among them wins.  So
    each partition not rescored costs more than one seen, and one that ties
    the least rescored cost c* screens at most c* + m <= best_fast + slack:
    labels and cost are, bit for bit, those of rescoring every partition.
    After each batch of leaves, each prefix whose partial scatter exceeds
    ``best_fast + 2 slack`` is dropped (Koontz, Narendra and Fukunaga, IEEE
    Trans. Computers, 1975): that scatter is within m of its exact value, which
    no completion's exact cost undercuts, so each leaf below would screen above
    ``best_fast + slack`` and be rejected.  If every partition ties (identical
    points), nothing is pruned.  A NaN in ``K`` raises ``InvariantViolated``.

    ``kernels._rounding_margin`` bounds an unweighted evaluation's error by
    gamma_{3n+4} max|K| a point, so against the 1/n of ``_chunk_costs``, unit
    weights take m = n ``_cost_margin``.  Weight products and sums s_j add at
    most n + 4 roundings, for gamma_{4n+8} max|K| sum(w).  With sum(w) = 1
    within ``DistributionSpec``'s 1e-12, two such errors stay below
    4 gamma_{3n+8} max|K|, so m = 2 ``_cost_margin``.
    """
    best_fast = best_cost = np.inf
    best_labels, cap = None, [np.inf]  # cap[0]: the enumeration's pruning bound
    for prefix, r, b, fast in _grow_partitions(K, w, k, cap):
        best_fast = min(best_fast, float(fast.min()))
        cap[0] = best_fast + 2.0 * slack
        keep = fast <= best_fast + slack
        if not keep.any():
            continue
        near = np.column_stack((prefix[r[keep]], b[keep]))
        costs = rescore(near)
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_labels = near[idx]
    if best_labels is None:
        raise InvariantViolated(f"no partition of {len(w)} points into {k} blocks was scored")
    return best_labels, best_cost


def _chunk_costs(K: np.ndarray, diag_sum: float, chunk_labels: np.ndarray, k: int) -> np.ndarray:
    _, T, sizes = _cluster_linkage(K, chunk_labels, k)
    return (diag_sum - np.sum(T / sizes, axis=1)) / K.shape[0]


def brute_force_erm(K: GramMatrix, k: int):
    """Exact empirical risk minimizer by exhaustive partition enumeration.

    Restricting centers to cluster means is lossless (the mean minimizes
    within-cluster scatter, and optimal centers lie in the span of the data),
    so enumerating partitions into exactly k nonempty blocks is exact.
    Guarded to n <= 12 and k <= 4.  ``_partition_search`` finds the first
    partition of least ``_chunk_costs`` cost in restricted-growth order.
    """
    n = K.n
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds n={n}")
    if n > _SEARCH_MAX_N or k > _SEARCH_MAX_K:
        raise InstanceTooLarge(f"n={n}, k={k} beyond n<={_SEARCH_MAX_N}, k<={_SEARCH_MAX_K}")

    diag_sum = float(np.sum(K.diag))
    labels, cost = _partition_search(
        K.entries, np.ones(n), k, lambda rows: _chunk_costs(K.entries, diag_sum, rows, k),
        2.0 * n * _cost_margin(K))
    return Assignment.from_labels(labels, k), max(cost, 0.0)


def random_assignment(n: int, k: int, rng=None) -> Assignment:
    """Uniform random labels with every cluster guaranteed nonempty."""
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds n={n}")
    rng = ensure_rng(rng)
    labels = rng.integers(0, k, size=n)
    anchors = rng.permutation(n)[:k]
    labels[anchors] = np.arange(k)
    return Assignment.from_labels(labels, k)
