"""Shared test oracles, kept independent of the library's own computations."""

import math
import warnings

import numpy as np

from kkmlab.clustering import (
    Assignment,
    ClusterCostTrace,
    _chunk_costs,
    _cluster_linkage,
    _grow_partitions,
    _point_center_dists,
    _repair_empty,
    cluster_cost,
    kernel_lloyd,
)
from kkmlab.errors import (
    EmptyCluster,
    InvariantViolated,
    NonFiniteInput,
    NormalizationViolated,
    SingularLandmarkBlockWarning,
)
from kkmlab.kernels import GramMatrix, _cost_margin, _rounding_margin, dists_to_points
from kkmlab.nystrom import (
    _zspace_cost,
    euclidean_kmeanspp_labels,
    euclidean_lloyd,
    landmark_coefficients,
    nystrom_embed,
    sample_landmarks_uniform,
)
from kkmlab.rademacher import _BLOCK, _batch_suprema, _sign_block
from kkmlab.risk import _weighted_mean_centers, population_risk
from kkmlab.seeding import SeedingResult, approximate_erm


def kernel_value(spec, x, y) -> float:
    """kappa(x, y) on a single pair of points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.family == "gaussian":
        d2 = float(np.sum((x - y) ** 2))
        return math.exp(-d2 / (2.0 * spec.bandwidth**2))
    if spec.family == "linear":
        return float(np.dot(x, y))
    return float((np.dot(x, y) + spec.offset) ** spec.degree)


def kernel_dist_sq(K, i: int, j: int) -> float:
    """Squared feature-space distance between points i and j, clamped at 0."""
    n = K.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) outside [0, {n})")
    val = K.diag[i] - 2.0 * K.entries[i, j] + K.diag[j]
    return max(float(val), 0.0)


def blob_labels(n: int) -> np.ndarray:
    """Ground-truth membership for ``two_blob_points`` output."""
    labels = np.ones(n, dtype=np.int64)
    labels[: (n + 1) // 2] = 0
    return labels


def reference_coordinate_rad(data) -> float:
    """Every sign pattern's supremum evaluated block by block: the reference
    for the exact ``coordinate_rad``."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    total = 0.0
    count = 2**n
    for start in range(0, count, _BLOCK):
        signs = _sign_block(start, min(start + _BLOCK, count), n)
        total += float(_batch_suprema(data, signs).sum())
    return total / count


def reference_min_dist_table(data, center_sets) -> np.ndarray:
    """One class at a time: the reference for the stacked ``_min_dist_table``."""
    norms2 = np.einsum("ij,ij->i", data, data)
    rows = []
    for centers in center_sets:
        centers = np.asarray(centers, dtype=float)
        csq = np.einsum("ij,ij->i", centers, centers)
        d = norms2[:, None] - 2.0 * (data @ centers.T) + csq[None, :]
        rows.append(np.clip(d, 0.0, None).min(axis=1))
    return np.asarray(rows)


def reference_finite_class_rad(data, center_sets) -> float:
    """Every complementary pair of sign patterns evaluated block by block: the
    reference for the exact ``finite_class_rad``."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    V = reference_min_dist_table(data, center_sets)
    half = 2 ** (n - 1)
    total = 0.0
    for start in range(0, half, _BLOCK):
        # patterns with sigma_n = -1; the complement supplies the rest
        signs = _sign_block(start, min(start + _BLOCK, half), n)
        U = V @ signs.T
        total += float((U.max(axis=0) + (-U).max(axis=0)).sum())
    return total / 2**n


def reference_khintchine_lhs(block: int) -> float:
    """Half of E|S_b| from the binomial law of the sign sum: the sum that
    ``khintchine_check`` used up to block 20 before its closed form."""
    num = sum(math.comb(block, j) * abs(2 * j - block) for j in range(block + 1))
    return num / 2 ** (block + 1)


def _labels_cost(K, labels, k):
    """Mean-centroid cost of a labeling, or +inf if some cluster is empty."""
    sizes = np.bincount(labels, minlength=k)
    if np.any(sizes == 0):
        return np.inf
    G = (labels[:, None] == np.arange(k)[None, :]).astype(float)
    T = np.einsum("ij,ij->j", G, K.entries @ G)
    cost = (float(np.sum(K.diag)) - float(np.sum(T / sizes))) / K.n
    return max(cost, 0.0)


def reference_gram(spec, X):
    """Whole-matrix Gram build with a symmetrizing copy: the reference for
    the one-buffer ``gram_matrix``."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty (n, d) array")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("input points contain non-finite values")

    inner = X @ X.T
    sq = np.diagonal(inner)
    if spec.family == "gaussian":
        d2 = sq[:, None] + sq[None, :] - 2.0 * inner
        np.clip(d2, 0.0, None, out=d2)
        K = np.exp(-d2 / (2.0 * spec.bandwidth**2))
    elif spec.family == "linear":
        K = inner
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            K = (inner + spec.offset) ** spec.degree
    if not (np.isfinite(K.min()) and np.isfinite(K.max())):
        raise NonFiniteInput(f"the {spec.family} kernel overflows on these points")

    if spec.normalize and spec.family != "gaussian":
        if np.any(np.diagonal(K) > 1.0 + 1e-12):
            raise NormalizationViolated("normalization flag set but some kappa(x, x) > 1")
    return GramMatrix.from_entries(K, np.unique(X, axis=0, return_inverse=True)[1])


def reference_onehot(labels, k, weights=None):
    """The one-hot stack broadcast against ``np.arange(k)``, weighted by
    multiplying, and numpy's sum of it over the points: the reference for
    ``clustering._onehot``."""
    G = (labels[..., None] == np.arange(k)).astype(float)
    if weights is not None:
        G *= weights[:, None]
    return G, G.sum(axis=-2)


def reference_weighted_partition_costs(K, w, chunk, k):
    """Weighted partition costs from the broadcast one-hot stack and numpy's
    sum of it: the reference for ``risk._weighted_partition_costs``."""
    Gw, Wc = reference_onehot(chunk, k, w)
    T = np.einsum("bik,bik->bk", Gw, np.matmul(K, Gw))
    return float(w @ np.diagonal(K)) - np.sum(T / np.where(Wc > 0, Wc, 1.0), axis=1)


def reference_chunk_costs(K, diag_sum, chunk_labels, k):
    """Chunk costs with block sizes summed from the float one-hot: the
    reference for ``clustering._chunk_costs``."""
    G = (chunk_labels[:, :, None] == np.arange(k)[None, None, :]).astype(float)
    KG = np.matmul(K, G)
    T = np.einsum("bik,bik->bk", G, KG)
    sizes = G.sum(axis=1)
    return (diag_sum - np.sum(T / sizes, axis=1)) / K.shape[0]


def iter_label_chunks(n: int, k: int, chunk: int = 4096):
    """Every partition of n items into exactly k nonempty blocks, as (B, n)
    int64 labels: restricted-growth strings in lexicographic order, ``chunk``
    rows a chunk except the last, nothing when k > n.  The library's
    enumerator on a zero Gram, where no prefix is pruned; a test pins its
    order to ``reference_label_chunks``."""
    if not 1 <= k <= n:
        return
    buf = np.empty((0, n), dtype=np.int64)
    for prefix, r, b, _ in _grow_partitions(np.zeros((n, n)), np.ones(n), k):
        buf = np.concatenate((buf, np.column_stack((prefix[r], b))))
        full = len(buf) - len(buf) % chunk
        yield from (buf[s : s + chunk] for s in range(0, full, chunk))
        buf = buf[full:]
    if len(buf):
        yield buf


def reference_brute_force_erm(K, k):
    """Every partition scored by ``_chunk_costs``, the first strict minimum
    kept: the reference for the screened ``brute_force_erm``."""
    n = K.n
    if k == n:
        return Assignment.from_labels(np.arange(n, dtype=np.int64), k), 0.0
    diag_sum = float(np.sum(K.diag))
    best_cost = np.inf
    best_labels = None
    for chunk in iter_label_chunks(n, k):
        costs = _chunk_costs(K.entries, diag_sum, chunk, k)
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_labels = chunk[idx]
    if best_labels is None:
        raise InvariantViolated(f"no partition of {n} points into {k} blocks was scored")
    return Assignment.from_labels(best_labels, k), max(best_cost, 0.0)


def reference_optimal_risk(P, k: int) -> float:
    """Every partition of the atoms into k < n_atoms blocks scored by
    ``reference_weighted_partition_costs``: the reference for ``optimal_risk``'s
    exact search."""
    best = np.inf
    for chunk in iter_label_chunks(P.n_atoms, k):
        costs = reference_weighted_partition_costs(P.gram.entries, P.weights, chunk, k)
        best = min(best, float(costs.min()))
    return max(best, 0.0)


def reference_weighted_lloyd_labels(K, w, labels, k):
    """The surrogate's former polish, a weighted Lloyd loop of its own: no
    empty-cluster repair (an emptied cluster's weighted mean is the origin);
    stops when the labels repeat or after 100 steps."""
    for _ in range(100):
        D = _point_center_dists(K, *_cluster_linkage(K.entries, labels, k, w))
        new_labels = np.argmin(D, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def reference_surrogate_risk(P, k: int, runs: int):
    """``optimal_risk``'s surrogate with the reference polish: the same seeded
    ``approximate_erm`` fits, each polished, scored by the population risk of
    its weighted means.  Also returns how many fits the polish moved."""
    seed_base = 0 if P.generator_seed is None else int(P.generator_seed)
    best, moved = np.inf, 0
    for run in range(runs):
        a, _, _ = approximate_erm(P.gram, k, rng=np.random.default_rng([seed_base, 0x5EED, k, run]))
        labels = reference_weighted_lloyd_labels(P.gram, P.weights, a.labels, k)
        moved += not np.array_equal(labels, a.labels)
        best = min(best, population_risk(P, _weighted_mean_centers(P.weights, labels, k)))
    return max(best, 0.0), moved


def _iter_exact_partitions(n: int, k: int):
    """Canonical restricted-growth labelings of n items into exactly k blocks."""
    labels = np.zeros(n, dtype=np.int8)

    def rec(i: int, used: int):
        if n - i < k - used:
            return  # cannot open the remaining blocks
        if i == n:
            if used == k:
                yield labels.copy()
            return
        top = min(used + 1, k)
        for b in range(top):
            labels[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(1, 1)


def reference_label_chunks(n: int, k: int, chunk: int = 4096):
    """One Python step per partition: the reference for ``iter_label_chunks``."""
    buf = []
    for lab in _iter_exact_partitions(n, k):
        buf.append(lab)
        if len(buf) == chunk:
            yield np.asarray(buf, dtype=np.int64)
            buf = []
    if buf:
        yield np.asarray(buf, dtype=np.int64)


def grid_supremum(data, sigma, rounds=4, res=81):
    """Refining 2-d grid search for sup_{||c||<=1} sum_j sigma_j ||phi_j-c||^2.

    The objective depends on c only through its component along v = sum
    sigma_j phi_j and its norm, so the search runs over the unit disk of the
    2-d span {v_hat, w} and zooms in around the best cell each round.
    Independent of the closed-form branch logic.
    """
    data = np.asarray(data, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s = float(sigma.sum())
    v = sigma @ data
    nv = float(np.linalg.norm(v))
    base = float(sigma @ np.einsum("ij,ij->i", data, data))

    lo_a, hi_a, lo_b, hi_b = -1.0, 1.0, -1.0, 1.0
    best = -np.inf
    for _ in range(rounds):
        a = np.linspace(lo_a, hi_a, res)
        b = np.linspace(lo_b, hi_b, res)
        A, B = np.meshgrid(a, b, indexing="ij")
        R2 = A**2 + B**2
        g = np.where(R2 <= 1.0, s * R2 - 2.0 * A * nv, -np.inf)
        flat = int(np.argmax(g))
        ia, ib = np.unravel_index(flat, g.shape)
        best = max(best, float(g[ia, ib]))
        ca, cb = a[ia], b[ib]
        half = 2.0 * (hi_a - lo_a) / (res - 1)
        lo_a, hi_a = max(ca - half, -1.0), min(ca + half, 1.0)
        half_b = 2.0 * (hi_b - lo_b) / (res - 1)
        lo_b, hi_b = max(cb - half_b, -1.0), min(cb + half_b, 1.0)
    return base + best


def result_for_centers(K, centers, swaps: int) -> SeedingResult:
    """The centers' result scored on its own by ``cluster_cost``: the
    reference for the seeds and results of ``seeding._runs``."""
    labels = np.argmin(dists_to_points(K, centers), axis=1)  # ties: lowest position
    induced = Assignment.from_labels(labels, len(centers))
    if np.any(induced.cluster_sizes == 0):
        raise EmptyCluster("duplicate data points left a center with no cell")
    centers = np.asarray(centers, dtype=np.int64)
    return SeedingResult(centers, induced, cluster_cost(K, induced), swaps)


def sequential_local_search(K, seed, rounds, rng):
    """Round-by-round D^2 local search: the reference for ``seeding._runs``.

    One ``rng.random()`` per round, every swap scored on its own by
    ``_labels_cost``; returns the result and the indices of the rounds that
    accepted a swap.
    """
    if rounds == 0:
        return seed, []
    centers = np.asarray(seed.center_indices, dtype=np.int64).copy()
    cost = float(seed.cost)
    swaps = int(seed.swaps_accepted)
    k = len(centers)
    center_dists = dists_to_points(K, centers)
    d2 = center_dists.min(axis=1)
    accepted = []
    for r in range(rounds):
        if d2.sum() <= 0.0:
            break
        cdf = (d2 / float(d2.sum())).cumsum()
        cdf /= cdf[-1]
        cand = int(cdf.searchsorted(rng.random(), side="right"))
        if not d2[cand] > 0.0:
            raise InvariantViolated(f"D^2 sampler drew point {cand}, which has zero weight")
        cand_col = dists_to_points(K, [cand])[:, 0]
        costs = []
        for pos in range(k):
            trial = center_dists.copy()
            trial[:, pos] = cand_col
            costs.append(_labels_cost(K, np.argmin(trial, axis=1).astype(np.int64), k))
        best_pos = int(np.argmin(costs))
        if costs[best_pos] < cost - 1e-12:
            centers[best_pos] = cand
            cost = costs[best_pos]
            swaps += 1
            accepted.append(r)
            center_dists[:, best_pos] = cand_col
            d2 = center_dists.min(axis=1)
    return result_for_centers(K, centers, swaps=swaps), accepted


def sequential_kmeanspp(K, k, rng):
    """One ``rng.choice`` D^2 draw per center after a uniform first one: the
    reference for the seeding of ``seeding._runs``.  Once every point sits on
    a center, no further center could get a cell: ``EmptyCluster``."""
    centers = [int(rng.integers(K.n))]
    for _ in range(1, k):
        d2 = dists_to_points(K, centers).min(axis=1)
        if not d2.sum() > 0.0:
            raise EmptyCluster("every point sits on a center")
        centers.append(int(rng.choice(K.n, p=d2 / float(d2.sum()))))
    return result_for_centers(K, np.asarray(centers), swaps=0)


def reference_approximate_erm(K, k, rounds, rng):
    """``sequential_kmeanspp``, ``sequential_local_search`` and Lloyd: the
    reference for ``approximate_erm``."""
    seed = sequential_kmeanspp(K, k, rng)
    improved, _ = sequential_local_search(K, seed, rounds, rng)
    return (*kernel_lloyd(K, improved.induced), improved.swaps_accepted)


def reference_fit_once(K, k, method, policy, rng):
    """``risk._fit_once`` with a Lloyd run for every restart, keeping the
    first strictly lowest cost: the reference for its once-per-start fits."""
    best_cost, best = np.inf, None
    if method != "nystrom":
        for _ in range(20 if method == "exact_erm_approx" else 1):
            a, trace, _ = approximate_erm(K, k, rng=rng)
            if float(trace.per_iteration_cost[-1]) < best_cost:
                best_cost, best = float(trace.per_iteration_cost[-1]), a.labels
        G = (best[:, None] == np.arange(k)).astype(float)
        return best_cost, (G / G.sum(axis=0)).T, 0.0
    m = policy.landmarks_for(K, K.n, k)
    L = sample_landmarks_uniform(K.n, m, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularLandmarkBlockWarning)
        emb = nystrom_embed(K, L)
    resid = float(np.mean(emb.residuals))
    for _ in range(20):
        a, trace = euclidean_lloyd(emb.coords, euclidean_kmeanspp_labels(emb.coords, k, rng))
        if float(trace.per_iteration_cost[-1]) + resid < best_cost:
            best_cost, best = float(trace.per_iteration_cost[-1]) + resid, a
    gamma = np.zeros((k, K.n))
    np.add.at(gamma.T, L.indices, landmark_coefficients(emb, best).T)
    return best_cost, gamma, float(m)


def reference_lloyd(init, fit, max_iter, rel_tol, margin):
    """One start's Lloyd loop, ``fit(labels)`` giving its cost and a callable
    for its (n, k) distances: the reference for the batched ``_lloyd``."""
    labels, k = init.labels, init.k
    if np.any(init.cluster_sizes == 0):
        raise EmptyCluster("initial assignment has an empty cluster")
    cost, dists = fit(labels)
    costs, converged = [cost], False
    for iterations in range(1, max_iter + 1):
        D = dists()
        new_labels = np.argmin(D, axis=1)
        if np.any(np.bincount(new_labels, minlength=k) == 0):
            new_labels = _repair_empty(new_labels, k, D[np.arange(len(D)), new_labels])
        if np.array_equal(new_labels, labels):
            costs.append(costs[-1])
            converged = True
            break
        cost, dists = fit(new_labels)
        costs.append(cost)
        labels = new_labels
        prev = costs[-2]
        if cost > prev and cost - prev > margin():
            raise InvariantViolated(f"a Lloyd step raised the cost from {prev!r} to {cost!r}")
        if ((prev - cost) / prev if prev > 0 else 0.0) < rel_tol:
            converged = True
            break
    return Assignment.from_labels(labels, k), ClusterCostTrace(np.asarray(costs), converged,
                                                               iterations)


def reference_kernel_lloyd(K, init, max_iter=300, rel_tol=1e-9):
    """``reference_lloyd`` with one labeling's Gram product a step."""
    k = init.k

    def fit(labels):
        G = (labels[:, None] == np.arange(k)).astype(float)
        KG = K.entries @ G
        T, sizes = np.einsum("ij,ij->j", G, KG), G.sum(axis=0)
        cost = max((float(np.sum(K.diag)) - float(np.sum(T / sizes))) / K.n, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            D = K.diag[:, None] - 2.0 * KG / sizes[None, :] + (T / sizes**2)[None, :]
        D[:, sizes == 0] = np.inf
        return cost, lambda: np.clip(D, 0.0, None)

    return reference_lloyd(init, fit, max_iter, rel_tol, lambda: _cost_margin(K))


def _reference_sq_dists(Z, C):
    return np.einsum("ij,ij->i", Z, Z)[:, None] - 2.0 * (Z @ C.T) + np.einsum("ij,ij->i", C, C)


def reference_euclidean_lloyd(Z, init, max_iter=300, rel_tol=1e-9):
    """``reference_lloyd`` on coordinates, one labeling's centers a step."""
    k = init.k

    def fit(labels):
        G = (labels[:, None] == np.arange(k)).astype(float)
        sizes = G.sum(axis=0)

        def dists():
            with np.errstate(divide="ignore", invalid="ignore"):
                D = _reference_sq_dists(Z, (G.T @ Z) / sizes[:, None])
            D[:, sizes == 0] = np.inf
            return np.clip(D, 0.0, None)

        return _zspace_cost(Z, labels, k), dists

    zz_max = float(np.einsum("ij,ij->i", Z, Z).max())
    return reference_lloyd(init, fit, max_iter, rel_tol, lambda: _rounding_margin(len(Z), zz_max))


def reference_euclidean_kmeanspp(Z, k, rng):
    """One ``rng.choice`` D^2 draw per center after a uniform first one, on
    coordinates: the reference for the batched Euclidean seeding."""
    centers = [int(rng.integers(len(Z), size=1)[0])]
    for _ in range(1, k):
        d2 = np.min([np.sum((Z - Z[c]) ** 2, axis=1) for c in centers], axis=0)
        if not d2.sum() > 0.0:
            raise EmptyCluster("every point sits on a center")
        centers.append(int(rng.choice(len(Z), p=d2 / float(d2.sum()))))
    return Assignment.from_labels(np.argmin(_reference_sq_dists(Z, Z[centers]), axis=1), k)
