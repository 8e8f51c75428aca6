import hashlib

import numpy as np
import pytest

from kkmlab import (
    Assignment,
    KernelSpec,
    brute_force_erm,
    cluster_cost,
    gram_matrix,
    kernel_kmeanspp,
    kernel_lloyd,
    random_assignment,
)
import kkmlab.clustering as clustering_module
from kkmlab.datasets import two_blob_points
from kkmlab.errors import (
    EmptyCluster,
    InstanceTooLarge,
    KTooLarge,
    KTooSmall,
    NonFiniteInput,
)
from kkmlab.kernels import GramMatrix, _cost_margin
from kkmlab.risk import _weighted_partition_costs
from oracle_utils import (
    blob_labels,
    iter_label_chunks,
    reference_brute_force_erm,
    reference_chunk_costs,
    reference_kernel_lloyd,
    reference_label_chunks,
    reference_onehot,
)


def embedding_cost_oracle(K, labels, k):
    """Cost via explicit feature coordinates from an eigen-embedding.

    Materializes X = V sqrt(W) so that X X^T = K, then computes centroids
    and scatter directly; independent of the Gram-expansion path.
    """
    w, V = np.linalg.eigh(K.entries)
    w = np.clip(w, 0.0, None)
    X = V * np.sqrt(w)[None, :]
    total = 0.0
    for j in range(k):
        members = X[labels == j]
        centroid = members.mean(axis=0)
        total += float(np.sum((members - centroid) ** 2))
    return total / K.n


def labels_match_up_to_permutation(a, b, k):
    from itertools import permutations

    a = np.asarray(a)
    b = np.asarray(b)
    return any(np.array_equal(np.asarray(perm)[a], b) for perm in permutations(range(k)))


class TestClusterCost:
    def test_singleton_clusters_cost_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        a = Assignment.from_labels(np.arange(5), 5)
        assert cluster_cost(K, a) == 0.0

    def test_two_point_linear_instance(self):
        K = gram_matrix(KernelSpec("linear"), [[1.0, 0.0], [-1.0, 0.0]])
        a = Assignment.from_labels([0, 0], 1)
        # centroid is the origin, both points at squared distance 1
        assert cluster_cost(K, a) == pytest.approx(1.0, abs=1e-15)

    def test_matches_embedding_oracle(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(6, 2))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=0.8), X)
        for k in (1, 2, 3):
            for trial in range(5):
                a = random_assignment(6, k, rng)
                expect = embedding_cost_oracle(K, np.asarray(a.labels), k)
                assert cluster_cost(K, a) == pytest.approx(expect, abs=1e-8)

    @pytest.mark.parametrize("labels", [[0.5, 1.2], [0.0, np.nan], [0, 3], [-1, 0]])
    def test_non_integral_or_out_of_range_labels_rejected(self, labels):
        # [0.5, 1.2] used to be truncated to [0, 1] without a word
        with pytest.raises(ValueError, match="labels"):
            Assignment.from_labels(labels, 2)
        assert Assignment.from_labels([1.0, 0.0], 2).labels.tolist() == [1, 0]

    def test_empty_cluster_rejected(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(3))
        a = Assignment.from_labels([0, 0, 1], 3)
        with pytest.raises(EmptyCluster):
            cluster_cost(K, a)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n, k = int(rng.integers(5, 25)), int(rng.integers(2, 5))
            X = rng.normal(size=(n, 3))
            K = gram_matrix(KernelSpec("gaussian"), X)
            a = random_assignment(n, k, rng)
            perm = rng.permutation(n)
            Kp = GramMatrix.from_entries(K.entries[np.ix_(perm, perm)])
            ap = Assignment.from_labels(np.asarray(a.labels)[perm], k)
            c0 = cluster_cost(K, a)
            # mathematically equal; BLAS summation order costs a few ulps
            assert cluster_cost(Kp, ap) == pytest.approx(c0, rel=1e-13)


class TestOneHot:
    """``_onehot`` against the broadcast stack and numpy's sum of it, bit for
    bit, for one labeling and for stacks, with and without weights."""

    @staticmethod
    def assert_same(labels, k, weights=None):
        G, sizes = clustering_module._onehot(labels, k, weights)
        G_ref, sizes_ref = reference_onehot(labels, k, weights)
        assert G.shape == G_ref.shape and G.tobytes() == G_ref.tobytes()
        assert sizes.shape == sizes_ref.shape
        assert np.asarray(sizes, dtype=float).tobytes() == sizes_ref.tobytes()

    @pytest.mark.parametrize("k", range(1, 9))
    def test_equals_the_broadcast(self, k):
        g = np.random.default_rng([k, 0x0E])
        for rows in (1, 2, 7, 8, 9, 17, 64, 300):
            for shape in ((rows,), (5, rows)):
                labels = g.integers(0, k, size=shape)
                counts = g.integers(0, 4, size=rows).astype(float)
                real = g.random(rows)
                real[g.random(rows) < 0.3] = 0.0  # zero weights among them
                for weights in (None, np.ones(rows), counts, real):
                    self.assert_same(labels, k, weights)

    def test_one_cluster_keeps_numpy_pairwise_sum(self):
        # at k = 1 numpy sums more than 8 rows pairwise, which a bincount's
        # running sum does not reproduce
        g, differs = np.random.default_rng(7), 0
        for rows in (9, 10, 40, 300) * 5:
            labels, w = np.zeros((3, rows), dtype=np.int64), g.random(rows)
            running = np.bincount((labels + np.arange(3)[:, None]).ravel(), np.tile(w, 3))
            differs += running.tobytes() != reference_onehot(labels, 1, w)[1].ravel().tobytes()
            self.assert_same(labels, 1, w)
            self.assert_same(labels[0], 1, w)
        assert differs >= 5


class TestGramProducts:
    """``_gram_products`` against ``np.matmul`` on the same stack, bit for
    bit, where it makes one wide product, and the stacked path elsewhere."""

    @pytest.mark.parametrize("n", [1024, 1025, 1537, 2048, 2049])
    def test_wide_product_equals_stacked(self, n):
        g = np.random.default_rng([n, 0x6A])
        M = gram_matrix(KernelSpec("gaussian"), g.normal(size=(n, 3))).entries
        real = g.random(n)
        real[g.random(n) < 0.2] = 0.0  # zero weights among them
        for k in (2, 3, 5, 8, 12):
            for B in (2, 10):
                labels = g.integers(0, k, size=(B, n))
                for weights in (None, real):  # unit weights, and the weighted stacks
                    G, _ = clustering_module._onehot(labels, k, weights)
                    got = clustering_module._gram_products(M, G)
                    assert got.shape == (B, n, k)
                    assert got.tobytes() == np.matmul(M, G).tobytes(), (k, B, weights is None)

    @pytest.mark.parametrize("n, k, B, stacked", [(1023, 4, 10, 1), (2048, 1, 10, 1),
                                                  (2048, 4, 1, 1), (1024, 2, 2, 0)])
    def test_stacked_path_below_the_threshold(self, monkeypatch, n, k, B, stacked):
        calls, real = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a: calls.append(1) or real(*a))
        g = np.random.default_rng(n + k + B)
        M = g.random((n, n))
        G, _ = clustering_module._onehot(g.integers(0, k, size=(B, n)), k)
        got = clustering_module._gram_products(M, G)
        assert len(calls) == stacked
        assert got.tobytes() == real(M, G).tobytes()


class TestPointCenterDists:
    @staticmethod
    def dists(K, a):
        return clustering_module._point_center_dists(
            K, *clustering_module._cluster_linkage(K.entries, a.labels, a.k)
        )

    def test_own_singleton_cluster_zero(self):
        rng = np.random.default_rng(2)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(4, 2)))
        a = Assignment.from_labels([0, 1, 1, 1], 2)
        assert self.dists(K, a)[0, 0] == 0.0

    def test_two_point_centroid_distance(self):
        K = gram_matrix(KernelSpec("linear"), [[1.0, 0.0], [-1.0, 0.0]])
        a = Assignment.from_labels([0, 0], 1)
        assert self.dists(K, a)[:, 0] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_own_cluster_distances_sum_to_n_cost(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(9, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        a = random_assignment(9, 3, rng)
        own = self.dists(K, a)[np.arange(9), a.labels]
        assert own.sum() == pytest.approx(9 * cluster_cost(K, a), abs=1e-10)


class TestKernelLloyd:
    def test_stable_init_returns_after_one_iteration(self):
        X = two_blob_points(10, separation=20.0, rng=np.random.default_rng(3))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=3.0), X)
        a0 = Assignment.from_labels(blob_labels(10), 2)
        a1, trace = kernel_lloyd(K, a0)
        assert np.array_equal(a1.labels, a0.labels)
        assert trace.iterations == 1
        assert trace.converged

    def test_recovers_separated_blobs(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = two_blob_points(20, separation=10.0, spread=1.0, rng=rng)
            K = gram_matrix(KernelSpec("gaussian", bandwidth=4.0), X)
            init = random_assignment(20, 2, rng)
            a, _ = kernel_lloyd(K, init)
            if labels_match_up_to_permutation(blob_labels(20), a.labels, 2):
                hits += 1
        assert hits >= 99

    def test_never_beats_brute_force(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(6, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            _, opt = brute_force_erm(K, 2)
            a, trace = kernel_lloyd(K, random_assignment(6, 2, rng))
            assert trace.per_iteration_cost[-1] >= opt - 1e-10

    def test_traces_monotone(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(8, 60)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, 3))
            fam = KernelSpec("gaussian", bandwidth=1.5) if seed % 2 else KernelSpec("linear")
            K = gram_matrix(fam, X)
            _, trace = kernel_lloyd(K, random_assignment(n, k, rng))
            c = trace.per_iteration_cost
            assert np.all(np.diff(c) <= 1e-9 * np.maximum(c[:-1], 1e-300))

    def test_empty_init_rejected(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(3))
        with pytest.raises(EmptyCluster):
            kernel_lloyd(K, Assignment.from_labels([0, 0, 1], 3))

    def test_gram_keeps_nothing(self):
        # kernel_lloyd and cluster_cost used to keep results and sums on K
        K, a0 = self.blob_instance(1, 50, 3, "random")
        before = set(vars(K))
        a, _ = kernel_lloyd(K, a0)
        cluster_cost(K, a)
        assert set(vars(K)) == before

    def test_labels_read_with_another_k_raise_empty_cluster(self):
        K, a0 = self.blob_instance(3, 80, 4, "random")
        kernel_lloyd(K, a0)
        with pytest.raises(EmptyCluster):
            kernel_lloyd(K, Assignment.from_labels(a0.labels, a0.k + 1))

    @staticmethod
    def blob_instance(seed, n, k, init):
        rng = np.random.default_rng(seed)
        centers = 3.0 * rng.normal(size=(k, 2))
        X = centers[rng.integers(k, size=n)] + rng.normal(size=(n, 2))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.5), X)
        a0 = random_assignment(n, k, rng) if init == "random" else kernel_kmeanspp(K, k, rng).induced
        return K, a0

    @pytest.mark.parametrize(
        "seed, n, k, init, max_iter, labels_sha, iterations, converged, cost",
        [
            (5, 300, 5, "random", 300, "c920ac6201445eb1", 8, True, 0.466957115020251),
            (11, 320, 6, "kmeanspp", 300, "31329fe0fdd31b29", 17, True, 0.4092316759850549),
            # one empty-cluster repair on the way
            (0, 300, 12, "random", 300, "96f1f5b0a6228544", 11, True, 0.3153555829913547),
            (23, 400, 10, "kmeanspp", 4, "04f443f40ce25fd1", 4, False, 0.34147358648192605),
        ],
    )
    def test_fixed_seed_regression(
        self, seed, n, k, init, max_iter, labels_sha, iterations, converged, cost
    ):
        # pinned from the loop that recomputed the Gram product for the cost
        K, a0 = self.blob_instance(seed, n, k, init)
        a, trace = kernel_lloyd(K, a0, max_iter=max_iter)
        assert hashlib.sha256(a.labels.tobytes()).hexdigest()[:16] == labels_sha
        assert trace.iterations == iterations
        assert trace.converged is converged
        assert trace.per_iteration_cost.size == iterations + 1
        assert trace.per_iteration_cost[-1] == pytest.approx(cost, rel=1e-12, abs=0.0)

    def test_one_linkage_per_step(self, monkeypatch):
        calls = []
        real = clustering_module._cluster_linkage
        monkeypatch.setattr(
            clustering_module, "_cluster_linkage", lambda *a: calls.append(1) or real(*a)
        )
        K, a0 = self.blob_instance(0, 300, 12, "random")
        # one product for the initial labels and one per step that moves a
        # point; the final step moves none and repeats the last cost
        _, trace = kernel_lloyd(K, a0)
        assert trace.iterations > 1
        assert trace.per_iteration_cost[-1] == trace.per_iteration_cost[-2]
        assert len(calls) == trace.iterations
        calls.clear()
        _, trace = kernel_lloyd(K, a0, max_iter=4)
        assert not trace.converged
        assert len(calls) == trace.iterations + 1


class TestBatchedKernelLloyd:
    """Starts fitted as one ``_kernel_lloyd`` batch equal ``kernel_lloyd`` per
    start and the one-start reference loop, bit for bit."""

    @staticmethod
    def assert_batch_equals_calls(K, inits, max_iter, rel_tol=1e-9):
        got = clustering_module._kernel_lloyd(K, inits, max_iter, rel_tol)
        for (a, trace), init in zip(got, inits, strict=True):
            for a_ref, trace_ref in (kernel_lloyd(K, init, max_iter, rel_tol),
                                     reference_kernel_lloyd(K, init, max_iter, rel_tol)):
                assert np.array_equal(a.labels, a_ref.labels)
                assert trace.per_iteration_cost.tobytes() == trace_ref.per_iteration_cost.tobytes()
                assert trace.converged is trace_ref.converged
                assert trace.iterations == trace_ref.iterations

    def test_random_and_seeded_starts(self, monkeypatch):
        repairs, real = [], clustering_module._repair_empty
        monkeypatch.setattr(clustering_module, "_repair_empty",
                            lambda *a: repairs.append(1) or real(*a))
        for inst in range(120):
            g = np.random.default_rng([inst, 0xBA7])
            n, k = int(g.integers(8, 257)), int(g.integers(1, 9))
            spec = KernelSpec("gaussian", bandwidth=1.5) if inst % 2 else KernelSpec("linear")
            K = gram_matrix(spec, g.normal(size=(n, 3)))
            inits = [random_assignment(n, k, g) if s % 2 else kernel_kmeanspp(K, k, g).induced
                     for s in range(int(g.integers(1, 8)))]
            self.assert_batch_equals_calls(K, inits, (1, 2, 300)[inst % 3])
        assert repairs  # some starts empty a cluster on the way

    def test_ten_starts_at_n_2048(self):
        X = two_blob_points(2048, separation=4.0, rng=np.random.default_rng(21))
        X = np.column_stack((X, np.random.default_rng(22).normal(size=2048)))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.0), X)
        rng = np.random.default_rng(23)
        self.assert_batch_equals_calls(K, [random_assignment(2048, 8, rng) for _ in range(10)], 4)


class TestBruteForceErm:
    def test_k_equals_n_is_zero(self):
        rng = np.random.default_rng(4)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(4, 2)))
        a, cost = brute_force_erm(K, 4)
        assert cost == 0.0
        assert a.k == 4

    def test_k_one_equals_global_scatter(self):
        rng = np.random.default_rng(5)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(6, 2)))
        _, cost = brute_force_erm(K, 1)
        all_ones = Assignment.from_labels(np.zeros(6, dtype=int), 1)
        assert cost == pytest.approx(cluster_cost(K, all_ones), abs=1e-12)

    def test_recovers_two_blobs(self):
        X = two_blob_points(6, separation=12.0, rng=np.random.default_rng(6))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=4.0), X)
        a, _ = brute_force_erm(K, 2)
        assert labels_match_up_to_permutation(blob_labels(6), a.labels, 2)

    def test_guards(self):
        rng = np.random.default_rng(7)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(13, 2)))
        with pytest.raises(InstanceTooLarge):
            brute_force_erm(K, 2)
        K2 = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(3, 2)))
        with pytest.raises(KTooLarge):
            brute_force_erm(K2, 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_an_input_error(self, k):
        K = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(8).normal(size=(4, 2)))
        with pytest.raises(KTooSmall, match="k must be >= 1"):
            brute_force_erm(K, k)

    def test_random_assignment_k_below_one_is_an_input_error(self):
        # used to raise numpy's "high <= 0"
        with pytest.raises(KTooSmall, match="k must be >= 1, got 0"):
            random_assignment(5, 0)

    def test_enumeration_counts_match_stirling(self):
        # S(6,3) = 90, S(5,2) = 15 exact-k partitions
        assert sum(len(c) for c in iter_label_chunks(6, 3)) == 90
        assert sum(len(c) for c in iter_label_chunks(5, 2)) == 15
        assert sum(len(c) for c in iter_label_chunks(4, 4)) == 1
        # Stirling numbers of the second kind: S(n,k) = k S(n-1,k) + S(n-1,k-1)
        S = np.zeros((13, 5), dtype=np.int64)
        S[0, 0] = 1
        for n in range(1, 13):
            for k in range(1, 5):
                S[n, k] = k * S[n - 1, k] + S[n - 1, k - 1]
        assert S[12, 4] == 611_501
        for n in range(1, 13):
            for k in range(1, 5):
                assert sum(len(c) for c in iter_label_chunks(n, k)) == S[n, k], (n, k)

    def test_pinned_twelve_point_k4_minimizer(self):
        # labels and cost recorded from the recursive enumerator; they pin the
        # lexicographic order and the first-minimum tie rule
        X = np.random.default_rng(2024).normal(size=(12, 2))
        a, cost = brute_force_erm(gram_matrix(KernelSpec("gaussian", bandwidth=1.0), X), 4)
        assert a.labels.tolist() == [0, 1, 2, 0, 0, 1, 3, 3, 2, 2, 1, 3]
        assert cost.hex() == "0x1.c2eb119ace015p-3"

    @pytest.mark.parametrize("n, k", [(12, 4), (10, 3)])
    def test_chunk_costs_equal_reference(self, n, k):
        X = np.random.default_rng(2024).normal(size=(n, 2))
        X[1] = X[0]  # a repeated point
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.0), X)
        diag_sum = float(np.sum(K.diag))
        for chunk in iter_label_chunks(n, k):
            got = clustering_module._chunk_costs(K.entries, diag_sum, chunk, k)
            want = reference_chunk_costs(K.entries, diag_sum, chunk, k)
            assert got.tobytes() == want.tobytes()

    def test_oracle_dominance_with_restarts(self):
        matches = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            n, k = int(rng.integers(5, 9)), int(rng.integers(2, 4))
            X = rng.normal(size=(n, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            _, opt = brute_force_erm(K, k)
            best = np.inf
            for _ in range(50):
                _, tr = kernel_lloyd(K, random_assignment(n, k, rng))
                best = min(best, tr.per_iteration_cost[-1])
            assert best >= opt - 1e-10
            if best <= opt + 1e-6:
                matches += 1
        assert matches >= 36  # 90% of 40


# (10, 4) and up: the partial-scatter pruning drops most of the tree
_SCREEN_CASES = [(n, k) for n in range(4, 10) for k in range(1, 5)] + [
    (11, 3), (12, 3), (10, 4), (11, 4), (12, 4)]
_SCREEN_KERNELS = [
    KernelSpec("gaussian", bandwidth=1.0),
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=3, offset=1.0),
]


def _screen_points(n, layout, seed):
    X = np.random.default_rng(seed).normal(size=(n, 2))
    if layout == "duplicated":
        X[1::3] = X[0]  # copies of one point, so tied partitions come in swaps
        X[n - 1] = X[2]
    elif layout == "identical":
        X[:] = X[0]  # every partition costs zero up to rounding
    return X


class TestScreenedErm:
    @pytest.mark.parametrize("spec", _SCREEN_KERNELS, ids=lambda s: s.family)
    @pytest.mark.parametrize("n, k", _SCREEN_CASES)
    def test_equals_exhaustive_reference(self, n, k, spec):
        for layout in ("plain", "duplicated", "identical"):
            K = gram_matrix(spec, _screen_points(n, layout, 100 * n + k))
            a, cost = brute_force_erm(K, k)
            want, want_cost = reference_brute_force_erm(K, k)
            assert a.labels.tolist() == want.labels.tolist(), layout
            assert cost.hex() == want_cost.hex(), layout

    def test_nan_gram_raises_like_reference(self):
        # such a Gram used to reach both minimizers, which raised InvariantViolated,
        # an error kept for bugs; from_entries now refuses it as input
        E = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(9).normal(size=(7, 2))).entries
        for i, j in ((3, 3), (0, 5)):
            bad = E.copy()
            bad[i, j] = bad[j, i] = np.nan
            with pytest.raises(NonFiniteInput):
                GramMatrix.from_entries(bad)

    @pytest.mark.parametrize("spread", [0.0, 1e-9, 1e-8])
    def test_rounding_level_ties_keep_the_first_minimizer(self, spread):
        # (near-)identical points: the partitions' costs differ by rounding
        # alone, so pruning without its slack would drop tied minimizers
        for spec in _SCREEN_KERNELS:
            for seed in range(20):
                g = np.random.default_rng([seed, 0x7E5])
                X = 3.0 * g.normal(size=(1, 2)) + spread * g.normal(size=(8, 2))
                K = gram_matrix(spec, X)
                a, cost = brute_force_erm(K, 4)
                want, want_cost = reference_brute_force_erm(K, 4)
                assert a.labels.tolist() == want.labels.tolist(), (spec.family, seed)
                assert cost.hex() == want_cost.hex(), (spec.family, seed)

    @staticmethod
    def screened_leaves(monkeypatch, K, k):
        """How many partitions ``brute_force_erm`` screens: the leaves of the
        root ``_grow_partitions`` call, which the deeper calls pass up."""
        leaves, grow = [], clustering_module._grow_partitions

        def counted(gen):
            for prefix, r, b, fast in gen:
                leaves.append(len(r))
                yield prefix, r, b, fast

        def spy(K, w, k, cap, rows=None, sums=None):
            gen = grow(K, w, k, cap, rows, sums)
            return gen if rows is not None else counted(gen)

        monkeypatch.setattr(clustering_module, "_grow_partitions", spy)
        brute_force_erm(K, k)
        return sum(leaves)

    def test_partial_scatter_prunes_most_partitions(self, monkeypatch):
        stirling_12_4 = 611_501
        for seed in range(6):
            X = np.random.default_rng([seed, 0x9A27]).normal(size=(12, 3))
            K = gram_matrix(KernelSpec("gaussian", bandwidth=1.0), X)
            assert 0 < self.screened_leaves(monkeypatch, K, 4) < 0.05 * stirling_12_4, seed
        # every partition of identical points ties, so none can be pruned
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.0), np.ones((12, 3)))
        assert self.screened_leaves(monkeypatch, K, 4) == stirling_12_4

    @pytest.mark.parametrize("n, k", [(12, 4), (9, 3), (6, 2)])
    def test_chunk_costs_on_row_subsets_match_full_chunk(self, n, k):
        # the certificate rescores kept rows alone, so their costs must not
        # depend on which other rows share the call
        X = _screen_points(n, "duplicated", 3)
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.0), X)
        diag_sum = float(np.sum(K.diag))
        rng = np.random.default_rng(n)
        for chunk in iter_label_chunks(n, k):
            full = clustering_module._chunk_costs(K.entries, diag_sum, chunk, k)
            subsets = [np.arange(1), np.arange(len(chunk) - 1, len(chunk)),
                       np.sort(rng.choice(len(chunk), size=min(len(chunk), 13), replace=False))]
            for rows in subsets:
                got = clustering_module._chunk_costs(K.entries, diag_sum, chunk[rows], k)
                assert got.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("spec", _SCREEN_KERNELS, ids=lambda s: s.family)
    @pytest.mark.parametrize("n, k", [(11, 4), (10, 3), (9, 2), (7, 4)])
    def test_screen_costs_within_margin(self, n, k, spec):
        # the margins _partition_search's slack rests on: n _cost_margin in
        # the screen's units for unit weights, 2 _cost_margin for weights
        # summing to 1 (zeros included)
        K = gram_matrix(spec, _screen_points(n, "plain", 7 * n + k))
        diag_sum = float(np.sum(K.diag))
        w = np.random.default_rng(n + k).random(n)
        w[::4] = 0.0
        w /= w.sum()
        for weights in (np.ones(n), w):
            screened = [(np.column_stack((prefix[r], b)), fast) for prefix, r, b, fast
                        in clustering_module._grow_partitions(K.entries, weights, k)]
            assert sum(len(r) for r, _ in screened) == sum(map(len, iter_label_chunks(n, k)))
            for r, fast in screened:
                if weights is w:
                    gap = fast - _weighted_partition_costs(K.entries, w, r, k)
                    assert np.max(np.abs(gap)) <= 2.0 * _cost_margin(K)
                else:
                    gap = fast - n * clustering_module._chunk_costs(K.entries, diag_sum, r, k)
                    assert np.max(np.abs(gap)) <= n * _cost_margin(K)


_LABEL_CHUNK_CASES = [(n, k) for n in range(1, 11) for k in range(1, 5)] + [(12, 2), (12, 3)]


class TestLabelChunks:
    @pytest.mark.parametrize("n, k", _LABEL_CHUNK_CASES)
    def test_chunks_equal_recursive_reference(self, n, k):
        for chunk in (1, 7, 4096):
            got = list(iter_label_chunks(n, k, chunk))
            want = list(reference_label_chunks(n, k, chunk))
            assert [len(c) for c in got] == [len(c) for c in want], chunk
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, w)

    def test_k_above_n_yields_nothing(self):
        for n, k in ((1, 2), (3, 4), (2, 3)):
            assert list(iter_label_chunks(n, k)) == []
            assert list(reference_label_chunks(n, k)) == []

    def test_single_point(self):
        (only,) = iter_label_chunks(1, 1)
        assert only.dtype == np.int64 and only.tolist() == [[0]]
