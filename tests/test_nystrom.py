import hashlib

import numpy as np
import pytest

from kkmlab import (
    Assignment,
    KernelSpec,
    LandmarkSet,
    brute_force_erm,
    gram_matrix,
    kernel_lloyd,
    landmark_size,
    nystrom_embed,
    nystrom_kkmeans,
    random_assignment,
    sample_landmarks_uniform,
)
from kkmlab.datasets import two_blob_points
from kkmlab.errors import (
    EmptyCluster,
    InvalidDelta,
    InvariantViolated,
    KTooSmall,
    MissingXi,
    MTooLarge,
    NonFiniteInput,
    SingularLandmarkBlockWarning,
)
import kkmlab.clustering as clustering_module
import kkmlab.nystrom as nystrom_module
from kkmlab.kernels import GramMatrix, _cost_margin, _rounding_margin
from kkmlab.nystrom import euclidean_kmeanspp_labels, euclidean_lloyd, landmark_coefficients
from oracle_utils import (
    blob_labels,
    iter_label_chunks,
    reference_euclidean_kmeanspp,
    reference_euclidean_lloyd,
)


def restricted_optimum(K, L, k):
    """Exhaustive optimum with centers restricted to the landmark span:
    enumerate partitions, score by embedded scatter plus residual offset."""
    emb = nystrom_embed(K, L)
    Z = emb.coords
    n = K.n
    sqsum = float(np.einsum("ij,ij->", Z, Z))
    best = np.inf
    for chunk in iter_label_chunks(n, k):
        G = (chunk[:, :, None] == np.arange(k)[None, None, :]).astype(float)
        M = np.einsum("bik,id->bkd", G, Z)
        sizes = G.sum(axis=1)
        proj = (sqsum - np.sum(np.einsum("bkd,bkd->bk", M, M) / sizes, axis=1)) / n
        best = min(best, float(proj.min()))
    return best + float(np.mean(emb.residuals))


class TestLandmarkSampling:
    def test_all_points(self):
        L = sample_landmarks_uniform(7, 7, np.random.default_rng(0))
        assert np.array_equal(L.indices, np.arange(7))

    def test_single_landmark(self):
        L = sample_landmarks_uniform(9, 1, np.random.default_rng(1))
        assert L.m == 1 and 0 <= L.indices[0] < 9

    def test_reproducible(self):
        a = sample_landmarks_uniform(50, 10, np.random.default_rng(42))
        b = sample_landmarks_uniform(50, 10, np.random.default_rng(42))
        assert np.array_equal(a.indices, b.indices)

    def test_sorted_distinct(self):
        L = sample_landmarks_uniform(30, 12, np.random.default_rng(3))
        assert np.all(np.diff(L.indices) > 0)

    def test_m_too_large(self):
        with pytest.raises(MTooLarge):
            sample_landmarks_uniform(5, 6, np.random.default_rng(0))
        with pytest.raises(MTooLarge):
            sample_landmarks_uniform(5, 0, np.random.default_rng(0))


class TestLandmarkSize:
    def test_general_mode_examples(self):
        assert landmark_size(100, 4, delta=np.exp(-1.0), xi=4.0, mode="general") == 20
        assert landmark_size(10_000, 16, delta=0.1, xi=16.0, mode="general") == 922

    def test_eigendecay_mode(self):
        assert landmark_size(100, 3, delta=np.exp(-1.0), mode="eigendecay") == 10

    def test_linear_k_mode(self):
        # sqrt(100) * 1 * min(4, xi) / 4 with xi large
        assert landmark_size(100, 4, delta=np.exp(-1.0), xi=100.0, mode="linear_k") == 10

    def test_clamped_to_range(self):
        assert landmark_size(10, 2, delta=1e-6, xi=2.0, mode="general") == 10
        assert landmark_size(4, 4, delta=0.9, xi=0.01, mode="general") == 1
        # a budget that overflows to inf is clamped, not passed to math.ceil
        assert landmark_size(10, 2, delta=0.1, mode="eigendecay", c_scale=1e308) == 10

    def test_errors(self):
        with pytest.raises(InvalidDelta):
            landmark_size(10, 2, delta=1.5, xi=2.0)
        with pytest.raises(MissingXi):
            landmark_size(10, 2, delta=0.1, mode="general")
        with pytest.raises(MissingXi):
            landmark_size(10, 2, delta=0.1, mode="linear_k")

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, n):
        # n = 0 used to give 0 landmarks
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            landmark_size(n, 2, 0.1, xi=2.0)

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
    def test_non_finite_xi_rejected(self, xi):
        # xi = nan used to give the xi = k answer (33 at n = 100, k = 2, delta = 0.1)
        with pytest.raises(ValueError, match="xi must be finite"):
            landmark_size(100, 2, 0.1, xi=xi)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # used to raise ZeroDivisionError (k = 0) and math's domain error (k = -1)
        with pytest.raises(KTooSmall):
            landmark_size(10, k, 0.1, xi=1.0)


class TestEmbedding:
    def test_full_landmarks_reproduce_gram(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 12))  # d > n keeps the linear Gram full rank
        K = gram_matrix(KernelSpec("linear"), X)
        L = LandmarkSet.from_indices(np.arange(10))
        emb = nystrom_embed(K, L)
        assert np.max(np.abs(emb.coords @ emb.coords.T - K.entries)) <= 1e-8
        assert np.all(emb.residuals <= 1e-8)

    def test_single_landmark_closed_form(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 3))
        K = gram_matrix(KernelSpec("gaussian"), X)
        t = 3
        emb = nystrom_embed(K, LandmarkSet.from_indices([t]))
        expect = K.entries[:, t] / np.sqrt(K.entries[t, t])
        assert np.allclose(emb.coords[:, 0], expect, atol=1e-12)

    def test_projection_properties(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.2), X)
        L = sample_landmarks_uniform(12, 5, rng)
        emb = nystrom_embed(K, L)
        assert np.all(emb.residuals >= -1e-10)
        Zl = emb.coords[L.indices]
        Kmm = K.entries[np.ix_(L.indices, L.indices)]
        assert np.max(np.abs(Zl @ Zl.T - Kmm)) <= 1e-6
        # landmark points project onto themselves
        assert np.all(emb.residuals[L.indices] <= 1e-6)

    def test_gram_product_identity(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        idx = np.array([1, 4, 6])
        emb = nystrom_embed(K, LandmarkSet.from_indices(idx))
        Kmm = K.entries[np.ix_(idx, idx)]
        Knm = K.entries[:, idx]
        target = Knm @ np.linalg.pinv(Kmm) @ Knm.T
        assert np.max(np.abs(emb.coords @ emb.coords.T - target)) <= 1e-6

    def test_rank_collapse_warns_not_fatal(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        K = gram_matrix(KernelSpec("linear"), X)
        with pytest.warns(SingularLandmarkBlockWarning):
            emb = nystrom_embed(K, LandmarkSet.from_indices([0, 1]))
        assert emb.rank == 1

    @pytest.mark.parametrize("jitter", [-1e-3, float("nan"), float("inf")])
    def test_bad_jitter_rejected(self, jitter):
        # a NaN jitter used to pass the check and end in LinAlgError
        K = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(4).normal(size=(8, 2)))
        with pytest.raises(ValueError, match="jitter"):
            nystrom_embed(K, LandmarkSet.from_indices([0, 3, 5]), jitter=jitter)

    def test_memory_structure(self):
        # the only per-point state beyond K is the n x m coordinates plus the
        # n-vector of residuals and the m x m coefficient map
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        K = gram_matrix(KernelSpec("gaussian"), X)
        L = sample_landmarks_uniform(20, 6, rng)
        emb = nystrom_embed(K, L)
        assert emb.coords.shape == (20, 6)
        assert emb.residuals.shape == (20,)
        assert emb.coeff_map.shape == (6, 6)


class TestNystromKkmeans:
    def test_full_landmarks_match_exact_lloyd(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 30))
            X = rng.normal(size=(n, 3))
            K = gram_matrix(KernelSpec("gaussian", bandwidth=1.5), X)
            init = random_assignment(n, 3, rng)
            _, trace = kernel_lloyd(K, init)
            L = LandmarkSet.from_indices(np.arange(n))
            _, cost_h, _ = nystrom_kkmeans(K, L, 3, init_labels=init)
            assert cost_h == pytest.approx(trace.per_iteration_cost[-1], abs=1e-8)

    def test_k_equals_n_zero_cost(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        L = LandmarkSet.from_indices(np.arange(6))
        init = Assignment.from_labels(np.arange(6), 6)
        _, cost_h, cost_p = nystrom_kkmeans(K, L, 6, init_labels=init)
        assert cost_h == pytest.approx(0.0, abs=1e-10)
        assert cost_p == pytest.approx(0.0, abs=1e-10)

    def test_two_blobs_with_few_landmarks(self):
        from itertools import permutations

        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = two_blob_points(24, separation=10.0, spread=1.0, rng=rng)
            K = gram_matrix(KernelSpec("gaussian", bandwidth=4.0), X)
            L = sample_landmarks_uniform(24, 4, rng)
            a, _, _ = nystrom_kkmeans(K, L, 2, rng=rng)
            truth = blob_labels(24)
            if any(
                np.array_equal(np.asarray(p)[truth], np.asarray(a.labels))
                for p in permutations(range(2))
            ):
                hits += 1
        assert hits >= 95

    def test_cost_at_least_unrestricted_optimum(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(6, 9))
            X = rng.normal(size=(n, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            _, opt = brute_force_erm(K, 2)
            m = int(rng.integers(2, n + 1))
            L = sample_landmarks_uniform(n, m, rng)
            _, cost_h, _ = nystrom_kkmeans(K, L, 2, rng=rng)
            assert cost_h >= opt - 1e-10

    def test_restricted_optimum_monotone_in_nested_landmarks(self):
        for seed in range(15):
            rng = np.random.default_rng(300 + seed)
            n = 8
            X = rng.normal(size=(n, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            small = sorted(rng.choice(n, size=3, replace=False).tolist())
            extra = [i for i in range(n) if i not in small][:2]
            large = sorted(small + extra)
            opt_small = restricted_optimum(K, LandmarkSet.from_indices(small), 2)
            opt_large = restricted_optimum(K, LandmarkSet.from_indices(large), 2)
            assert opt_large <= opt_small + 1e-10

    def test_z_lloyd_trace_monotone(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 40))
            X = rng.normal(size=(n, 3))
            K = gram_matrix(KernelSpec("gaussian"), X)
            m = int(rng.integers(2, n + 1))
            emb = nystrom_embed(K, sample_landmarks_uniform(n, m, rng))
            _, trace = euclidean_lloyd(emb.coords, random_assignment(n, 3, rng))
            c = trace.per_iteration_cost
            assert np.all(np.diff(c) <= 1e-9 * np.maximum(c[:-1], 1e-300))


class TestEuclideanLloyd:
    @staticmethod
    def blob_instance(seed, n, k, m, init):
        rng = np.random.default_rng(seed)
        centers = 3.0 * rng.normal(size=(k, 2))
        X = centers[rng.integers(k, size=n)] + rng.normal(size=(n, 2))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.5), X)
        Z = nystrom_embed(K, sample_landmarks_uniform(n, m, rng)).coords
        if init == "random":
            return Z, random_assignment(n, k, rng)
        return Z, euclidean_kmeanspp_labels(Z, k, rng)

    @pytest.mark.parametrize(
        "seed, n, k, m, init, max_iter, labels_sha, iterations, converged, cost, repairs",
        [
            (5, 300, 5, 16, "random", 300, "1b73cbb3725aceb6", 12, True, 0.2677851319725058, 0),
            (11, 320, 6, 24, "kmeanspp", 300, "474e32b4906729bc", 6, True, 0.31939023701539976, 0),
            (0, 300, 12, 20, "random", 300, "3add0b6b5922724a", 18, True, 0.19295707550045238, 1),
            (23, 400, 10, 30, "kmeanspp", 4, "b6d431c72890d388", 4, False, 0.2559691206064191, 0),
        ],
    )
    def test_fixed_seed_regression(
        self, monkeypatch, seed, n, k, m, init, max_iter, labels_sha, iterations, converged,
        cost, repairs,
    ):
        # pinned from the loop that euclidean_lloyd kept apart from kernel_lloyd's
        calls = []
        real = clustering_module._repair_empty
        monkeypatch.setattr(
            clustering_module, "_repair_empty", lambda *a: calls.append(1) or real(*a)
        )
        Z, a0 = self.blob_instance(seed, n, k, m, init)
        a, trace = euclidean_lloyd(Z, a0, max_iter=max_iter)
        assert hashlib.sha256(a.labels.tobytes()).hexdigest()[:16] == labels_sha
        assert trace.iterations == iterations
        assert trace.converged is converged
        assert trace.per_iteration_cost.size == iterations + 1
        assert trace.per_iteration_cost[-1] == pytest.approx(cost, rel=1e-12, abs=0.0)
        assert len(calls) == repairs

    @pytest.mark.parametrize("n_labels", [4, 6])
    def test_init_of_other_length_rejected_before_any_work(self, monkeypatch, n_labels):
        X = np.random.default_rng(5).normal(size=(5, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        init = Assignment.from_labels(np.arange(n_labels) % 2, 2)
        with pytest.raises(ValueError, match="init and coordinates disagree on n"):
            euclidean_lloyd(X, init)
        monkeypatch.setattr(nystrom_module, "nystrom_embed", lambda *a, **kw: pytest.fail())
        with pytest.raises(ValueError, match="init and coordinates disagree on n"):
            nystrom_kkmeans(K, LandmarkSet.from_indices(range(3)), 2, init_labels=init)

    @pytest.mark.parametrize("lloyd", ["kernel", "euclidean"])
    @pytest.mark.parametrize(
        "kwargs, message",
        [({"max_iter": 0}, "max_iter"), ({"rel_tol": -1.0}, "rel_tol"),
         ({"rel_tol": float("nan")}, "rel_tol")],
    )
    def test_bad_settings_rejected(self, lloyd, kwargs, message):
        X = np.random.default_rng(4).normal(size=(8, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        init = Assignment.from_labels([0, 1] * 4, 2)
        with pytest.raises(ValueError, match=message):
            if lloyd == "kernel":
                kernel_lloyd(K, init, **kwargs)
            else:
                euclidean_lloyd(nystrom_embed(K, LandmarkSet.from_indices(range(8))).coords,
                                init, **kwargs)

    @pytest.mark.parametrize("lloyd", ["kernel", "euclidean"])
    def test_cost_rise_beyond_the_rounding_margin_raises(self, monkeypatch, lloyd):
        Z, a0 = self.blob_instance(5, 300, 5, 16, "random")
        K = GramMatrix.from_entries(Z @ Z.T)  # the linear kernel of the coordinates
        if lloyd == "kernel":
            margin = _cost_margin(K)
        else:
            margin = _rounding_margin(len(Z), float(np.max(np.sum(Z * Z, axis=1))))

        def run():
            return kernel_lloyd(K, a0) if lloyd == "kernel" else euclidean_lloyd(Z, a0)

        real, rise, margin_calls = clustering_module._lloyd, [], []

        def stubbed(init, fit, max_iter, rel_tol, margin_fn):
            first = []

            def rising_fit(labels):  # every refit costs the first cost plus the rise
                cost, dists = fit(labels)
                first.append(cost)
                return (first[0] + rise[0] if len(first) > 1 else cost), dists

            def counted_margin():
                margin_calls.append(1)
                return margin_fn()

            return real(init, rising_fit if rise else fit, max_iter, rel_tol, counted_margin)

        monkeypatch.setattr(clustering_module, "_lloyd", stubbed)
        monkeypatch.setattr(nystrom_module, "_lloyd", stubbed)
        _, trace = run()  # no rise: the margin is never worked out
        assert trace.iterations > 1 and not margin_calls
        for factor in (2.0, 0.5):
            rise[:] = [factor * margin]
            if factor > 1:
                with pytest.raises(InvariantViolated, match="raised the cost"):
                    run()
            else:  # a rise within rounding stops the loop as before
                _, trace = run()
                c = trace.per_iteration_cost
                assert trace.converged and trace.iterations == 1 and c[1] == c[0] + rise[0] > c[0]
        assert len(margin_calls) == 2


def restart_set_sample(inst):
    """Coordinates for restart-set instance ``inst``: Gaussian, or resampled
    from a few atoms (repeated rows), with k from 1 to 5 and max_iter 1, 2 or
    300 in turn."""
    g = np.random.default_rng([inst, 0x7E5])
    k, max_iter = 1 + inst % 5, (1, 2, 300)[inst % 3]
    n, d = int(g.integers(max(k, 6), 48)), int(g.integers(1, 5))
    if inst % 2:
        atoms = g.normal(size=(int(g.integers(k, 10)), d))
        Z = atoms[np.resize(g.permutation(len(atoms)), n)][g.permutation(n)]
    else:
        Z = g.normal(size=(n, d))
    return Z, k, max_iter


class TestNystromRestartSets:
    """A rep's 20 Nystrom starts, seeded as one batch and fitted as one batch
    of distinct starts (as ``risk._fit_once`` does), equal 20 calls one by one."""

    @staticmethod
    def restart_set(Z, k, rng, max_iter):
        seeds = nystrom_module._euclidean_kmeanspp(Z, k, rng, 20)
        starts = {s.tobytes(): s for s in seeds}
        fits = dict(zip(starts, nystrom_module._euclidean_lloyd(
            Z, [Assignment.from_labels(s, k) for s in starts.values()], max_iter)))
        return [fits[s.tobytes()] for s in seeds]

    @staticmethod
    def assert_same(got, want):
        for (a, trace), (a_ref, trace_ref) in zip(got, want, strict=True):
            assert np.array_equal(a.labels, a_ref.labels)
            assert trace.per_iteration_cost.tobytes() == trace_ref.per_iteration_cost.tobytes()
            assert trace.converged is trace_ref.converged
            assert trace.iterations == trace_ref.iterations

    @pytest.mark.parametrize("sequential", ["public calls", "reference loop"])
    def test_twenty_starts_equal_sequential_calls(self, sequential):
        seed_one, lloyd_one = {
            "public calls": (euclidean_kmeanspp_labels, euclidean_lloyd),
            "reference loop": (reference_euclidean_kmeanspp, reference_euclidean_lloyd),
        }[sequential]
        for inst in range(300):
            Z, k, max_iter = restart_set_sample(inst)
            rng, rng_ref = np.random.default_rng(inst), np.random.default_rng(inst)
            got = self.restart_set(Z, k, rng, max_iter)
            want = [lloyd_one(Z, seed_one(Z, k, rng_ref), max_iter=max_iter) for _ in range(20)]
            self.assert_same(got, want)
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_a_start_that_repairs_an_empty_cluster(self, monkeypatch):
        repairs, real = [], clustering_module._repair_empty
        monkeypatch.setattr(clustering_module, "_repair_empty",
                            lambda *a: repairs.append(1) or real(*a))
        # in starts 0 and 2, clusters 0 and 1 share the mean 5, so the first step
        # empties the higher of them; start 1 is stable
        Z = np.array([[0.0], [1.0], [9.0], [10.0], [4.9]])
        starts = [Assignment.from_labels(labels, 3) for labels in
                  ([0, 1, 1, 0, 2], [0, 0, 1, 1, 2], [1, 0, 0, 1, 2])]
        for max_iter in (1, 2, 300):
            repairs.clear()
            got = nystrom_module._euclidean_lloyd(Z, starts, max_iter)
            assert len(repairs) == 2
            self.assert_same(got, [reference_euclidean_lloyd(Z, a, max_iter) for a in starts])

    def test_distance_columns_built_in_chunks_equal_one_run_at_a_time(self, monkeypatch):
        # 20 runs on 64 x 27 coordinates: nine runs a chunk, so three chunks
        columns, real = [], nystrom_module._dsq_centers
        monkeypatch.setattr(nystrom_module, "_dsq_centers",
                            lambda dists_to, *a: columns.append(dists_to) or real(dists_to, *a))
        Z = np.random.default_rng(12).normal(size=(64, 27))
        nystrom_module._euclidean_kmeanspp(Z, 3, np.random.default_rng(0), 20)
        idx = np.random.default_rng(1).integers(64, size=20)
        want = np.array([np.sum((Z - Z[i]) ** 2, axis=1) for i in idx]).T
        got = columns[0](idx)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_seeding_that_runs_out_of_points_raises(self):
        Z = np.repeat(np.eye(2), 4, axis=0)  # two distinct rows
        with pytest.raises(EmptyCluster):
            nystrom_module._euclidean_kmeanspp(Z, 3, np.random.default_rng(0), 20)


class TestEuclideanEntryPoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        Z = np.random.default_rng(3).normal(size=(10, 2))
        Z[4, 1] = bad
        init = Assignment.from_labels(np.arange(10) % 2, 2)
        with pytest.raises(NonFiniteInput, match="Z"):
            euclidean_lloyd(Z, init)
        with pytest.raises(NonFiniteInput, match="Z"):
            euclidean_kmeanspp_labels(Z, 2, np.random.default_rng(0))

    def test_one_d_coordinates_are_scalar_points(self):
        z = np.random.default_rng(4).normal(size=12)
        a = euclidean_kmeanspp_labels(z, 3, np.random.default_rng(1))
        assert np.array_equal(a.labels, euclidean_kmeanspp_labels(
            z[:, None], 3, np.random.default_rng(1)).labels)
        (b, trace), (b_col, trace_col) = euclidean_lloyd(z, a), euclidean_lloyd(z[:, None], a)
        assert np.array_equal(b.labels, b_col.labels)
        assert trace.per_iteration_cost.tobytes() == trace_col.per_iteration_cost.tobytes()

    def test_landmark_coefficients_checks_n(self):
        K = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(5).normal(size=(8, 2)))
        emb = nystrom_embed(K, LandmarkSet.from_indices([0, 3, 5]))
        with pytest.raises(ValueError, match=r"n=9.*n=8"):
            landmark_coefficients(emb, Assignment.from_labels(np.arange(9) % 2, 2))

    def test_init_labels_with_another_k_rejected_before_any_work(self, monkeypatch):
        K = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(6).normal(size=(9, 2)))
        init = Assignment.from_labels(np.arange(9) % 3, 3)
        monkeypatch.setattr(nystrom_module, "nystrom_embed", lambda *a, **kw: pytest.fail())
        with pytest.raises(ValueError, match="k=3, not k=2"):
            nystrom_kkmeans(K, LandmarkSet.from_indices(range(4)), 2, init_labels=init)
