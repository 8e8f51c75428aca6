import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkmlab import (
    GramMatrix,
    KernelSpec,
    Spectrum,
    effective_dimension,
    eigendecay_xi_bound,
    gram_matrix,
    spectrum_of,
    standard_benchmark,
)
import kkmlab.kernels as kernels_module
from kkmlab.kernels import capped_effective_dimension
from kkmlab.errors import (
    InvalidDecayParams,
    NonFiniteInput,
    NormalizationViolated,
)
from oracle_utils import kernel_dist_sq, kernel_value, reference_gram


def scalar_gram_oracle(spec, X):
    """Double-loop kernel evaluation, one pair at a time."""
    n = len(X)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = kernel_value(spec, X[i], X[j])
    return K


class TestGramMatrix:
    def test_gaussian_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        for bw in (0.2, 1.0, 7.5):
            K = gram_matrix(KernelSpec("gaussian", bandwidth=bw), X)
            assert np.allclose(K.diag, 1.0, atol=0)

    def test_linear_orthonormal_is_identity(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(2))
        assert np.array_equal(K.entries, np.eye(2))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(5, 4))
        for spec in (
            KernelSpec("gaussian", bandwidth=0.9),
            KernelSpec("linear"),
            KernelSpec("polynomial", degree=3, offset=0.5),
        ):
            K = gram_matrix(spec, X)
            assert np.max(np.abs(K.entries - scalar_gram_oracle(spec, X))) <= 1e-12

    def test_diag_is_cached_exactly(self):
        X = np.random.default_rng(3).normal(size=(7, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        assert np.array_equal(K.diag, np.diagonal(K.entries))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            gram_matrix(KernelSpec("linear"), [[1.0, np.nan]])

    def test_non_finite_entries_rejected(self):
        # kernel_lloyd on such a matrix used to return a trace of nan
        entries = np.eye(4)
        entries[0, 1] = entries[1, 0] = np.nan
        with pytest.raises(NonFiniteInput, match="Gram matrix entries"):
            GramMatrix.from_entries(entries)

    def test_symmetrizing_overflow_rejected(self):
        # finite entries whose symmetrizing sum overflows to +-inf: the costs
        # used to be nan, and brute_force_erm raised InvariantViolated
        entries = [[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="Gram matrix entries"):
                GramMatrix.from_entries(entries)

    @pytest.mark.parametrize("family", ["gaussian", "linear", "polynomial"])
    def test_overflow_warns_nothing(self, family):
        # each build used to warn of overflow in matmul, the Gaussian one of an invalid subtract too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="overflows"):
                gram_matrix(KernelSpec(family), [[0, 0], [1e200, 1e200], [1, 1], [2, 2]])

    def test_overflowing_kernel_rejected(self):
        # (x.y + 1)^60 overflows for |x.y| = 2e6; raised as a typed error, with no RuntimeWarning
        X = np.random.default_rng(4).choice([-1e3, 1e3], size=(6, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="overflows"):
                gram_matrix(KernelSpec("polynomial", degree=60, offset=1.0), X)

    def test_normalization_violated_for_linear(self):
        spec = KernelSpec("linear", normalize=True)
        with pytest.raises(NormalizationViolated):
            gram_matrix(spec, [[2.0, 0.0]])
        # inside the unit ball is fine
        K = gram_matrix(spec, [[0.5, 0.0], [0.0, 0.9]])
        assert np.all(K.diag <= 1.0 + 1e-12)

    def test_normalization_violated_for_polynomial(self):
        spec = KernelSpec("polynomial", degree=2, offset=0.5, normalize=True)
        with pytest.raises(NormalizationViolated):
            gram_matrix(spec, [[1.0, 0.0]])

    def test_bad_spec_params(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")

    def test_entries_immutable(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(3))
        with pytest.raises(ValueError):
            K.entries[0, 0] = 5.0


def _random_gram_cases(seed=11):
    """Seeded (spec, X) pairs: n = 1, n on both sides of multiples of the
    64-row block, 1-d X, repeated and strided points, all three families and
    polynomial degrees 1-5 with and without an offset."""
    rng = np.random.default_rng(seed)
    specs = [KernelSpec("gaussian", bandwidth=bw) for bw in (0.3, 1.0, 2.5)]
    specs += [KernelSpec("linear")]
    specs += [KernelSpec("polynomial", degree=p, offset=c) for p in range(1, 6) for c in (0.0, 0.7)]
    for n in (1, 2, 63, 64, 65, 129, 200):
        for spec in specs:
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0)
            yield spec, X
            yield spec, X[rng.integers(0, max(1, n // 4), size=n)]  # repeated points
        yield specs[0], rng.normal(size=n)  # 1-d: n scalar points
        yield specs[-1], rng.normal(size=(n, 6))[:, ::2]  # strided columns


class TestGramOneBuffer:
    """The one-buffer build against the whole-matrix build it replaced."""

    @pytest.mark.parametrize("case", range(2))
    def test_bit_identical_to_reference(self, case):
        for spec, X in _random_gram_cases(seed=11 + case):
            got, want = gram_matrix(spec, X), reference_gram(spec, X)
            assert got.entries.tobytes() == want.entries.tobytes(), (spec, X.shape)
            assert got.diag.tobytes() == want.diag.tobytes()
            assert np.array_equal(got.groups, want.groups)
            assert got.entries.tobytes() == np.ascontiguousarray(got.entries.T).tobytes()
            assert not got.entries.flags.writeable and not got.diag.flags.writeable

    def test_overflow_past_the_first_block_rejected(self):
        # only the last six of 130 points are large, so (x.y + 1)^60 overflows
        # in the last two 64-row blocks alone
        X = np.random.default_rng(4).choice([-1.0, 1.0], size=(130, 2))
        X[-6:] *= 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="overflows"):
                gram_matrix(KernelSpec("polynomial", degree=60, offset=1.0), X)

    def test_normalization_checked_past_the_first_block(self):
        X = np.full((130, 2), 0.5)
        X[-1] = [1.0, 0.5]
        with pytest.raises(NormalizationViolated):
            gram_matrix(KernelSpec("polynomial", degree=2, offset=0.0, normalize=True), X)

    @pytest.mark.parametrize("spec", [
        KernelSpec("gaussian", bandwidth=1.3),
        KernelSpec("linear"),
        KernelSpec("polynomial", degree=3, offset=1.0),
    ], ids=lambda s: s.family)
    def test_peak_memory_is_one_buffer(self, spec):
        n = 1024
        X = np.random.default_rng(5).normal(size=(n, 3)) / 2.0
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            gram_matrix(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8, peak / (n * n * 8)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 15),
    d=st.integers(1, 4),
    family=st.sampled_from(["gaussian", "linear", "polynomial"]),
)
def test_gram_symmetric_and_psd(seed, n, d, family):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    spec = KernelSpec(family, bandwidth=0.5 + rng.random() * 2, degree=2)
    K = gram_matrix(spec, X)
    assert np.max(np.abs(K.entries - K.entries.T)) <= 1e-12
    vals = np.linalg.eigvalsh(K.entries)
    assert vals[0] >= -1e-8 * max(vals[-1], 1e-300)


class TestKernelDistSq:
    def test_same_index_is_zero(self):
        K = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(1).normal(size=(4, 2)))
        assert kernel_dist_sq(K, 2, 2) == 0.0

    def test_unit_diag_identity(self):
        entries = np.array([[1.0, 0.25], [0.25, 1.0]])
        K = GramMatrix.from_entries(entries)
        assert kernel_dist_sq(K, 0, 1) == pytest.approx(1.5, abs=0)

    def test_linear_equals_euclidean(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        K = gram_matrix(KernelSpec("linear"), X)
        assert kernel_dist_sq(K, 0, 1) == pytest.approx(2.0, abs=1e-15)
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(6, 3))
        KY = gram_matrix(KernelSpec("linear"), Y)
        for i in range(6):
            for j in range(6):
                eu = float(np.sum((Y[i] - Y[j]) ** 2))
                assert kernel_dist_sq(KY, i, j) == pytest.approx(eu, abs=1e-10)

    def test_index_out_of_range(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(2))
        with pytest.raises(IndexError):
            kernel_dist_sq(K, 0, 2)

    def test_symmetry_and_triangle_inequality_gaussian(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        K = gram_matrix(KernelSpec("gaussian", bandwidth=1.3), X)
        d = np.sqrt([[kernel_dist_sq(K, i, j) for j in range(12)] for i in range(12)])
        assert np.array_equal(d, d.T)
        for i in range(12):
            for j in range(12):
                for t in range(12):
                    assert d[i, j] <= d[i, t] + d[t, j] + 1e-9


class TestEffectiveDimension:
    def test_identity_gives_half_n(self):
        for n in (2, 10, 100):
            K = GramMatrix.from_entries(np.eye(n))
            assert effective_dimension(K) == pytest.approx(n / 2, abs=1e-12)

    def test_zero_matrix_gives_zero(self):
        K = GramMatrix.from_entries(np.zeros((5, 5)))
        assert effective_dimension(K) == 0.0

    def test_matches_known_spectrum(self):
        # PSD matrix assembled from a known spectrum; the oracle sums
        # lambda / (lambda + 1) over those known values directly.
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.0, 4.0, size=8)
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        K = GramMatrix.from_entries(Q @ np.diag(vals) @ Q.T)
        oracle = float(np.sum(vals / (vals + 1.0)))
        assert effective_dimension(K) == pytest.approx(oracle, abs=1e-8)

    def test_bounded_by_n_and_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            X = rng.normal(size=(n, 3))
            K = gram_matrix(KernelSpec("gaussian"), X)
            xi = effective_dimension(K)
            assert xi <= min(n, float(np.trace(K.entries))) + 1e-12

    def test_accepts_spectrum(self):
        sp = Spectrum.from_values([3.0, 1.0, 0.0])
        assert effective_dimension(sp) == pytest.approx(3 / 4 + 1 / 2, abs=1e-15)

    def test_spectrum_clamps_negatives(self):
        sp = Spectrum.from_values([2.0, -1e-12])
        assert np.all(sp.eigenvalues >= 0.0)
        assert sp.eigenvalues[0] == 2.0


def trace_bound(K):
    """The Cauchy-Schwarz lower bound tr(K)^2 / (||K||_F^2 + tr K) on xi."""
    tr = float(np.trace(K.entries))
    return tr * tr / (float(np.sum(K.entries**2)) + tr)


def blob_gram(n=2048, k=8, seed=3):
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.normal(size=(k, 3))
    return gram_matrix(KernelSpec("gaussian"), centers[np.arange(n) % k] + rng.normal(size=(n, 3)))


def benchmark_sample_gram(seed=0, n=64):
    P = standard_benchmark(4)
    rng = np.random.default_rng(seed)
    return gram_matrix(P.kernel, P.atoms[rng.choice(P.n_atoms, size=n, p=P.weights)])


class TestCappedEffectiveDimension:
    @staticmethod
    def assert_capped_equals_min(K, caps):
        xi = effective_dimension(K)
        for cap in caps:
            assert capped_effective_dimension(K, cap) == min(float(cap), xi)

    def test_identity(self):
        # xi = n/2 equals the bound, so caps below it certify and the rest do not
        for n in (2, 10, 100):
            K = GramMatrix.from_entries(np.eye(n))
            self.assert_capped_equals_min(K, (1, n // 2 - 1, n / 2, n // 2 + 1, n))

    def test_rank_one(self):
        v = np.array([1.0, 2.0, -0.5, 0.25])
        K = GramMatrix.from_entries(np.outer(v, v))
        self.assert_capped_equals_min(K, (0.5, 1, 2, 8))

    def test_zero_matrix_takes_the_exact_path(self):
        K = GramMatrix.from_entries(np.zeros((5, 5)))
        self.assert_capped_equals_min(K, (1, 4))

    def test_blob_gram_certified(self):
        K = blob_gram()
        assert trace_bound(K) > 8 * (1 + 1e-9)
        self.assert_capped_equals_min(K, (2, 8, 16))

    def test_benchmark_sample_not_certified(self):
        # the bound sits near 3.5 while xi is above 7, so k = 4 needs the spectrum
        K = benchmark_sample_gram()
        assert trace_bound(K) < 4 < effective_dimension(K)
        self.assert_capped_equals_min(K, (2, 4, 8))

    def test_eigendecomposition_skipped_only_when_certified(self, monkeypatch):
        calls = []
        real = kernels_module.spectrum_of
        monkeypatch.setattr(kernels_module, "spectrum_of", lambda K: calls.append(1) or real(K))
        K = GramMatrix.from_entries(np.eye(40))
        assert capped_effective_dimension(K, 8) == 8.0
        assert calls == []
        assert capped_effective_dimension(K, 20) == 20.0
        assert calls == [1]
        capped_effective_dimension(benchmark_sample_gram(), 4)
        assert calls == [1, 1]


class TestEigendecayBound:
    def test_paper_point(self):
        assert eigendecay_xi_bound(1.0, 2.0, 1) == pytest.approx(2.0, abs=0)

    def test_scaling_in_k(self):
        assert eigendecay_xi_bound(1.0, 2.0, 4) == pytest.approx(4.0, abs=0)

    def test_inverse_square_spectrum(self):
        i = np.arange(1, 1001, dtype=float)
        sp = Spectrum.from_values(i**-2.0)
        xi = effective_dimension(sp)
        oracle = float(np.sum(1.0 / (i**2 + 1.0)))
        assert xi == pytest.approx(oracle, abs=1e-12)
        assert xi <= eigendecay_xi_bound(1.0, 2.0, 1)

    def test_invalid_params(self):
        with pytest.raises(InvalidDecayParams):
            eigendecay_xi_bound(1.0, 1.0, 1)
        with pytest.raises(InvalidDecayParams):
            eigendecay_xi_bound(-1.0, 2.0, 1)
        with pytest.raises(InvalidDecayParams):
            eigendecay_xi_bound(1.0, 2.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        c=st.floats(0.1, 5.0),
        alpha=st.floats(1.2, 4.0),
    )
    def test_dominates_decaying_spectra(self, seed, c, alpha):
        # any spectrum below c * i^-alpha stays below the bound for every k
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        i = np.arange(1, n + 1, dtype=float)
        vals = c * i**-alpha * rng.uniform(0.0, 1.0, size=n)
        xi = effective_dimension(Spectrum.from_values(vals))
        for k in (1, 2, 5, n):
            assert xi <= eigendecay_xi_bound(c, alpha, k) + 1e-12


def test_spectrum_of_is_sorted_and_clamped():
    rng = np.random.default_rng(13)
    K = gram_matrix(KernelSpec("gaussian", bandwidth=0.4), rng.normal(size=(9, 2)))
    sp = spectrum_of(K)
    assert np.all(np.diff(sp.eigenvalues) <= 0)
    assert np.all(sp.eigenvalues >= 0)
    assert math.isclose(float(sp.eigenvalues.sum()), float(np.trace(K.entries)), rel_tol=1e-9)
