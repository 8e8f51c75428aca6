import numpy as np
import pytest

from kkmlab import (
    CellRecord,
    DistributionSpec,
    KernelSpec,
    MPolicy,
    RiskReport,
    beta_ratio_study,
    cluster_cost,
    effective_dimension,
    gram_matrix,
    kernel_lloyd,
    landmark_size,
    optimal_risk,
    population_risk,
    random_assignment,
    run_cell,
    scaling_fit,
    standard_benchmark,
)
from kkmlab import clustering, nystrom, risk
from kkmlab.errors import (CoefficientDimensionMismatch, KTooSmall, NonFiniteInput,
                           NonPositiveRisk)
from kkmlab.risk import exact_vs_nystrom
from oracle_utils import reference_fit_once, reference_optimal_risk, reference_surrogate_risk


def uniform_spec(atoms, kernel=None):
    atoms = np.asarray(atoms, dtype=float)
    w = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    return DistributionSpec(atoms, w, kernel or KernelSpec("linear"))


def explicit_risk_oracle(P, centers):
    """Population risk via explicit feature coordinates from the atom Gram's
    eigen-embedding; independent of the Gram-algebra path."""
    w_eig, V = np.linalg.eigh(P.gram.entries)
    w_eig = np.clip(w_eig, 0.0, None)
    F = V * np.sqrt(w_eig)[None, :]  # rows: atom features
    C = np.asarray(centers) @ F  # center coordinates
    d = np.sum((F[:, None, :] - C[None, :, :]) ** 2, axis=2)
    return float(P.weights @ d.min(axis=1))


class TestPopulationRisk:
    def test_center_at_every_atom_gives_zero(self):
        rng = np.random.default_rng(0)
        P = uniform_spec(rng.normal(size=(4, 2)) * 0.3)
        centers = np.eye(4)
        assert population_risk(P, centers) == pytest.approx(0.0, abs=1e-12)

    def test_mean_center_on_symmetric_pair(self):
        P = uniform_spec([[1.0, 0.0], [-1.0, 0.0]])
        center = np.array([[0.5, 0.5]])  # the mean of the two atoms
        assert population_risk(P, center) == pytest.approx(1.0, abs=1e-12)

    def test_matches_cluster_cost_for_stable_assignment(self):
        rng = np.random.default_rng(1)
        atoms = rng.normal(size=(8, 2)) * 0.3
        P = uniform_spec(atoms, KernelSpec("gaussian"))
        a, _ = kernel_lloyd(P.gram, random_assignment(8, 3, rng))
        centers = np.zeros((3, 8))
        for j in range(3):
            members = np.asarray(a.labels) == j
            centers[j, members] = 1.0 / members.sum()
        assert population_risk(P, centers) == pytest.approx(
            cluster_cost(P.gram, a), abs=1e-10
        )

    def test_matches_explicit_embedding_oracle(self):
        rng = np.random.default_rng(2)
        atoms = rng.normal(size=(7, 3)) * 0.3
        w = rng.uniform(0.5, 2.0, size=7)
        w /= w.sum()
        P = DistributionSpec(atoms, w, KernelSpec("gaussian", bandwidth=1.3))
        centers = rng.normal(size=(3, 7)) * 0.2
        assert population_risk(P, centers) == pytest.approx(
            explicit_risk_oracle(P, centers), abs=1e-10
        )

    def test_dimension_mismatch(self):
        P = uniform_spec([[0.1], [0.2]])
        with pytest.raises(CoefficientDimensionMismatch):
            population_risk(P, np.ones((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_centers_rejected(self, bad):
        # returned nan for NaN centers
        P = standard_benchmark(2)
        centers = np.full((2, P.n_atoms), 1.0 / P.n_atoms)
        centers[1, 3] = bad
        with pytest.raises(NonFiniteInput, match="centers"):
            population_risk(P, centers)


class TestOptimalRisk:
    def test_k_at_least_atom_count(self):
        P = uniform_spec(np.random.default_rng(3).normal(size=(5, 2)) * 0.2)
        res = optimal_risk(P, 5)
        assert res.value == 0.0 and res.exact

    def test_symmetric_pair_single_cluster(self):
        P = uniform_spec([[1.0, 0.0], [-1.0, 0.0]])
        res = optimal_risk(P, 1)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.exact

    def test_three_orthonormal_atoms_two_clusters(self):
        P = uniform_spec(np.eye(3))
        res = optimal_risk(P, 2)
        # best split: one singleton plus one pair at squared radius 1/2 each
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        atoms = rng.normal(size=(7, 2)) * 0.3
        P = uniform_spec(atoms, KernelSpec("gaussian"))
        vals = [optimal_risk(P, k).value for k in range(1, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_exact_search_equals_exhaustive_reference(self):
        # the pruned search keeps the bits of scoring every partition
        kernels = [KernelSpec("gaussian", bandwidth=0.8), KernelSpec("linear"),
                   KernelSpec("polynomial", degree=3, offset=0.0)]
        for case in range(48):
            g = np.random.default_rng([case, 0x0E7])
            N = 2 + case % 11
            k = 1 + case % min(4, N - 1)
            atoms = g.normal(size=(N, 2))
            atoms /= 1.5 * np.linalg.norm(atoms, axis=1).max()  # norms below 1
            if case % 4 == 1:
                atoms[1::3] = atoms[0]  # duplicated atoms
            elif case % 4 == 2:
                atoms[:] = atoms[0]  # all identical: every partition ties
            w = g.random(N)
            if case % 3 == 0:
                w[g.choice(N, size=N // 3, replace=False)] = 0.0  # zero-weight atoms
            P = DistributionSpec(atoms, w / w.sum(), kernels[case % 3])
            res = optimal_risk(P, k)
            assert res.exact and res.value.hex() == reference_optimal_risk(P, k).hex(), case

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_weights_keep_the_broadcast_bits(self, seed, k):
        # 11 atoms with random weights: at k = 1 a bincount's running sum of
        # the weights would change the last bit at these seeds
        g = np.random.default_rng([seed, 11])
        w = g.random(11)
        P = DistributionSpec(g.normal(size=(11, 2)), w / w.sum(), KernelSpec("gaussian"))
        res = optimal_risk(P, k)
        assert res.exact and res.value.hex() == reference_optimal_risk(P, k).hex()

    @pytest.mark.parametrize("k, runs", [(5, 0), (5, -1), (2, 0)])
    def test_surrogate_runs_below_one_is_an_input_error(self, k, runs):
        # k = 5 on 12 atoms needs the surrogate, whose seeding divided by zero;
        # the exact path at k = 2 never read the count
        with pytest.raises(ValueError, match=f"surrogate_runs must be >= 1, got {runs}"):
            optimal_risk(standard_benchmark(2), k, surrogate_runs=runs)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_an_input_error(self, k):
        # k = 0 used to raise InvariantViolated, which marks a bug, and k < 0
        # numpy's "negative dimensions are not allowed"
        with pytest.raises(KTooSmall, match=f"k must be >= 1, got {k}"):
            optimal_risk(standard_benchmark(2), k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_benchmark_needs_a_cloud(self, k):
        # k = 0 used to raise numpy's "need at least one array to concatenate"
        with pytest.raises(KTooSmall, match=f"k must be >= 1, got {k}"):
            standard_benchmark(k)

    def test_surrogate_flagged_beyond_guard(self):
        P = standard_benchmark(4)  # 24 atoms
        res = optimal_risk(P, 4, surrogate_runs=20)
        assert not res.exact
        assert res.value >= 0.0

    def test_surrogate_value_pinned(self):
        # recorded when the weight-aware polish had its own distance code;
        # the polish now runs on the shared linkage and distances
        res = optimal_risk(standard_benchmark(4), 4, surrogate_runs=20)
        assert res.value == pytest.approx(0.2402674516138071, rel=1e-12, abs=0.0)

    def test_surrogate_matches_exhaustive_oracle(self):
        # 13 atoms exceed the exact guard, but a 2-block split can still be
        # enumerated here via bitmasks as an independent oracle
        rng = np.random.default_rng(5)
        atoms = rng.normal(size=(13, 2)) * 0.4
        w = rng.uniform(0.5, 1.5, size=13)
        w /= w.sum()
        P = DistributionSpec(atoms, w, KernelSpec("gaussian"))
        res = optimal_risk(P, 2, surrogate_runs=40)
        assert not res.exact

        best = np.inf
        for mask in range(1, 2**12):
            labels = np.array([(mask >> i) & 1 for i in range(13)])
            centers = np.zeros((2, 13))
            for j in (0, 1):
                members = labels == j
                wj = w[members].sum()
                centers[j, members] = w[members] / wj
            best = min(best, population_risk(P, centers))
        assert res.value == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("case", [0, 3, 7, 13, 16, 22, 28, 34, 43, 47])
    def test_surrogate_polish_equals_reference_loop(self, case):
        # weighted atoms past the exact guard, where the reference polish
        # moves labels: the shared Lloyd loop must keep every bit
        kernels = [KernelSpec("gaussian", bandwidth=0.8), KernelSpec("linear"),
                   KernelSpec("polynomial", degree=3, offset=0.0)]
        g = np.random.default_rng([case, 0x5A6])
        N, k = int(g.integers(13, 31)), int(g.integers(2, 6))
        atoms = g.normal(size=(N, 2))
        atoms /= 1.5 * np.linalg.norm(atoms, axis=1).max()  # norms below 1
        w = g.dirichlet(np.ones(N))
        if case % 3 == 0:
            w[g.choice(N, size=N // 3, replace=False)] = 0.0  # zero-weight atoms
        P = DistributionSpec(atoms, w / w.sum(), kernels[case % 3])
        want, moved = reference_surrogate_risk(P, k, 30)
        assert moved > 0
        res = optimal_risk(P, k, surrogate_runs=30)
        assert not res.exact and res.value.hex() == want.hex()


class TestOptimalRiskCache:
    @pytest.fixture
    def fits(self, monkeypatch):
        import kkmlab.risk

        calls = []
        real = kkmlab.risk._erm_runs

        def counting(K, k, rngs, *args, **kwargs):  # one call per run of a batch
            calls.extend([1] * len(rngs))
            return real(K, k, rngs, *args, **kwargs)

        monkeypatch.setattr(kkmlab.risk, "_erm_runs", counting)
        return calls

    def test_run_cells_on_one_distribution_fit_once(self, fits):
        P = standard_benchmark(4)  # 24 atoms: the 200-run surrogate
        policy = MPolicy("fixed", m=6)
        a = run_cell(P, 16, 4, "nystrom", policy, reps=1, master_seed=0)
        assert len(fits) == 200
        b = run_cell(P, 24, 4, "nystrom", policy, reps=1, master_seed=0)
        assert len(fits) == 200
        assert not a.optimal_exact and a.optimal_risk == b.optimal_risk

    def test_fresh_distribution_and_other_runs_recompute(self, fits):
        P = standard_benchmark(4)
        first = optimal_risk(P, 4, surrogate_runs=5)
        assert optimal_risk(P, 4, surrogate_runs=5) is first
        assert len(fits) == 5
        fresh = optimal_risk(standard_benchmark(4), 4, surrogate_runs=5)
        assert len(fits) == 10
        assert fresh == first  # the cached result equals an uncached one
        optimal_risk(P, 4, surrogate_runs=6)
        assert len(fits) == 16


class TestMPolicy:
    @pytest.mark.parametrize("mode", ["general", "linear_k"])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_landmark_count_matches_full_effective_dimension(self, mode, k):
        # certified at k <= 8 on the blobs, not at k = 4 on the benchmark sample
        rng = np.random.default_rng(12)
        centers = 4.0 * rng.normal(size=(8, 3))
        X = centers[np.arange(512) % 8] + rng.normal(size=(512, 3))
        P4 = standard_benchmark(4)
        for K in (
            gram_matrix(KernelSpec("gaussian"), X),
            gram_matrix(P4.kernel, P4.atoms[rng.choice(P4.n_atoms, size=64, p=P4.weights)]),
        ):
            policy = MPolicy(mode, c_scale=1.0, delta=0.1)
            xi = effective_dimension(K)
            want = landmark_size(K.n, k, 0.1, xi=xi, mode=mode, c_scale=1.0)
            assert policy.landmarks_for(K, K.n, k) == want


class TestRunCell:
    def test_clusterable_distribution_has_no_excess(self):
        atoms = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        P = uniform_spec(atoms, KernelSpec("gaussian", bandwidth=0.5))
        cell = run_cell(P, 60, 3, "exact_erm_approx", reps=10, master_seed=1)
        assert cell.mean_excess_risk <= 3.0 * cell.std_error + 1e-12
        assert cell.optimal_exact

    def test_bit_identical_reruns(self):
        P = standard_benchmark(2)
        a = run_cell(P, 32, 2, "nystrom", MPolicy("fixed", m=8), reps=5, master_seed=9)
        b = run_cell(P, 32, 2, "nystrom", MPolicy("fixed", m=8), reps=5, master_seed=9)
        assert a == b

    def test_excess_risk_never_below_exact_optimum(self):
        P = standard_benchmark(2)
        for method in ("exact_erm_approx", "nystrom", "approx_erm"):
            cell = run_cell(P, 24, 2, method, MPolicy("fixed", m=10), reps=6, master_seed=5)
            assert cell.mean_excess_risk >= -1e-10
            assert cell.mean_population_risk >= cell.optimal_risk - 1e-10

    def test_exact_and_nystrom_overlap_on_paired_cell(self):
        P = standard_benchmark(2)
        policy = MPolicy("fixed", m=int(np.ceil(np.sqrt(64 * 2))))
        e = run_cell(P, 64, 2, "exact_erm_approx", policy, reps=25, master_seed=4)
        v = run_cell(P, 64, 2, "nystrom", policy, reps=25, master_seed=4)
        gap = abs(e.mean_excess_risk - v.mean_excess_risk)
        assert gap <= 2.0 * e.std_error + 2.0 * v.std_error

    def test_k_below_one_rejected(self):
        # used to raise optimal_risk's InvariantViolated, which marks a bug
        with pytest.raises(KTooSmall, match="k must be >= 1, got 0"):
            run_cell(standard_benchmark(2), 8, 0, "nystrom", MPolicy("fixed", m=4), reps=1)

    def test_unknown_method_rejected(self):
        P = standard_benchmark(2)
        with pytest.raises(ValueError):
            run_cell(P, 16, 2, "kmedoids", reps=2, master_seed=0)

    def test_fewer_than_one_rep_rejected(self):
        # used to return a record of NaNs with "Mean of empty slice" warnings
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_cell(standard_benchmark(2), 8, 2, "exact_erm_approx", reps=0)

    @pytest.mark.parametrize("atoms, error, message", [
        ([[0.0], [np.nan]], NonFiniteInput, "non-finite values in atoms"),
        (np.zeros((0, 2)), ValueError, "atoms must be a nonempty"),
    ])
    def test_bad_atoms_are_named(self, atoms, error, message):
        # reported as non-finite "input points" and as weights that do not align
        with pytest.raises(error, match=message):
            DistributionSpec(atoms, np.full(len(atoms), 1.0 / max(len(atoms), 1)),
                             KernelSpec("linear"))

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.inf, 0.0], [-0.5, 1.5], [0.5, 0.6]])
    def test_bad_weights_rejected(self, w):
        # a NaN weight used to pass both checks and end in optimal_risk's InvariantViolated
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            DistributionSpec([[0.0], [0.5]], w, KernelSpec("linear"))


class TestOncePerFit:
    @pytest.mark.parametrize("method", ["exact_erm_approx", "nystrom"])
    def test_demo_cell_runs_each_start_once(self, monkeypatch, method):
        calls = []  # one per labeling: the starts of each batched Lloyd call
        real_lloyd = clustering._lloyd
        for module in (clustering, nystrom):
            monkeypatch.setattr(module, "_lloyd",
                                lambda inits, *a: calls.extend(inits) or real_lloyd(inits, *a))
        P, reps = standard_benchmark(2), 3
        got = run_cell(P, 64, 2, method, MPolicy(), reps=reps, master_seed=42)
        assert 0 < len(calls) < 20 * reps

        monkeypatch.setattr(risk, "_fit_once", reference_fit_once)
        calls.clear()
        assert run_cell(P, 64, 2, method, MPolicy(), reps=reps, master_seed=42) == got
        assert len(calls) == 20 * reps


class TestExactVsNystrom:
    @staticmethod
    def cell(n, method, excess, se):
        return CellRecord(n, 2, method, 0.0, 4, 0.0, 0.0, 0.0, True, excess, se, 0.0)

    @pytest.mark.parametrize("overlapping, verdict, status",
                             [(5, "consistent", 0), (4, "consistent", 0), (3, "violated", 1)])
    def test_eighty_percent_of_cells_must_overlap(self, overlapping, verdict, status):
        report = RiskReport()
        for n in range(1, 6):  # a gap of 1.0 against bands of 2 * (0.2 + 0.3)
            gap = 1.0 if n <= overlapping else 1.01
            report.cells += [self.cell(n, "nystrom", gap, 0.3),
                             self.cell(n, "exact_erm_approx", 0.0, 0.2)]
        assert exact_vs_nystrom(report, range(1, 6), [2]) == (
            f"exact_vs_nystrom: {overlapping}/5 cells overlap (2 std_error bands) -> {verdict}",
            status,
        )

    def test_one_rep_has_no_verdict(self):
        # one rep has std_error 0, so its band has zero width and the verdict no footing
        report = RiskReport()
        report.cells += [CellRecord(1, 2, "nystrom", 0.0, 1, 0.0, 0.0, 0.0, True, 0.1, 0.0, 0.0),
                         self.cell(1, "exact_erm_approx", 0.0, 0.2)]
        with pytest.raises(ValueError, match="reps >= 2"):
            exact_vs_nystrom(report, [1], [2])


class TestScalingFit:
    def test_exact_inverse_sqrt_fixture(self):
        cells = [
            CellRecord(n, 2, "exact_erm_approx", 0.0, 1, 0.0, 0.0, 0.0, True,
                       3.0 * n**-0.5, 0.0, 0.0)
            for n in (64, 128, 256, 512)
        ]
        slope, half = scaling_fit(cells, "n")
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert half <= 1e-12

    def test_exact_sqrt_k_fixture(self):
        cells = [
            CellRecord(128, k, "exact_erm_approx", 0.0, 1, 0.0, 0.0, 0.0, True,
                       0.25 * k**0.5, 0.0, 0.0)
            for k in (2, 4, 8)
        ]
        slope, half = scaling_fit(cells, "k")
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_cells_excluded_with_warning(self):
        good = [
            CellRecord(n, 2, "m", 0.0, 1, 0.0, 0.0, 0.0, True, n**-0.5, 0.0, 0.0)
            for n in (64, 128, 256)
        ]
        bad = [CellRecord(512, 2, "m", 0.0, 1, 0.0, 0.0, 0.0, True, -0.1, 0.0, 0.0)]
        with pytest.warns(UserWarning):
            slope, _ = scaling_fit(good + bad, "n")
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_positive_cells(self):
        cells = [
            CellRecord(64, 2, "m", 0.0, 1, 0.0, 0.0, 0.0, True, -1.0, 0.0, 0.0),
            CellRecord(128, 2, "m", 0.0, 1, 0.0, 0.0, 0.0, True, 1.0, 0.0, 0.0),
            CellRecord(256, 2, "m", 0.0, 1, 0.0, 0.0, 0.0, True, 1.0, 0.0, 0.0),
        ]
        with pytest.warns(UserWarning):
            with pytest.raises(NonPositiveRisk):
                scaling_fit(cells, "n")

    def test_method_filter(self):
        cells = [
            CellRecord(n, 2, "exact_erm_approx", 0.0, 1, 0.0, 0.0, 0.0, True,
                       n**-0.5, 0.0, 0.0)
            for n in (64, 128, 256)
        ] + [
            CellRecord(n, 2, "nystrom", 0.0, 1, 0.0, 0.0, 0.0, True, n**-1.0, 0.0, 0.0)
            for n in (64, 128, 256)
        ]
        s_exact, _ = scaling_fit(cells, "n", method="exact_erm_approx")
        s_nys, _ = scaling_fit(cells, "n", method="nystrom")
        assert s_exact == pytest.approx(-0.5, abs=1e-12)
        assert s_nys == pytest.approx(-1.0, abs=1e-12)


class TestBetaRatioStudy:
    def test_ratios_bounded_below_and_tight(self):
        P = standard_benchmark(2)
        summary = beta_ratio_study(P, 40, rng=np.random.default_rng(6))
        assert np.all(summary.ratios >= 1.0 - 1e-10)
        assert summary.p95 <= 1.2
        assert summary.max >= summary.p95 >= summary.mean - 1e-12

    def test_perfectly_clusterable_gives_unit_ratio(self):
        atoms = np.array([[0.0, 0.0], [9.0, 0.0]])
        P = uniform_spec(atoms, KernelSpec("gaussian", bandwidth=0.5))
        summary = beta_ratio_study(P, 10, rng=np.random.default_rng(7), k=2)
        assert summary.max == pytest.approx(1.0, abs=1e-9)


class TestStandardBenchmark:
    def test_atoms_on_unit_sphere(self):
        for k in (2, 4):
            P = standard_benchmark(k)
            assert P.n_atoms == 6 * k
            assert np.allclose(np.linalg.norm(P.atoms, axis=1), 1.0, atol=1e-12)
            assert np.allclose(P.weights, 1.0 / (6 * k))

    def test_deterministic(self):
        a = standard_benchmark(2)
        b = standard_benchmark(2)
        assert np.array_equal(a.atoms, b.atoms)

    def test_feature_norms_within_unit_ball(self):
        P = standard_benchmark(4)
        assert np.all(P.gram.diag <= 1.0 + 1e-12)
