from itertools import combinations

import numpy as np
import pytest
from numpy.random import PCG64

from kkmlab import (
    KernelSpec,
    approximate_erm,
    brute_force_erm,
    cluster_cost,
    gram_matrix,
    kernel_kmeanspp,
    kernel_lloyd,
    local_search_improve,
)
from kkmlab import seeding
from kkmlab.datasets import two_blob_points
from kkmlab.errors import EmptyCluster, InvariantViolated, KTooLarge, KTooSmall
from kkmlab.kernels import GramMatrix, dists_to_points
from kkmlab.seeding import (
    _dsq_draw,
    _erm_runs,
    _nearest_others,
    _swap_costs,
    _weighted_swap_costs,
)
from oracle_utils import (
    _labels_cost,
    blob_labels,
    reference_approximate_erm,
    result_for_centers,
    sequential_kmeanspp,
    sequential_local_search,
)


def discrete_subset_optimum(K, k):
    """Brute force over all k-subsets of points as centers, scored by the
    mean squared distance to the nearest chosen point."""
    best = np.inf
    for subset in combinations(range(K.n), k):
        d = dists_to_points(K, list(subset)).min(axis=1)
        best = min(best, float(d.mean()))
    return best


def induced_subset_optimum(K, k):
    """Brute force over k-subsets, scored by the induced assignment's
    mean-centroid cost (the objective the local search accepts swaps on)."""
    best_cost = np.inf
    best_subset = None
    for subset in combinations(range(K.n), k):
        labels = np.argmin(dists_to_points(K, list(subset)), axis=1)
        cost = _labels_cost(K, labels, k)
        if cost < best_cost:
            best_cost = cost
            best_subset = subset
    return best_subset, best_cost


def seeding_from_centers(K, centers):
    return result_for_centers(K, np.asarray(centers, dtype=np.int64), swaps=0)


class TestKmeansPP:
    def test_k_one_uniform(self):
        rng = np.random.default_rng(0)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(10, 2)))
        res = kernel_kmeanspp(K, 1, rng)
        assert res.center_indices.shape == (1,)
        assert np.all(np.asarray(res.induced.labels) == 0)

    def test_two_locations_forces_second_center(self):
        # many exact copies at two spots: after the first draw the other
        # location is the only point with positive weight
        X = np.array([[0.0, 0.0]] * 6 + [[3.0, 0.0]] * 6)
        K = gram_matrix(KernelSpec("gaussian"), X)
        for seed in range(30):
            res = kernel_kmeanspp(K, 2, np.random.default_rng(seed))
            spots = {0 if i < 6 else 1 for i in res.center_indices}
            assert spots == {0, 1}

    def test_reproducible_with_fixed_seed(self):
        X = np.random.default_rng(99).normal(size=(20, 3))
        K = gram_matrix(KernelSpec("gaussian"), X)
        runs = [kernel_kmeanspp(K, 4, np.random.default_rng(42)) for _ in range(3)]
        for r in runs[1:]:
            assert np.array_equal(r.center_indices, runs[0].center_indices)

    def test_distinct_indices_and_cost_invariant(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 2))
        K = gram_matrix(KernelSpec("gaussian"), X)
        res = kernel_kmeanspp(K, 3, rng)
        assert len(set(res.center_indices.tolist())) == 3
        assert res.cost == pytest.approx(cluster_cost(K, res.induced), abs=1e-14)

    def test_zero_weight_points_never_sampled(self):
        # every point at distance 0 from a center has zero selection weight:
        # duplicated points of a chosen center never become centers via D^2
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        K = gram_matrix(KernelSpec("linear"), X)
        for seed in range(40):
            res = kernel_kmeanspp(K, 3, np.random.default_rng(seed))
            assert not {0, 1} <= set(res.center_indices.tolist())

    def test_k_too_large(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(3))
        with pytest.raises(KTooLarge):
            kernel_kmeanspp(K, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_an_input_error(self, k):
        K = gram_matrix(KernelSpec("linear"), np.eye(3))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(KTooSmall, match="k must be >= 1"):
            kernel_kmeanspp(K, k, rng)
        assert rng.bit_generator.state == state


class TestDsqDraw:
    def test_zero_weight_draw_raises_typed_error(self):
        # a uniform below the whole CDF lands on d2[0], which is zero: the
        # sampler flags it, and the search that reaches it raises
        choice, ok = _dsq_draw(np.array([[0.0, 1.0, 2.0]]), np.array([[-0.5, 0.7]]))
        assert choice.tolist() == [[0, 2]] and ok.tolist() == [[False, True]]

        class ZeroWeightRng(np.random.Generator):
            def random(self, size=None):
                return np.full(size, -0.5)

        K = gram_matrix(KernelSpec("linear"), np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(InvariantViolated):
            local_search_improve(K, seeding_from_centers(K, [0]), 3, ZeroWeightRng(PCG64(0)))

    def test_draws_as_generator_choice_does(self):
        # same indices and same generator state as rng.choice with p = d2 / sum,
        # row by row, for several rows drawn in one call
        for seed in range(300):
            g = np.random.default_rng([seed, 0xD2])
            n = 1 + seed
            d2 = g.exponential(size=(3, n)) * (g.random((3, n)) < 0.7)
            d2[:, g.integers(n)] = g.exponential()  # at least one positive weight
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for _ in range(2):
                want = [[int(theirs.choice(n, p=row / float(row.sum()))) for _ in range(4)]
                        for row in d2]
                got, ok = _dsq_draw(d2, ours.random((3, 4)))
                assert got.tolist() == want and ok.all()
                assert ours.bit_generator.state == theirs.bit_generator.state


class TestSwapCosts:
    @pytest.mark.parametrize("n", [24, 64, 256])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_batch_equals_per_trial_cost(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        for _ in range(5):
            K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(n, 3)))
            center_dists = dists_to_points(K, rng.choice(n, size=k, replace=False))
            cand_cols = dists_to_points(K, [int(rng.integers(n)), 0, n - 1])
            batch = _swap_costs(K, _nearest_others(center_dists), cand_cols)
            assert batch.shape == (3, k)
            for b, costs in enumerate(batch):
                for pos in range(k):
                    trial = center_dists.copy()
                    trial[:, pos] = cand_cols[:, b]
                    labels = np.argmin(trial, axis=1).astype(np.int64)
                    assert costs[pos] == _labels_cost(K, labels, k)

    def test_trial_that_empties_a_cluster_is_inf(self):
        # point 1 duplicates center 0: putting it in place of center 2 gives
        # two identical columns, the tie goes to position 0 and cluster 1 is empty
        X = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.2, 0.0], [0.1, 0.0]])
        K = gram_matrix(KernelSpec("gaussian"), X)
        center_dists = dists_to_points(K, [0, 2])
        costs = _swap_costs(K, _nearest_others(center_dists), dists_to_points(K, [1]))[0]
        assert costs[1] == np.inf
        assert np.isfinite(costs[0])
        assert costs[0] == _labels_cost(K, np.argmin(center_dists, axis=1), 2)

    @pytest.mark.parametrize("centers", [[3, 0], [0, 3]])
    def test_point_tied_between_candidate_and_center(self, centers):
        # point 1 (x=0) is as far from the candidate (x=1) as from the center x=-1;
        # the tie goes to the lower position, as in np.argmin
        K = gram_matrix(KernelSpec("linear"), np.array([[-1.0], [0.0], [1.0], [5.0]]))
        center_dists = dists_to_points(K, centers)
        costs = _swap_costs(K, _nearest_others(center_dists), dists_to_points(K, [2]))[0]
        for pos in range(2):
            trial = center_dists.copy()
            trial[:, pos] = dists_to_points(K, [2])[:, 0]
            labels = np.argmin(trial, axis=1).astype(np.int64)
            assert costs[pos] == _labels_cost(K, labels, 2)

    def test_tie_goes_to_lowest_position(self):
        # centers on the two middle points; any D^2 candidate comes from one
        # outer group, and swapping it for either center gives the same
        # partition (outer group vs the rest), so both swaps cost the same
        X = np.array([[-10.0], [-10.1], [-0.1], [0.1], [10.0], [10.1]])
        K = gram_matrix(KernelSpec("linear"), X)
        seed = seeding_from_centers(K, [2, 3])
        for s in range(10):
            out = local_search_improve(K, seed, 1, np.random.default_rng(s))
            assert out.swaps_accepted == 1
            cand = int(out.center_indices[0])
            assert cand not in (2, 3) and out.center_indices[1] == 3
            near = _nearest_others(dists_to_points(K, [2, 3]))
            costs = _swap_costs(K, near, dists_to_points(K, [cand]))[0]
            assert costs[0] == costs[1]


class TestLocalSearch:
    @pytest.mark.parametrize(
        "seed, n, k, centers, cost, swaps",
        [
            (7, 40, 4, [19, 29, 8, 26], 0.27339300174538506, 3),
            (21, 64, 5, [24, 51, 43, 45, 59], 0.28406643975083556, 6),
            (3, 120, 8, [20, 67, 90, 27, 113, 84, 112, 103], 0.2433111986980484, 17),
        ],
    )
    def test_fixed_seed_regression(self, seed, n, k, centers, cost, swaps):
        # pinned from the per-position scorer that the batched one replaced
        rng = np.random.default_rng(seed)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(n, 2)))
        out = local_search_improve(K, kernel_kmeanspp(K, k, rng), 25 * k, rng)
        assert out.center_indices.tolist() == centers
        assert out.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
        assert out.swaps_accepted == swaps

    def test_zero_rounds_returns_input(self):
        rng = np.random.default_rng(1)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(12, 2)))
        seed = kernel_kmeanspp(K, 3, rng)
        out = local_search_improve(K, seed, 0, rng)
        assert out is seed

    @pytest.mark.parametrize("n", [20, 40])
    def test_seed_from_another_gram_rejected(self, n):
        # on 20 points numpy raised IndexError; on 40 that extend the 30, the
        # 30-point seed's cost was the bar, so no swap could beat it
        X = np.random.default_rng(6).normal(size=(40, 2))
        seed = kernel_kmeanspp(gram_matrix(KernelSpec("gaussian"), X[:30]), 3,
                               np.random.default_rng(6))
        with pytest.raises(ValueError, match="seed and Gram matrix disagree on n"):
            local_search_improve(gram_matrix(KernelSpec("gaussian"), X[:n]), seed, 10,
                                 np.random.default_rng(7))

    def test_no_swap_accepted_from_optimal_seed(self):
        for inst in range(10):
            rng = np.random.default_rng(100 + inst)
            X = rng.normal(size=(8, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            subset, _ = induced_subset_optimum(K, 2)
            seed = seeding_from_centers(K, subset)
            out = local_search_improve(K, seed, 100, rng)
            assert out.swaps_accepted == 0
            assert np.array_equal(out.center_indices, seed.center_indices)

    def test_cost_never_increases_and_beats_seed(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n, k = int(rng.integers(8, 20)), int(rng.integers(2, 5))
            X = rng.normal(size=(n, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            seed = kernel_kmeanspp(K, k, rng)
            out = local_search_improve(K, seed, 25 * k, rng)
            assert out.cost <= seed.cost + 1e-12

    def test_tiny_instances_close_to_subset_optimum(self):
        good = 0
        for inst in range(100):
            rng = np.random.default_rng(500 + inst)
            n, k = int(rng.integers(6, 11)), int(rng.integers(2, 4))
            X = rng.normal(size=(n, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            seed = kernel_kmeanspp(K, k, rng)
            out = local_search_improve(K, seed, 25 * k, rng)
            assert out.cost <= seed.cost + 1e-12
            if out.cost <= 1.2 * discrete_subset_optimum(K, k) + 1e-12:
                good += 1
        assert good >= 95


def _outcome(search, K, seed, rounds, rng):
    """What a local search returns with the generator's next uniform after
    the call, or the error it raises (a block may have drawn past the draw
    that raised)."""
    try:
        out = search(K, seed, rounds, rng)
    except (EmptyCluster, InvariantViolated) as exc:
        return type(exc).__name__
    if isinstance(out, tuple):
        out = out[0]
    return (out.center_indices.tolist(), out.cost, out.swaps_accepted), float(rng.random())


class TestBlockLoop:
    """``local_search_improve`` against the round-by-round oracle: equal centers, cost
    bits, swap count and generator state."""

    def test_equals_sequential_loop(self):
        for inst in range(300):
            g = np.random.default_rng([inst, 0xB10C])
            n = int(g.integers(5, 261))
            k = int(g.integers(1, min(9, n) + 1))
            X = g.normal(size=(n, 2))
            if inst % 4 == 0:  # duplicated points
                X[g.integers(n, size=n // 2)] = X[g.integers(n, size=n // 2)]
            rounds = 2 * int(g.integers(0, 40)) + 1  # odd: no multiple of a width > 1
            K = gram_matrix(KernelSpec("gaussian"), X)
            seed = kernel_kmeanspp(K, k, np.random.default_rng(inst))
            got = _outcome(local_search_improve, K, seed, rounds, np.random.default_rng(inst))
            want = _outcome(sequential_local_search, K, seed, rounds, np.random.default_rng(inst))
            assert got == want, (inst, n, k, rounds)

    @pytest.mark.parametrize(
        "first_accept, widths",
        [(1, [1, 2]), (2, [1, 2]), (3, [1, 2, 4]), (6, [1, 2, 4])],
        ids=["first-of-2", "last-of-2", "first-of-4", "last-of-4"],
    )
    def test_accept_at_either_end_of_a_block(self, monkeypatch, first_accept, widths):
        # widths count distinct rows: a row drawn again under the same centers
        # is not scored again, so the improver is the kept candidate that
        # follows ``first_accept`` distinct rows
        seen = []

        def spy(K, near, cand_cols):
            seen.append(cand_cols.shape[1])
            return _swap_costs(K, near, cand_cols)

        monkeypatch.setattr(seeding, "_swap_costs", spy)
        for inst in range(2000):
            g = np.random.default_rng([inst, 0xED6E])
            K = gram_matrix(KernelSpec("gaussian"), g.normal(size=(24, 2)))
            seed = seeding_from_centers(K, g.choice(24, size=3, replace=False))
            _, accepted = sequential_local_search(K, seed, 15, np.random.default_rng(inst))
            d2 = dists_to_points(K, seed.center_indices).min(axis=1)
            draws = _dsq_draw(d2[None], np.random.default_rng(inst).random((1, 15)))[0][0]
            if not accepted or len(np.unique(draws[: accepted[0]])) != first_accept:
                continue
            if len(np.unique(draws)) < sum(widths):  # the improver's chunk is not full
                continue
            got = _outcome(local_search_improve, K, seed, 15, np.random.default_rng(inst))
            assert seen[: len(widths) + 1] == widths + [1]  # the width falls back to 1
            assert got == _outcome(sequential_local_search, K, seed, 15, np.random.default_rng(inst))
            return
        pytest.fail(f"no instance accepts its first swap in round {first_accept}")

    def test_redrawn_rows_score_once_and_equal_sequential_loop(self, monkeypatch):
        # a few points and many rounds: most draws repeat a row under the same centers
        scored = []

        def spy(K, near, cand_cols):
            scored.append(cand_cols.shape[1])
            return _swap_costs(K, near, cand_cols)

        monkeypatch.setattr(seeding, "_swap_costs", spy)
        for inst in range(90):
            g = np.random.default_rng([inst, 0x4E9E])
            n = int(g.integers(5, 13))
            k = int(g.integers(1, min(4, n - 1) + 1))
            X = g.normal(size=(n, 2))
            if inst % 3 == 0:  # at most n/2 distinct points: the screened path
                X = X[g.integers(max(k, n // 3), size=n)]
            K = gram_matrix(_SCREEN_SPECS[inst % 3], X)
            rounds = int(g.integers(25 * k, 201))
            try:
                seed = kernel_kmeanspp(K, k, np.random.default_rng(inst))
            except EmptyCluster:
                continue
            scored.clear()
            got = _outcome(local_search_improve, K, seed, rounds, np.random.default_rng(inst))
            want = _outcome(sequential_local_search, K, seed, rounds, np.random.default_rng(inst))
            assert got == want, (inst, n, k, rounds)
            if K.distinct is None and not isinstance(got, str):  # a row once per center set
                assert sum(scored) <= n * (got[0][2] + 1), inst

    def test_zero_weight_draw_raises_where_the_sequential_loop_does(self):
        class ZeroWeightRng(np.random.Generator):
            """Turns about a third of the uniforms into -0.5, a draw that
            lands on point 0, which has zero weight while it is a center."""

            def random(self, size=None):
                u = super().random(size)
                return np.where(u < 0.3, -0.5, u)

        raised = 0
        for inst in range(60):
            g = np.random.default_rng([inst, 0x2E60])
            K = gram_matrix(KernelSpec("gaussian"), g.normal(size=(30, 2)))
            seed = seeding_from_centers(K, [0, *g.choice(np.arange(1, 30), size=2, replace=False)])
            rounds = 2 * int(g.integers(1, 10)) + 1
            got = _outcome(local_search_improve, K, seed, rounds, ZeroWeightRng(PCG64(inst)))
            want = _outcome(sequential_local_search, K, seed, rounds, ZeroWeightRng(PCG64(inst)))
            assert got == want, inst
            raised += got == "InvariantViolated"
        assert 0 < raised < 60


_SCREEN_SPECS = (
    KernelSpec("gaussian", bandwidth=1.5),
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=3, offset=1.0),
)


def duplicated_sample(inst):
    """n points (5 to 512, log-uniform) drawn from at most 30 distinct ones,
    never more than n/2, under one of the three kernel families; k is at
    most the number of distinct points drawn, and at most 9."""
    g = np.random.default_rng([inst, 0x5C2E])
    n = int(np.exp(g.uniform(np.log(5), np.log(513))))
    atoms = g.normal(size=(int(g.integers(2, min(30, n // 2) + 1)), 2))
    X = atoms[g.integers(len(atoms), size=n)]
    k = int(g.integers(1, min(9, len(np.unique(X, axis=0))) + 1))
    return g, X, gram_matrix(_SCREEN_SPECS[inst % 3], X), k


def half_distinct_sample(inst):
    """n points (80 to 200) drawn from just under n/2 distinct ones, every
    one drawn, with k from 5 to 9; copies' Gram rows are copied bit for bit,
    so every distinct point is one screened row."""
    g = np.random.default_rng([inst, 0xCA9])
    n = int(g.integers(80, 201))
    atoms = g.normal(size=(n // 2 - int(g.integers(0, 4)), 2))
    idx = g.permutation(np.concatenate([np.arange(len(atoms)),
                                        g.integers(len(atoms), size=n - len(atoms))]))
    A = gram_matrix(_SCREEN_SPECS[inst % 3], atoms).entries
    return GramMatrix.from_entries(A[np.ix_(idx, idx)], groups=idx), int(g.integers(5, 10))


def grouped_and_exact(K, g, k, B=8):
    """Grouped and exact costs of every swap of B random candidates for k
    random centers, as two flat arrays."""
    near = _nearest_others(dists_to_points(K, g.choice(K.n, size=k, replace=False)))
    cands = g.integers(K.n, size=B)
    d = K.distinct
    near_rep = [a[:, d.rep] for a in near]
    cols = d.dists[:, d.groups[cands]]
    grouped = _weighted_swap_costs(d.entries, near_rep, cols, d.sizes, d.trace, K.n)
    return grouped.ravel(), _swap_costs(K, near, dists_to_points(K, cands)).ravel()


def assert_within_quarter_margin(K, grouped, exact):
    finite = np.isfinite(exact)
    assert np.array_equal(finite, np.isfinite(grouped))
    assert np.all(np.abs(grouped[finite] - exact[finite]) <= K.distinct.margin / 4)


class TestScreen:
    """The grouped screen on samples with repeated points."""

    def test_distinct_gram(self):
        for inst in range(30):
            _, X, K, _ = duplicated_sample(inst)
            d = K.distinct
            if d is None:
                continue
            # groups split copies of a point only where their Gram rows differ
            assert np.array_equal(K.entries, K.entries[d.rep[d.groups]])
            assert np.array_equal(X, X[d.rep[d.groups]])
            assert np.array_equal(d.rep, [np.flatnonzero(d.groups == u)[0] for u in range(len(d.rep))])
            assert np.array_equal(d.sizes, np.bincount(d.groups))
            assert np.array_equal(d.entries, K.entries[np.ix_(d.rep, d.rep)])
            assert np.array_equal(d.dists, dists_to_points(K, d.rep)[d.rep])
            assert 0.0 < d.margin < 1e-10 * np.abs(K.entries).max()

    def test_screened_loop_equals_sequential_loop(self):
        screened = 0
        for inst in range(300):
            g, _, K, k = duplicated_sample(inst)
            screened += K.distinct is not None
            rounds = 2 * int(g.integers(0, 20)) + 1
            seed = kernel_kmeanspp(K, k, np.random.default_rng(inst))
            got = _outcome(local_search_improve, K, seed, rounds, np.random.default_rng(inst))
            want = _outcome(sequential_local_search, K, seed, rounds, np.random.default_rng(inst))
            assert got == want, (inst, K.n, k, rounds)
        assert screened >= 250

    def test_capped_blocks_equal_sequential_loop(self, monkeypatch):
        # a scoring call holds fewer candidates than a center set's screen
        # or a batch's step has, so both are split into capped chunks; and
        # eight restarts on one generator run as batches of three
        monkeypatch.setattr(seeding, "_BLOCK_ELEMENTS", 2**12)
        monkeypatch.setattr(seeding, "_MAX_RUNS", 3)
        for inst in range(20):
            K, k = half_distinct_sample(inst)
            rounds = 25 * k
            assert seeding._BLOCK_ELEMENTS // (len(K.distinct.rep) * k**2) < rounds
            seed = kernel_kmeanspp(K, k, np.random.default_rng(inst))
            got = _outcome(local_search_improve, K, seed, rounds, np.random.default_rng(inst))
            want = _outcome(sequential_local_search, K, seed, rounds, np.random.default_rng(inst))
            assert got == want, (inst, K.n, k)
            if inst < 4:
                assert_runs_equal_calls(K, k, np.random.default_rng(inst), restarts=8)

    def test_grouped_costs_within_a_quarter_of_the_margin(self):
        for inst in range(300):
            g, _, K, k = duplicated_sample(inst)
            if K.distinct is not None:
                assert_within_quarter_margin(K, *grouped_and_exact(K, g, k))

    def test_rows_that_differ_in_the_last_bits_are_not_grouped(self):
        # copies of a point whose Gram rows are off by a few ulps are split
        # from the unchanged copies, and the screened loop still equals the
        # sequential one
        checked = 0
        for inst in range(60):
            g, X, K0, k = duplicated_sample(inst)
            groups = np.unique(X, axis=0, return_inverse=True)[1].ravel()
            off = g.random(K0.n) < 0.1
            ulps = g.integers(1, 4, size=K0.n) * np.finfo(float).eps
            entries = K0.entries * (1.0 + np.where(off, ulps, 0.0))[:, None]
            K = GramMatrix.from_entries(entries, groups=groups)
            d = K.distinct
            if d is None:  # more than half the rows stand alone
                continue
            assert np.array_equal(K.entries, K.entries[d.rep[d.groups]])
            assert np.all(off[d.rep[d.groups[off]]])  # never grouped with an unchanged copy
            assert_within_quarter_margin(K, *grouped_and_exact(K, g, k))
            seed = kernel_kmeanspp(K, k, np.random.default_rng(inst))
            got = _outcome(local_search_improve, K, seed, 21, np.random.default_rng(inst))
            assert got == _outcome(sequential_local_search, K, seed, 21, np.random.default_rng(inst))
            checked += 1
        assert checked >= 30

    def test_exact_scores_only_what_the_screen_keeps(self, monkeypatch):
        # per center set: one screen of the distinct rows drawn, each row
        # once; exact scores only for kept rows, each at most once; and no
        # rejected row has an improving swap
        sets = []
        real_screen = seeding._screen

        def screen_spy(K, near, rows, bar):
            d = K.distinct
            assert len(set(rows.tolist())) == rows.size
            keep = real_screen(K, near, rows, bar)
            if rows.size:  # copies of a row share their distances, so their near
                full = tuple(a[..., d.groups] for a in near)
                exact = _swap_costs(K, full, dists_to_points(K, d.rep[rows]))
                assert np.all(exact.min(axis=1)[~keep] >= bar[~keep])
            sets.append({"kept": set(rows[keep].tolist()), "rejected": int((~keep).sum()),
                         "scored": []})
            return keep

        def exact_spy(K, near, cand_cols):
            # the rows whose distance column each candidate has (rarely more than one)
            reps = dists_to_points(K, K.distinct.rep)
            for col in cand_cols.T:
                sets[-1]["scored"].append(tuple(np.flatnonzero((reps == col[:, None]).all(axis=0))))
            return _swap_costs(K, near, cand_cols)

        samples = [duplicated_sample(inst)[2:] for inst in range(40)]
        samples += [half_distinct_sample(inst) for inst in range(4)]
        cases = [(inst, K, kernel_kmeanspp(K, k, np.random.default_rng(inst)))
                 for inst, (K, k) in enumerate(samples) if K.distinct is not None]
        monkeypatch.setattr(seeding, "_screen", screen_spy)
        monkeypatch.setattr(seeding, "_swap_costs", exact_spy)
        for inst, K, seed in cases:
            _outcome(local_search_improve, K, seed, 4 * len(seed.center_indices) + 1,
                     np.random.default_rng(inst))
        for s in sets:
            assert all(s["kept"].intersection(rows) for rows in s["scored"])
            assert all(s["scored"].count(rows) <= len(rows) for rows in s["scored"])
        # the screen rejects rows, and exact scores stop at each center set's first improver
        kept = sum(len(s["kept"]) for s in sets)
        assert sum(s["rejected"] for s in sets) > 0 and 0 < sum(len(s["scored"]) for s in sets) < kept

    def test_continuous_data_and_groupless_grams_are_not_screened(self, monkeypatch):
        def no_screen(*args):
            raise AssertionError("screened")

        monkeypatch.setattr(seeding, "_screen", no_screen)
        g = np.random.default_rng(0x5C2F)
        X = g.normal(size=(40, 2))
        X[:19] = X[19:38]  # 21 distinct points of 40: more than half
        _, _, K_dup, _ = duplicated_sample(3)
        for K in (gram_matrix(KernelSpec("gaussian"), X), GramMatrix.from_entries(K_dup.entries)):
            assert K.distinct is None
            seed = kernel_kmeanspp(K, 3, np.random.default_rng(1))
            got = _outcome(local_search_improve, K, seed, 31, np.random.default_rng(1))
            assert got == _outcome(sequential_local_search, K, seed, 31, np.random.default_rng(1))


def assert_runs_equal_calls(K, k, rng, restarts=20, shared=True, rounds=None):
    """One ``_erm_runs`` batch against ``restarts`` ``approximate_erm`` calls,
    or with ``rounds=0`` against ``kernel_kmeanspp`` and ``kernel_lloyd`` per
    generator: the same labels, trace bits, swaps and generator states."""
    state = rng.bit_generator.state
    rngs = [rng] * restarts if shared else [np.random.default_rng([int(rng.integers(2**32)), r])
                                             for r in range(restarts)]
    twins = [np.random.default_rng(0) for _ in rngs]
    for twin, r in zip(twins, rngs):
        twin.bit_generator.state = state if shared else r.bit_generator.state
    twins = [twins[0]] * restarts if shared else twins
    batch = _erm_runs(K, k, rngs, rounds)
    for b, (a, trace, swaps) in enumerate(batch):
        if rounds == 0:
            a2, trace2, swaps2 = *kernel_lloyd(K, kernel_kmeanspp(K, k, twins[b]).induced), 0
        else:
            a2, trace2, swaps2 = approximate_erm(K, k, rng=twins[b])
        assert a.labels.tolist() == a2.labels.tolist(), b
        assert trace.per_iteration_cost.tobytes() == trace2.per_iteration_cost.tobytes(), b
        assert swaps == swaps2, b
    for r, twin in zip(rngs, twins):
        assert r.bit_generator.state == twin.bit_generator.state


def lockstep_sample(inst):
    """5 to 40 points under a Gaussian or linear kernel: distinct, repeated
    (at most half distinct), or exactly k distinct points, with k from 1 to 5."""
    g = np.random.default_rng([inst, 0x10C5])
    n = int(g.integers(5, 41))
    spec = KernelSpec("gaussian") if inst % 2 else KernelSpec("linear")
    k = int(g.integers(1, 6))
    X = g.normal(size=(n, 2))
    if inst % 3 == 1:  # repeated rows, each of at least k points drawn
        m = max(k, n // 2)
        X = X[g.permutation(np.concatenate([np.arange(m), g.integers(m, size=n - m)]))]
    elif inst % 3 == 2:  # every point on one of k: each run stops before its first round
        X = X[:k][np.resize(g.permutation(k), n)]
    return gram_matrix(spec, X), k


class TestLockstep:
    """Restarts on one Gram advanced together equal the calls one by one."""

    def test_twenty_restarts_equal_sequential_calls(self):
        kinds = set()
        for inst in range(240):
            K, k = lockstep_sample(inst)
            assert_runs_equal_calls(K, k, np.random.default_rng([inst, 20]))
            kinds.add((inst % 2, inst % 3, K.distinct is not None))
        assert len(kinds) >= 6

    def test_independent_generators_equal_sequential_calls(self):
        for inst in range(60):
            K, k = lockstep_sample(inst)
            assert_runs_equal_calls(K, k, np.random.default_rng([inst, 21]), shared=False)

    def test_lloyd_restarts_equal_sequential_calls(self):
        # cluster --method lloyd: seeding and Lloyd, one generator per restart
        for inst in range(60):
            K, k = lockstep_sample(inst)
            assert_runs_equal_calls(K, k, np.random.default_rng([inst, 22]), restarts=10,
                                    shared=False, rounds=0)

    def test_repeated_starts_share_one_read_only_fit(self, monkeypatch):
        starts, real = [], seeding._kernel_lloyd

        def recorded(K, inits, *args):  # every start of the batch
            starts.extend(init.labels.tobytes() for init in inits)
            return real(K, inits, *args)

        monkeypatch.setattr(seeding, "_kernel_lloyd", recorded)
        rng = np.random.default_rng(8)  # 40 copies of 6 points: restarts repeat starts
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(6, 2))[rng.integers(6, size=40)])
        fits = _erm_runs(K, 3, [np.random.default_rng(8)] * 20)
        assert len(set(starts)) == len(starts) < 20
        assert len({(id(a), id(trace)) for a, trace, _ in fits}) == len(starts)
        with pytest.raises(ValueError, match="read-only"):
            fits[0][1].per_iteration_cost[-1] = 0.0

    def test_batch_costs_equal_cluster_cost(self):
        # seeds are scored in one stacked product, swaps in another: each cost
        # is its labeling's cost scored on its own
        for inst in range(90):
            K, k = lockstep_sample(inst)
            for rounds in (1, 25 * k):
                for s in seeding._runs(K, k, [np.random.default_rng(inst)] * 20, rounds):
                    assert s.cost.hex() == cluster_cost(K, s.induced).hex()


class TestMinK:
    def test_equals_numpy_min_bit_for_bit(self):
        pool = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, 2.5])
        g = np.random.default_rng(0)
        for shape in [(1,), (3, 1), (7, 2), (4, 9, 3), (2, 5, 8), (20, 256, 2)]:
            for _ in range(20):
                a = np.where(g.random(shape) < 0.7, g.choice(pool, size=shape),
                             g.normal(size=shape))
                got, want = seeding._min_k(a), a.min(axis=-1)
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_signed_zeros_in_either_order(self):
        a = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [np.inf, -0.0], [np.inf, np.inf]])
        assert seeding._min_k(a).tobytes() == a.min(axis=-1).tobytes()


class TestBatchOfOneGenerator:
    """``kernel_kmeanspp``, ``local_search_improve`` and ``approximate_erm`` on a
    caller's generator leave it where the round-by-round calls do."""

    def sample(self, inst, distinct):
        """6 to 29 copies of ``distinct`` points, copied rows equal bit for bit."""
        g = np.random.default_rng([inst, 0xB1])
        idx = np.resize(g.permutation(distinct), int(g.integers(6, 30)))
        A = gram_matrix(_SCREEN_SPECS[inst % 3], g.normal(size=(distinct, 2))).entries
        return GramMatrix.from_entries(A[np.ix_(idx, idx)], groups=idx)

    def test_search_stops_before_its_first_draw(self):
        for inst in range(20):
            k = 1 + inst % 5
            K = self.sample(inst, k)  # every point sits on a center after seeding
            seed = kernel_kmeanspp(K, k, rng := np.random.default_rng(inst))
            want = sequential_kmeanspp(K, k, ref := np.random.default_rng(inst))
            assert seed.center_indices.tolist() == want.center_indices.tolist()
            assert seed.cost == want.cost and rng.random() == ref.random()
            got = _outcome(local_search_improve, K, seed, 25 * k, rng)
            assert got == _outcome(sequential_local_search, K, seed, 25 * k, ref)
            assert got[0][2] == 0
            a, trace, swaps = approximate_erm(K, k, rng=rng)
            a2, trace2, swaps2 = reference_approximate_erm(K, k, 25 * k, ref)
            assert (a.labels.tolist(), trace.per_iteration_cost.tobytes(), swaps) == (
                a2.labels.tolist(), trace2.per_iteration_cost.tobytes(), swaps2)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_seeding_that_runs_out_of_points_raises(self):
        for inst in range(20):
            k = 2 + inst % 4
            K = self.sample(inst, k - 1)
            with pytest.raises(EmptyCluster):
                sequential_kmeanspp(K, k, np.random.default_rng(inst))
            with pytest.raises(EmptyCluster):
                kernel_kmeanspp(K, k, np.random.default_rng(inst))
            with pytest.raises(EmptyCluster):
                approximate_erm(K, k, rng=np.random.default_rng(inst))
            with pytest.raises(EmptyCluster):
                _erm_runs(K, k, [np.random.default_rng(inst)] * 3)

    def test_zero_rounds(self):
        for inst in range(20):
            k = 1 + inst % 4
            K = self.sample(inst, 2 * k + 1)
            rng, ref = np.random.default_rng(inst), np.random.default_rng(inst)
            seed = kernel_kmeanspp(K, k, rng)
            sequential_kmeanspp(K, k, ref)
            state = rng.bit_generator.state
            assert local_search_improve(K, seed, 0, rng) is seed
            assert rng.bit_generator.state == state
            a, trace, swaps = approximate_erm(K, k, 0, rng)
            a2, trace2, swaps2 = reference_approximate_erm(K, k, 0, ref)
            assert (a.labels.tolist(), trace.per_iteration_cost.tobytes(), swaps) == (
                a2.labels.tolist(), trace2.per_iteration_cost.tobytes(), swaps2)
            assert rng.bit_generator.state == ref.bit_generator.state


class TestApproximateErm:
    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -2}, {"rel_tol": -1.0},
                                        {"rel_tol": float("nan")}])
    def test_bad_lloyd_settings_rejected_before_any_draw(self, monkeypatch, kwargs):
        calls, real = [], seeding._runs
        monkeypatch.setattr(seeding, "_runs", lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(2)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(12, 2)))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="max_iter" if "max_iter" in kwargs else "rel_tol"):
            approximate_erm(K, 3, rng=rng, **kwargs)
        assert not calls and rng.bit_generator.state == state

    def test_wide_products_at_n_1024_equal_the_sequential_oracle(self, monkeypatch):
        # from 1024 rows each scoring call makes one wide Gram product for its trials
        stacks, real = [], seeding._cluster_linkage
        monkeypatch.setattr(seeding, "_cluster_linkage",
                            lambda M, labels, *a: stacks.append(len(labels)) or real(M, labels, *a))
        K = gram_matrix(KernelSpec("gaussian"), np.random.default_rng(30).normal(size=(1024, 3)))
        a, trace, swaps = approximate_erm(K, 4, 20, rng := np.random.default_rng(31))
        a2, trace2, swaps2 = reference_approximate_erm(K, 4, 20, ref := np.random.default_rng(31))
        assert (a.labels.tolist(), trace.per_iteration_cost.tobytes(), swaps) == (
            a2.labels.tolist(), trace2.per_iteration_cost.tobytes(), swaps2)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert swaps > 0 and max(stacks) >= 2

    def test_k_equals_n_cost_zero(self):
        rng = np.random.default_rng(3)
        K = gram_matrix(KernelSpec("gaussian"), rng.normal(size=(6, 2)))
        _, trace, _ = approximate_erm(K, 6, rng=rng)
        assert trace.per_iteration_cost[-1] == pytest.approx(0.0, abs=1e-12)

    def test_recovers_two_blobs(self):
        from itertools import permutations

        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = two_blob_points(16, separation=10.0, spread=1.0, rng=rng)
            K = gram_matrix(KernelSpec("gaussian", bandwidth=4.0), X)
            a, _, _ = approximate_erm(K, 2, rng=rng)
            truth = blob_labels(16)
            if any(
                np.array_equal(np.asarray(p)[truth], np.asarray(a.labels))
                for p in permutations(range(2))
            ):
                hits += 1
        assert hits >= 99

    def test_beta_ratio_against_brute_force(self):
        close = 0
        for inst in range(200):
            rng = np.random.default_rng(9000 + inst)
            n, k = int(rng.integers(5, 9)), int(rng.integers(2, 4))
            X = rng.normal(size=(n, 2))
            K = gram_matrix(KernelSpec("gaussian"), X)
            _, opt = brute_force_erm(K, k)
            _, trace, _ = approximate_erm(K, k, rng=rng)
            cost = trace.per_iteration_cost[-1]
            assert cost >= opt - 1e-10
            if opt < 1e-15:
                close += cost < 1e-12
            elif cost <= 1.1 * opt:
                close += 1
        assert close >= 180  # 90% of 200
