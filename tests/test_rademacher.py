import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kkmlab
import kkmlab.rademacher as rademacher_module
from kkmlab import (
    coordinate_rad,
    finite_class_rad,
    khintchine_check,
    lower_bound_construction,
    rad_check_cell,
    signed_scatter_supremum,
    theorem_bound_value,
)
from oracle_utils import (
    grid_supremum,
    reference_coordinate_rad,
    reference_finite_class_rad,
    reference_khintchine_lhs,
    reference_min_dist_table,
)

from kkmlab.errors import (
    EnumerationTooLarge,
    InvalidLogArgument,
    NonFiniteInput,
    NormViolation,
    NotDivisible,
)


class TestClosedFormSupremum:
    def test_mixed_signs_on_basis_pair(self):
        data = np.eye(2)
        val = signed_scatter_supremum(data, np.array([1.0, -1.0]))
        assert val == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert grid_supremum(data, np.array([1.0, -1.0])) == pytest.approx(val, abs=1e-3)

    def test_all_negative_on_basis_pair(self):
        data = np.eye(2)
        val = signed_scatter_supremum(data, np.array([-1.0, -1.0]))
        assert val == pytest.approx(-1.0, abs=1e-12)
        assert grid_supremum(data, np.array([-1.0, -1.0])) == pytest.approx(val, abs=1e-3)

    def test_degenerate_negative_sum_zero_vector(self):
        # s < 0 with v = 0: supremum 0 at c = 0, so total is just the base
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        sigma = np.array([-1.0, -1.0])
        assert signed_scatter_supremum(data, sigma) == pytest.approx(-2.0, abs=1e-12)
        assert grid_supremum(data, sigma) == pytest.approx(-2.0, abs=1e-3)

    def test_matches_grid_oracle_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 5))
            data = rng.normal(size=(n, d))
            data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
            sigma = 2.0 * rng.integers(0, 2, size=n) - 1.0
            closed = signed_scatter_supremum(data, sigma)
            assert grid_supremum(data, sigma) == pytest.approx(closed, abs=1e-3)


class TestCoordinateRad:
    def test_norm_violation(self):
        with pytest.raises(NormViolation):
            coordinate_rad(np.array([[2.0, 0.0]]))

    def test_exact_auto_selected_for_small_n(self):
        est = coordinate_rad(np.eye(3))
        assert est.exact and est.std_error == 0.0 and est.trials == 8

    def test_exact_value_on_basis_pair(self):
        # mean over the four sign patterns: (4 + 2 sqrt 2) + 2 sqrt 2
        # + 2 sqrt 2 + (-1), divided by 4
        est = coordinate_rad(np.eye(2))
        expect = (3.0 + 6.0 * math.sqrt(2.0)) / 4.0
        assert est.value == pytest.approx(expect, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 3))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        exact = coordinate_rad(data)
        mc = coordinate_rad(data, trials=20_000, rng=rng, exact=False)
        assert not mc.exact and mc.std_error > 0
        assert abs(mc.value - exact.value) <= 5.0 * mc.std_error

    def test_three_sqrt_n_bound(self):
        rng = np.random.default_rng(2)
        for n in (4, 9, 16):
            data = rng.normal(size=(n, 4))
            data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
            est = coordinate_rad(data, trials=10_000, rng=rng)
            assert est.value <= 3.0 * math.sqrt(n) + 3.0 * est.std_error


class TestLowerBoundConstruction:
    def test_k2_n4_pattern(self):
        inst = lower_bound_construction(2, 4)
        expect = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(inst.data, expect)
        assert inst.class_size == 4

    def test_k1_n3(self):
        inst = lower_bound_construction(1, 3)
        assert np.array_equal(inst.data, np.ones((3, 1)))
        sets = inst.center_sets()
        assert sets.shape == (2, 1, 1)
        assert sorted(s.item() for s in sets[:, 0, 0]) == [-1.0, 1.0]

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            lower_bound_construction(3, 5)

    def test_center_sets_cover_all_sign_patterns(self):
        inst = lower_bound_construction(3, 6)
        sets = inst.center_sets()
        assert sets.shape == (8, 3, 3)
        signs = {tuple(np.diagonal(s).astype(int)) for s in sets}
        assert len(signs) == 8


class TestFiniteClassRad:
    def test_single_member_class_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 2))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        centers = rng.normal(size=(1, 2, 2))
        est = finite_class_rad(data, centers, exact=True)
        assert est.value == 0.0
        assert est.exact

    def test_construction_k2_n2_exact_value(self):
        inst = lower_bound_construction(2, 2)
        est = finite_class_rad(inst.data, inst.center_sets(), exact=True)
        assert est.value == pytest.approx(2.0, abs=1e-12)
        assert est.value >= math.sqrt(2.0 * 2.0 / 2.0)

    def test_construction_k2_n4_meets_lower_bound(self):
        inst = lower_bound_construction(2, 4)
        est = finite_class_rad(inst.data, inst.center_sets(), exact=True)
        assert est.value >= math.sqrt(2.0 * 4.0 / 2.0)

    def test_exact_matches_direct_enumeration(self):
        # independent oracle: loop over all sign vectors and class members
        from itertools import product

        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 2))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        centers = rng.normal(size=(3, 2, 2))
        est = finite_class_rad(data, centers, exact=True)
        total = 0.0
        for signs in product((1.0, -1.0), repeat=5):
            best = -np.inf
            for c in centers:
                dmin = np.min(
                    np.sum((data[:, None, :] - c[None, :, :]) ** 2, axis=2), axis=1
                )
                best = max(best, float(np.dot(signs, dmin)))
            total += best
        assert est.value == pytest.approx(total / 32.0, abs=1e-12)

    def test_superclass_dominates_subclass(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(6, 2))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        centers = rng.normal(size=(5, 2, 2))
        small = finite_class_rad(data, centers[:2], exact=True)
        big = finite_class_rad(data, centers, exact=True)
        assert big.value >= small.value - 1e-12

    def test_monte_carlo_mode(self):
        inst = lower_bound_construction(2, 8)
        exact = finite_class_rad(inst.data, inst.center_sets(), exact=True)
        mc = finite_class_rad(
            inst.data, inst.center_sets(), trials=20_000, rng=np.random.default_rng(6)
        )
        assert abs(mc.value - exact.value) <= 5.0 * mc.std_error

    def test_enumeration_guard(self):
        data = np.zeros((21, 1))
        with pytest.raises(EnumerationTooLarge):
            finite_class_rad(data, np.zeros((1, 1, 1)), exact=True)


class TestPointChecks:
    # a NaN point used to give nan; no points gave coordinate_rad 0 over
    # "1 trial" and finite_class_rad a TypeError
    ESTIMATORS = {"coordinate": coordinate_rad,
                  "finite_class": lambda data: finite_class_rad(data, np.zeros((1, 2, 2)))}

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_nan_point_raises(self, estimator):
        with pytest.raises(NonFiniteInput, match="non-finite values in data"):
            self.ESTIMATORS[estimator](np.array([[0.5, 0.0], [np.nan, 0.1]]))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_no_points_raise(self, estimator):
        with pytest.raises(ValueError, match="data must be a nonempty"):
            self.ESTIMATORS[estimator](np.zeros((0, 2)))

    def test_supremum_checks_its_points(self):
        # a NaN point used to give nan, and a point outside the unit ball 13.75
        sigma = np.array([1.0, -1.0])
        with pytest.raises(NonFiniteInput, match="non-finite values in data"):
            signed_scatter_supremum(np.array([[np.nan, 0.0], [0.5, 0.0]]), sigma)
        with pytest.raises(NormViolation, match="feature norms must be <= 1"):
            signed_scatter_supremum(np.array([[3.0, 0.0], [0.5, 0.0]]), sigma)

    def test_non_finite_center_sets_raise(self):
        # used to return RadEstimate(value=nan, std_error=nan, trials=10000)
        with pytest.raises(NonFiniteInput, match="non-finite values in center_sets"):
            finite_class_rad(np.eye(2), np.full((1, 2, 2), np.nan))
        with pytest.raises(NonFiniteInput, match="center_sets"):
            finite_class_rad(np.eye(2), np.array([[[0.0, np.inf], [0.0, 0.0]]]), exact=True)


class TestRadCheckCell:
    def test_sampled_cell_needs_two_trials(self):
        # one trial used to give std_error 0 and a violated finite-class row
        with pytest.raises(ValueError, match="trials >= 2, got 1"):
            rad_check_cell(lower_bound_construction(1, 22), 1, 42)

    def test_exact_cell_draws_nothing(self):
        rows, sampled = rad_check_cell(lower_bound_construction(2, 4), 1, 42)
        assert not sampled and [r.verdict for r in rows] == ["satisfied"] * 3


class TestKhintchine:
    def test_block_one(self):
        res = khintchine_check(1)
        assert res.lhs == 0.5
        assert res.rhs == pytest.approx(math.sqrt(1 / 8), abs=1e-15)
        assert res.lhs >= res.rhs

    def test_block_two_equality(self):
        res = khintchine_check(2)
        assert res.lhs == 0.5 and res.rhs == 0.5

    def test_block_four(self):
        res = khintchine_check(4)
        assert res.lhs == 0.75
        assert res.lhs >= res.rhs

    def test_all_blocks_to_twenty(self):
        for block in range(1, 21):
            res = khintchine_check(block)
            assert res.lhs >= res.rhs

    def test_closed_form_to_two_hundred(self):
        for block in range(1, 201):
            want = Fraction(block * math.comb(block - 1, (block - 1) // 2), 2**block)
            assert khintchine_check(block).lhs == float(want)

    def test_binomial_sum_bits_are_kept_to_sixty(self):
        # the sum that served blocks up to 20; blocks above 20 were sampled
        for block in range(1, 61):
            assert khintchine_check(block).lhs == reference_khintchine_lhs(block)

    def test_bound_holds_to_two_thousand(self):
        for block in range(1, 2001):
            res = khintchine_check(block)
            assert res.lhs >= res.rhs


class TestMonteCarloBits:
    # recorded before the three estimators shared one sampler: the draws,
    # means and standard errors must keep every bit
    @pytest.mark.parametrize("n, trials, coordinate, finite", [
        (6, 1, ("0x1.0032933f8c180p+2", "0x0.0p+0"), ("0x1.7675050730890p+0", "0x0.0p+0")),
        (12, 7, ("0x1.0e54e223258d8p+1", "0x1.200002826ab03p+0"),
         ("0x1.6637cef6f5d78p+0", "0x1.6ec576d6eba6bp-1")),
        (25, 500, ("0x1.1de9f2e0c5b86p+2", "0x1.9dc1f6adc0728p-3"),
         ("0x1.2b5209992edb0p+1", "0x1.51a8c4e0130f0p-3")),
    ])
    def test_estimators_are_pinned(self, n, trials, coordinate, finite):
        g = np.random.default_rng([n, 0xC0])
        data = g.normal(size=(n, 3))
        data /= 1.25 * np.linalg.norm(data, axis=1).max()  # norms below 1
        sets = 0.5 * g.normal(size=(5, 3, 3))
        c = coordinate_rad(data, trials, np.random.default_rng([n, 1]), exact=False)
        f = finite_class_rad(data, sets, trials, np.random.default_rng([n, 2]))
        for est, want in ((c, coordinate), (f, finite)):
            assert not est.exact and est.trials == trials
            assert (est.value.hex(), est.std_error.hex()) == want


class TestTheoremBoundValue:
    def test_unit_log_point(self):
        n = 100.0
        val = theorem_bound_value(1, 100, n / math.e, delta_exponent=0.3, c_const=1.0)
        assert val == pytest.approx(n / math.e, abs=1e-9)

    def test_sqrt_k_scaling(self):
        v1 = theorem_bound_value(1, 256, 10.0, 0.01, 1.0)
        v4 = theorem_bound_value(4, 256, 10.0, 0.01, 1.0)
        assert v4 == pytest.approx(2.0 * v1, abs=1e-9)

    def test_formula_point(self):
        expect = 2.0 * 48.0 * math.log(16.0 / 3.0) ** 1.51
        assert theorem_bound_value(4, 256, 48.0, 0.01, 1.0) == pytest.approx(expect, abs=1e-9)

    def test_invalid_log_argument(self):
        with pytest.raises(InvalidLogArgument):
            theorem_bound_value(2, 10, 10.0, 0.0, 1.0)
        with pytest.raises(InvalidLogArgument):
            theorem_bound_value(2, 10, 0.0, 0.0, 1.0)


def test_min_is_one_lipschitz_in_sup_norm():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        u = rng.normal(size=k) * rng.uniform(0.1, 100)
        v = rng.normal(size=k) * rng.uniform(0.1, 100)
        assert abs(np.min(u) - np.min(v)) <= np.max(np.abs(u - v))


def _shift_sign_block(start, stop, n):
    """The +-1 patterns of [start, stop) over n bits, one shift per bit."""
    codes = np.arange(start, stop, dtype=np.int64)[:, None]
    bits = (codes >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(float)


class TestSignBlocks:
    @pytest.mark.parametrize("n", [1, 13, 14, 15, 20, 24])
    def test_blocks_equal_the_shift_formula(self, n):
        B, count = 2**14, 2**n
        ranges = [(0, min(B, count)), (min(3, count - 1), min(B + 3, count)), (max(count - 5, 0), count)]
        if n > 14:
            ranges += [(B, 2 * B), (count - B, count), (37 * B % count, 37 * B % count + B),
                       (B + 1, 2 * B + 1), (2 * B, 2 * B + 100), (count - B - 100, count)]
        for start, stop in ranges:
            got = rademacher_module._sign_block(start, stop, n)
            want = _shift_sign_block(start, stop, n)
            assert got.dtype == want.dtype and got.shape == want.shape, (start, stop)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (start, stop)

    @pytest.mark.parametrize(
        "k, coordinate, finite",
        [
            (2, "0x1.fef488782e137p+2", "0x1.3b00000000000p+2"),
            (4, "0x1.1358398498618p+3", "0x1.e000000000000p+2"),
            (5, "0x1.16c1964f37101p+3", "0x1.e000000000000p+2"),
        ],
    )
    def test_exact_values_on_twenty_points_are_pinned(self, k, coordinate, finite):
        # recorded with the per-bit shift enumeration; the block tables must
        # feed the same sign matrices, so every bit of the sums is kept
        inst = lower_bound_construction(k, 20)
        assert coordinate_rad(inst.data).value.hex() == coordinate
        assert finite_class_rad(inst.data, inst.center_sets(), exact=True).value.hex() == finite

    def test_import_does_not_build_the_sign_table(self):
        src = str(Path(kkmlab.__file__).resolve().parents[1])
        code = "import kkmlab.rademacher as r; print(r._low_signs.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


def _repeated_rows(rng, n):
    """n points in the unit ball, some of them repeated, in shuffled order."""
    distinct = rng.normal(size=(int(rng.integers(1, n)), int(rng.integers(1, 5))))
    distinct /= np.maximum(np.linalg.norm(distinct, axis=1, keepdims=True), 1.0)
    group = rng.permutation(np.resize(np.arange(len(distinct)), n))
    return distinct[group]


def _block_path_ran(start, stop, n):
    """Stands in for ``_sign_block`` where only the grouped path may run."""
    raise AssertionError("sign rows were built block by block")


class TestGroupedSigns:
    @pytest.mark.parametrize(
        "k, n", [(2, 20), (4, 20), (5, 20), (2, 4), (2, 8), (4, 8), (4, 16),
                 (1, 13), (2, 14), (3, 15), (2, 16)],
    )  # the exact cells of the enumeration benchmark's and the demo's grids, and
    # 2^(n-1) finite-class codes filling half a block, one block or two
    def test_construction_cells_keep_every_bit(self, monkeypatch, k, n):
        inst = lower_bound_construction(k, n)
        sets = inst.center_sets()
        want = (reference_coordinate_rad(inst.data), reference_finite_class_rad(inst.data, sets))
        monkeypatch.setattr(rademacher_module, "_sign_block", _block_path_ran)
        assert coordinate_rad(inst.data).value.hex() == want[0].hex()
        assert finite_class_rad(inst.data, sets, exact=True).value.hex() == want[1].hex()

    def test_random_repeated_rows_agree_with_block_path(self, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(3, 15))
            data = _repeated_rows(rng, n)
            sets = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 4)), data.shape[1]))
            want = (reference_coordinate_rad(data), reference_finite_class_rad(data, sets))
            with monkeypatch.context() as m:
                m.setattr(rademacher_module, "_sign_block", _block_path_ran)
                got = (coordinate_rad(data).value, finite_class_rad(data, sets, exact=True).value)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (n, g, w)

    def test_single_member_class_on_repeated_rows_is_exactly_zero(self, monkeypatch):
        rng = np.random.default_rng(13)
        data = _repeated_rows(rng, 12)
        monkeypatch.setattr(rademacher_module, "_sign_block", _block_path_ran)
        est = finite_class_rad(data, rng.normal(size=(1, 2, data.shape[1])), exact=True)
        assert est.value == 0.0 and est.exact and est.trials == 2**12

    def test_distinct_rows_keep_the_block_path(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(9, 2)) / 4.0
        sets = rng.normal(size=(3, 2, 2))
        assert coordinate_rad(data).value == reference_coordinate_rad(data)
        assert finite_class_rad(data, sets, exact=True).value == reference_finite_class_rad(data, sets)


def _block_rows(data, count):
    """Each block's table rows, worked out from its codes' bits: the plus
    count of each group of identical rows, read in mixed radix."""
    _, group, sizes = np.unique(data, axis=0, return_inverse=True, return_counts=True)
    strides = np.cumprod(np.concatenate(([1], sizes[:-1] + 1)))
    member = group[:, None] == np.arange(len(sizes))[None, :]
    blocks = []
    for start in range(0, count, rademacher_module._BLOCK):
        codes = np.arange(start, min(start + rademacher_module._BLOCK, count))
        bits = (codes[:, None] >> np.arange(len(data))[None, :]) & 1
        blocks.append((bits @ member) @ strides)
    return blocks


class TestDistinctBlocks:
    @pytest.mark.parametrize(
        "k, coordinate, finite", [(2, 7, 6), (4, 12, 10), (5, 15, 12)],
    )  # the exact cells of the enumeration benchmark: blocks of 2^20 and 2^19 codes
    def test_each_distinct_block_is_gathered_once(self, k, coordinate, finite):
        data = lower_bound_construction(k, 20).data
        for count, want in ((2**20, coordinate), (2**19, finite)):
            gathered = []

            class Table(np.ndarray):
                def __getitem__(self, index):
                    gathered.append(np.array(index))
                    return np.asarray(self)[index]

            def values(signs):
                return rademacher_module._batch_suprema(data, signs).view(Table)

            rademacher_module._pattern_sum(data, count, values)
            blocks = {rows.tobytes() for rows in _block_rows(data, count)}
            assert len(gathered) == len(blocks) == want
            assert {rows.tobytes() for rows in gathered} == blocks

    def test_grouping_is_worked_out_once_for_both_estimators(self):
        inst = lower_bound_construction(4, 16)
        sets = inst.center_sets()
        rademacher_module._grouping.cache_clear()
        both = (coordinate_rad(inst.data).value, finite_class_rad(inst.data, sets, exact=True).value)
        assert rademacher_module._grouping.cache_info().misses == 1
        rademacher_module._grouping.cache_clear()
        alone = finite_class_rad(inst.data, sets, exact=True).value
        assert both[1].hex() == alone.hex()
        assert both[0].hex() == reference_coordinate_rad(inst.data).hex()


class TestMinDistTable:
    @pytest.mark.parametrize(
        "k, n", [(1, 3), (2, 4), (2, 8), (4, 8), (3, 6), (4, 16), (2, 20), (4, 20), (5, 20), (4, 24)],
    )
    def test_construction_tables_equal_the_class_loop(self, k, n):
        inst = lower_bound_construction(k, n)
        got = rademacher_module._min_dist_table(inst.data, inst.center_sets())
        want = reference_min_dist_table(inst.data, inst.center_sets())
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_random_classes_equal_the_class_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n, d = int(rng.integers(1, 21)), int(rng.integers(1, 6))
            data = rng.normal(size=(n, d))
            sets = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 7)), d))
            got = rademacher_module._min_dist_table(data, sets)
            want = reference_min_dist_table(data, sets)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sets", [np.zeros((0, 2, 2)), np.zeros((3, 0, 2)), []])
    def test_an_empty_class_raises(self, sets):
        with pytest.raises(ValueError):
            rademacher_module._min_dist_table(np.eye(2), sets)
