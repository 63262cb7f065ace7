import math

import numpy as np
import pytest

from biasaudit.data import GroupPair
from biasaudit.errors import InsufficientDataError, ParameterError
from biasaudit.stats import MwuMode, mann_whitney_u
from biasaudit.thresholds import (
    BiasCurve,
    bias_sweep,
    eer_operating_point,
    hter_at,
    outcomes_at,
    roc_curve,
    significant_regions,
    threshold_for_bonafide_error,
)


class TestOutcomesAt:
    def test_boundary_value_accepted(self):
        assert outcomes_at([1.0, 2.0, 3.0], 2.0) == (2, 1)

    def test_below_minimum_rejects_all(self):
        assert outcomes_at([1.0, 2.0, 3.0], 0.5) == (0, 3)

    def test_above_maximum_accepts_all(self):
        assert outcomes_at([1.0, 2.0, 3.0], 9.0) == (3, 0)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            outcomes_at([], 1.0)

    def test_matches_direct_count(self):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            vals = sorted(rng.lognormal(-3, 0.7, int(rng.integers(1, 40))))
            t = float(rng.lognormal(-3, 0.9))
            acc, rej = outcomes_at(vals, t)
            assert acc == sum(1 for v in vals if v <= t)
            assert acc + rej == len(vals)


class TestRocCurve:
    def test_separable_reaches_zero_error(self):
        curve = roc_curve(bona=[0.1, 0.2, 0.3], attack=[0.8, 0.9])
        assert any(fa == 0.0 and fr == 0.0 for fa, fr in zip(curve.far, curve.frr))

    def test_identical_distributions_floor_at_half(self):
        vals = [float(v) for v in range(1, 11)]
        curve = roc_curve(bona=vals, attack=list(vals))
        assert min(max(fa, fr) for fa, fr in zip(curve.far, curve.frr)) == 0.5

    def test_sentinel_points(self):
        curve = roc_curve(bona=[1.0, 2.0], attack=[1.5, 3.0])
        assert (curve.far[0], curve.frr[0]) == (0.0, 1.0)
        assert (curve.far[-1], curve.frr[-1]) == (1.0, 0.0)
        assert curve.thresholds[0] < 1.0
        assert curve.thresholds[-1] > 3.0

    def test_one_point_per_distinct_value(self):
        bona = [1.0, 1.0, 2.0]
        attack = [2.0, 3.0]
        curve = roc_curve(bona, attack)
        assert len(curve.thresholds) == 3 + 2  # distinct pooled values + sentinels
        assert len(curve.far) == len(curve.frr) == len(curve.thresholds)

    def test_monotone_rates_and_thresholds(self):
        rng = np.random.default_rng(90)
        curve = roc_curve(rng.lognormal(-3.6, 0.5, 60), rng.lognormal(-2.8, 0.5, 45))
        ts = curve.thresholds.tolist()
        assert all(a < b for a, b in zip(ts, ts[1:]))
        fars = curve.far.tolist()
        frrs = curve.frr.tolist()
        assert all(a <= b for a, b in zip(fars, fars[1:]))
        assert all(a >= b for a, b in zip(frrs, frrs[1:]))

    def test_matches_double_loop_counting(self):
        rng = np.random.default_rng(31337)
        bona = list(rng.integers(0, 40, 50).astype(float))
        attack = list(rng.integers(20, 60, 50).astype(float))
        curve = roc_curve(bona, attack)
        for t, far, frr in zip(curve.thresholds, curve.far, curve.frr):
            assert far == sum(1 for v in attack if v <= t) / len(attack)
            assert frr == sum(1 for v in bona if v > t) / len(bona)

    def test_empty_inputs_rejected(self):
        with pytest.raises(InsufficientDataError):
            roc_curve([], [1.0])
        with pytest.raises(InsufficientDataError):
            roc_curve([1.0], [])


class TestEqualErrorRate:
    def test_identical_distributions(self):
        vals = [float(v) for v in range(1, 11)]
        op = eer_operating_point(roc_curve(vals, list(vals)))
        assert op.far == op.frr == 0.5
        assert op.hter == 0.5

    def test_values_leave_as_python_floats(self):
        rng = np.random.default_rng(77)
        bona, attack = rng.lognormal(-3.6, 0.5, 40), rng.lognormal(-2.8, 0.5, 30)
        op = eer_operating_point(roc_curve(bona, attack))
        fields = (op.threshold, op.far, op.frr, op.hter)
        assert all(type(v) is float for v in fields)
        assert "np." not in repr(op)
        for q in (0.0, 0.1, 1.0):
            assert type(threshold_for_bonafide_error(bona, q)) is float

    def test_separable_distributions(self):
        op = eer_operating_point(roc_curve([0.1, 0.2], [0.8, 0.9]))
        assert op.far == 0.0 and op.frr == 0.0 and op.hter == 0.0

    def test_tie_prefers_smaller_worst_rate(self):
        # |far - frr| = 0.5 both at t=2 (rates 0, 0.5) and t=2.5 (rates 1, 0.5)
        op = eer_operating_point(roc_curve([1.0, 2.0, 3.0, 4.0], [2.5]))
        assert op.threshold == 2.0
        assert (op.far, op.frr) == (0.0, 0.5)

    def test_tie_prefers_smaller_threshold(self):
        # (|far - frr|, max) = (0.25, 0.5) at both t=1 and t=2
        bona = [-1.0, 1.0, 2.0, 4.0]
        attack = [0.0, 2.0, 5.0, 6.0]
        op = eer_operating_point(roc_curve(bona, attack))
        assert op.threshold == 1.0
        assert (op.far, op.frr) == (0.25, 0.5)
        assert op.hter == 0.375

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            n_b = int(rng.integers(3, 50))
            n_a = int(rng.integers(3, 50))
            bona = list(rng.integers(0, 25, n_b).astype(float))
            attack = list(rng.integers(10, 35, n_a).astype(float))
            op = eer_operating_point(roc_curve(bona, attack))
            pooled = sorted(set(bona) | set(attack))
            cands = (
                [math.nextafter(pooled[0], -math.inf)]
                + pooled
                + [math.nextafter(pooled[-1], math.inf)]
            )
            best = None
            for t in cands:
                far = sum(1 for v in attack if v <= t) / n_a
                frr = sum(1 for v in bona if v > t) / n_b
                key = (abs(far - frr), max(far, frr), t)
                if best is None or key < best[0]:
                    best = (key, t, far, frr)
            assert op.threshold == best[1]
            assert op.far == best[2]
            assert op.frr == best[3]
            assert op.hter == (best[2] + best[3]) / 2


class TestHterAt:
    def test_known_rates(self):
        op = hter_at([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0], 3.5)
        assert op.far == 0.25
        assert op.frr == 0.25
        assert op.hter == 0.25

    def test_matches_direct_count(self):
        rng = np.random.default_rng(808)
        for _ in range(40):
            bona = list(rng.lognormal(-3.6, 0.5, int(rng.integers(2, 30))))
            attack = list(rng.lognormal(-2.9, 0.5, int(rng.integers(2, 30))))
            t = float(rng.lognormal(-3.2, 0.7))
            op = hter_at(bona, attack, t)
            far = sum(1 for v in attack if v <= t) / len(attack)
            frr = sum(1 for v in bona if v > t) / len(bona)
            assert (op.far, op.frr, op.hter) == (far, frr, (far + frr) / 2)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            hter_at([], [1.0], 0.5)
        with pytest.raises(InsufficientDataError):
            hter_at([1.0], [], 0.5)


class TestThresholdForBonafideError:
    def test_zero_budget_gives_maximum(self):
        bona = [0.3, 0.1, 0.7, 0.5]
        assert threshold_for_bonafide_error(bona, 0.0) == 0.7

    def test_full_budget_gives_sentinel_below_minimum(self):
        bona = [0.3, 0.1, 0.7]
        t = threshold_for_bonafide_error(bona, 1.0)
        assert t < 0.1
        assert t == math.nextafter(0.1, -math.inf)

    def test_strictly_decreasing_across_decile_steps(self):
        bona = sorted(float(v) for v in range(1, 11))
        ts = [threshold_for_bonafide_error(bona, q / 10) for q in range(11)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_achieves_budget_minimally(self):
        rng = np.random.default_rng(2001)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            bona = sorted(rng.lognormal(-3.5, 0.6, n))
            q = float(rng.uniform(0, 1))
            t = threshold_for_bonafide_error(bona, q)
            m = int(math.floor(q * n + 1e-9))
            if m >= n:
                assert t < bona[0]
            else:
                # the selected order statistic rejects exactly m of n ...
                assert t == bona[n - 1 - m]
                assert sum(1 for v in bona if v > t) <= q * n + 1e-9
                # ... and any smaller observed threshold overshoots the budget
                if n - 1 - m > 0:
                    worse = bona[n - 2 - m]
                    assert sum(1 for v in bona if v > worse) > q * n

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            threshold_for_bonafide_error([1.0], -0.01)
        with pytest.raises(ParameterError):
            threshold_for_bonafide_error([1.0], 1.01)
        with pytest.raises(InsufficientDataError):
            threshold_for_bonafide_error([], 0.5)


class TestBiasSweep:
    def test_identical_groups_never_significant(self):
        rng = np.random.default_rng(510)
        vals = list(rng.lognormal(-3.5, 0.5, 80))
        curve = bias_sweep(vals, list(vals))
        assert all(p == 1.0 for p in curve.p_values)
        assert significant_regions(curve) == []

    def test_default_grid_is_pooled_distinct_values(self):
        rng = np.random.default_rng(1848)
        a = list(rng.lognormal(-3.6, 0.45, 200))
        b = list(rng.lognormal(-3.4, 0.45, 200))
        curve = bias_sweep(a, b)
        assert len(curve.grid) == 400  # continuous draws never collide
        assert curve.grid.tolist() == sorted(set(a) | set(b))

    def test_shifted_group_flagged_against_it(self):
        rng = np.random.default_rng(1007)
        a = list(rng.lognormal(-3.8, 0.4, 150))
        b = list(rng.lognormal(-3.2, 0.4, 150))
        curve = bias_sweep(a, b, pair=GroupPair.of("east", "west"))
        regions = significant_regions(curve)
        assert regions
        assert all(r.worse_group == "west" for r in regions)

    def test_bimodal_group_yields_multiple_regions(self):
        rng_a = np.random.default_rng(301)
        rng_b = np.random.default_rng(302)
        a = list(rng_a.lognormal(-3.6, 0.25, 200))
        b = list(
            np.concatenate(
                [rng_b.lognormal(-4.3, 0.25, 100), rng_b.lognormal(-2.9, 0.25, 100)]
            )
        )
        regions = significant_regions(bias_sweep(a, b))
        assert len(regions) >= 2

    def test_monotone_transform_leaves_p_values_unchanged(self):
        rng = np.random.default_rng(740)
        a = list(rng.lognormal(-3.7, 0.5, 90))
        b = list(rng.lognormal(-3.3, 0.5, 70))
        base = bias_sweep(a, b)
        scaled = bias_sweep([4.0 * v for v in a], [4.0 * v for v in b])
        cubed = bias_sweep([v**3 for v in a], [v**3 for v in b])
        assert scaled.p_values.tolist() == base.p_values.tolist()
        assert cubed.p_values.tolist() == base.p_values.tolist()
        assert scaled.signs.tolist() == base.signs.tolist()
        # Mann-Whitney sees only ranks too: normal-approx at 90+70, exact at 10+10
        for x, y, mode in [(a, b, MwuMode.NORMAL_APPROX), (a[:10], b[:10], MwuMode.EXACT)]:
            ref = mann_whitney_u(x, y, mode)
            assert mann_whitney_u([4.0 * v for v in x], [4.0 * v for v in y], mode) == ref
            assert mann_whitney_u([v**3 for v in x], [v**3 for v in y], mode) == ref

    def test_curve_owns_read_only_columns(self):
        grid = np.array([1.0, 2.0, 3.0])
        curve = bias_sweep([1.0, 3.0, 3.0], [2.0, 2.0, 3.0], grid=grid)
        assert (curve.grid.dtype, curve.p_values.dtype, curve.signs.dtype) == (
            np.float64,
            np.float64,
            np.int8,
        )
        # rejected of three: 2 vs 3 at 1.0, 2 vs 1 at 2.0, none at 3.0
        assert curve.signs.tolist() == [-1, 1, 0]
        for column in (curve.grid, curve.p_values, curve.signs):
            assert not column.flags.writeable
        assert grid.flags.writeable and not np.shares_memory(grid, curve.grid)

    def test_explicit_grid_checked(self):
        a, b = [1.0, 2.0], [1.5, 2.5]
        with pytest.raises(ParameterError):
            bias_sweep(a, b, grid=[1.0])
        with pytest.raises(ParameterError):
            bias_sweep(a, b, grid=[1.0, 1.0, 2.0])
        with pytest.raises(ParameterError):
            bias_sweep(a, b, grid=[2.0, 1.0])

    def test_empty_group_rejected(self):
        with pytest.raises(InsufficientDataError):
            bias_sweep([], [1.0, 2.0])

    def test_alpha_validated(self):
        with pytest.raises(ParameterError):
            bias_sweep([1.0, 2.0], [1.5, 2.5], alpha=0.0)
        with pytest.raises(ParameterError):
            bias_sweep([1.0, 2.0], [1.5, 2.5], alpha=1.0)


def make_curve(p_values, directions=None, alpha=0.05):
    n = len(p_values)
    if directions is None:
        directions = tuple("a" if p < 1.0 else None for p in p_values)
    return BiasCurve(
        pair=GroupPair("a", "b"),
        grid=[float(i + 1) for i in range(n)],
        p_values=p_values,
        alpha=alpha,
        signs=[{"a": 1, "b": -1, None: 0}[d] for d in directions],
    )


class TestSignificantRegions:
    def test_two_runs(self):
        regions = significant_regions(make_curve([1.0, 0.01, 0.02, 1.0, 0.03, 1.0]))
        assert [(r.lo, r.hi) for r in regions] == [(2.0, 3.0), (5.0, 5.0)]
        assert regions[0].min_p == 0.01
        assert regions[1].min_p == 0.03

    def test_no_regions(self):
        assert significant_regions(make_curve([1.0, 0.05, 0.9])) == []

    def test_run_at_either_end(self):
        regions = significant_regions(make_curve([0.01, 0.04, 1.0, 1.0, 0.02]))
        assert [(r.lo, r.hi) for r in regions] == [(1.0, 2.0), (5.0, 5.0)]

    def test_worse_group_from_most_significant_point(self):
        regions = significant_regions(
            make_curve([0.04, 0.01, 0.04], directions=("a", "b", "a"))
        )
        assert len(regions) == 1
        assert regions[0].worse_group == "b"

    def test_min_p_tie_takes_first_point(self):
        regions = significant_regions(
            make_curve([0.01, 0.01], directions=("b", "a"))
        )
        assert regions[0].worse_group == "b"

    def test_regions_partition_significant_indices(self):
        rng = np.random.default_rng(414)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            ps = [float(p) for p in rng.uniform(0, 0.12, n)]
            curve = make_curve(ps)
            regions = significant_regions(curve)
            mask = [False] * n
            for r in regions:
                i = curve.grid.tolist().index(r.lo)
                j = curve.grid.tolist().index(r.hi)
                assert i <= j
                for k in range(i, j + 1):
                    assert not mask[k]
                    mask[k] = True
                # maximality: neighbors outside the run are not significant
                if i > 0:
                    assert ps[i - 1] >= curve.alpha
                if j + 1 < n:
                    assert ps[j + 1] >= curve.alpha
            assert mask == [p < curve.alpha for p in ps]
