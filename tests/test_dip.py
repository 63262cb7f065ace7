import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

import biasaudit.dip as dip_module
from _dip_oracle import _dip_sorted as oracle_dip
from biasaudit.dip import (
    _bin_to_right_edges,
    _dip_null,
    _dip_sorted,
    _null_quantile,
    dip_critical_value,
    dip_statistic,
)
from biasaudit.errors import InsufficientDataError, ParameterError

SIZES = st.integers(4, 400)
CONTINUOUS = SIZES.flatmap(
    lambda n: st.lists(
        st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
    )
)
# few distinct values, so nearly every point sits in a long tie run
TIED = st.tuples(SIZES, st.integers(1, 6)).flatmap(
    lambda nk: hnp.arrays(np.int64, nk[0], elements=st.integers(0, nk[1]))
)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _seed_binned_null(n, replicas, seed, bins):
    """The null as simulated before the multinomial draws: n uniforms per
    replica from stream (seed, i), binned between their own min and max."""
    dips = np.empty(replicas)
    for i in range(replicas):
        sample = np.sort(np.random.default_rng([seed, i]).random(n))
        dips[i] = oracle_dip(_bin_to_right_edges(sample, bins).tolist())
    return dips


class TestDipExactValues:
    def test_two_equal_atoms_hits_upper_bound(self):
        # perfectly bimodal: half the mass at 0, half at 1 -> dip = 1/4
        x = [0.0] * 100 + [1.0] * 100
        assert dip_statistic(x) == pytest.approx(0.25, abs=1e-12)

    def test_constant_sample_hits_lower_bound(self):
        for n in (4, 9, 50):
            assert dip_statistic([3.7] * n) == pytest.approx(1 / (2 * n), abs=1e-15)

    def test_equal_mass_atoms_give_half_reciprocal_count(self):
        # k equally heavy atoms -> dip = 1/(2k): the worst unimodal fit must
        # absorb half of one atom's jump, independent of the per-atom mass
        for k in (2, 3, 4, 5):
            for mass in (7, 25):
                x = [float(j) for j in range(k) for _ in range(mass)]
                assert dip_statistic(x) == pytest.approx(1 / (2 * k), abs=1e-12)

    def test_unequal_two_atom_masses(self):
        # masses (m, n - m) at two points -> dip = min(m, n - m) / (2n)
        for m_low, m_high in ((150, 50), (10, 190), (77, 123)):
            n = m_low + m_high
            x = [0.0] * m_low + [1.0] * m_high
            want = min(m_low, m_high) / (2 * n)
            assert dip_statistic(x) == pytest.approx(want, abs=1e-12)

    def test_evenly_spaced_grid_is_minimal(self):
        # a uniform grid is as unimodal as a sample can be: dip = 1/(2n)
        x = list(np.arange(200, dtype=float))
        assert dip_statistic(x) == pytest.approx(1 / 400, abs=1e-12)
        assert dip_statistic(x) < 0.037


class TestRunKernelMatchesOracle:
    """The tie-run kernel against the one-point-per-sample kernel it replaced:
    equal bit for bit, not within a tolerance."""

    @PROPERTY
    @given(CONTINUOUS)
    def test_continuous(self, x):
        assert dip_statistic(x) == oracle_dip(sorted(x))

    @PROPERTY
    @given(TIED)
    def test_heavily_tied(self, x):
        x = x.astype(float)
        assert dip_statistic(x) == oracle_dip(sorted(x.tolist()))

    @PROPERTY
    @given(CONTINUOUS, st.integers(2, 59))
    def test_binned(self, x, bins):
        values = np.sort(np.asarray(x))
        if values[0] != values[-1]:
            values = _bin_to_right_edges(values, bins)
        assert dip_statistic(x, bins=bins) == oracle_dip(values.tolist())

    @PROPERTY
    @given(st.lists(st.integers(0, 9), min_size=2, max_size=30))
    def test_counts_with_zeros_and_split_runs(self, counts):
        # zero counts are skipped and a run may arrive split in two entries
        values = [float(v) for v in range(len(counts))]
        expanded = [v for v, c in zip(values, counts) for _ in range(c)]
        assume(len(expanded) >= 2)
        split_values = [v for v in values for _ in range(2)]
        split_counts = [half for c in counts for half in (c // 2, c - c // 2)]
        want = oracle_dip(expanded)
        assert _dip_sorted(values, counts) == want
        assert _dip_sorted(split_values, split_counts) == want


class TestDipProperties:
    def test_bounds_hold_for_random_samples(self):
        rng = np.random.default_rng(246)
        for _ in range(300):
            n = int(rng.integers(4, 60))
            kind = int(rng.integers(3))
            if kind == 0:
                x = rng.normal(size=n)
            elif kind == 1:
                x = rng.integers(0, 5, n).astype(float)
            else:
                x = rng.lognormal(-3.5, 0.6, n)
            d = dip_statistic(list(x))
            assert 1 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12

    def test_order_independence(self):
        rng = np.random.default_rng(17)
        x = list(rng.lognormal(0, 1, 80))
        shuffled = list(x)
        rng.shuffle(shuffled)
        assert dip_statistic(shuffled) == dip_statistic(x)

    def test_scale_invariance_binary_exact(self):
        rng = np.random.default_rng(55)
        x = rng.lognormal(-3.5, 0.7, 120)
        base = dip_statistic(list(x))
        # powers of two rescale every float exactly, so the dip is bitwise equal
        assert dip_statistic(list(4.0 * x)) == base
        assert dip_statistic(list(0.25 * x)) == base

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(56)
        x = rng.lognormal(-3.5, 0.7, 120)
        base = dip_statistic(list(x))
        assert dip_statistic(list(2.5 * x)) == pytest.approx(base, rel=1e-9)
        assert dip_statistic(list(x + 1000.0)) == pytest.approx(base, rel=1e-6)

    def test_binned_two_atoms_keep_upper_bound(self):
        x = [0.0] * 100 + [1.0] * 100
        assert dip_statistic(x, bins=5) == pytest.approx(0.25, abs=1e-12)

    def test_binning_can_change_the_value(self):
        # a spread-out bimodal sample: coarse binning concentrates each mode
        rng = np.random.default_rng(88)
        x = list(np.concatenate([rng.normal(0, 1, 150), rng.normal(8, 1, 150)]))
        assert dip_statistic(x, bins=4) != dip_statistic(x)

    def test_binned_statistic_uses_the_null_grid(self):
        # a sample whose bin counts equal a binned-null row has exactly the
        # dip the null computes for that row
        bins, lo, hi = 20, 0.1, 0.7
        width = (hi - lo) / bins
        grid = [float(k) for k in range(1, bins + 1)]
        rng = np.random.default_rng(61)
        for _ in range(200):
            row = rng.multinomial(int(rng.integers(2, 300)), np.full(bins, 1 / bins))
            row[0] += 1  # the sample minimum, at lo
            row[-1] += 1  # the sample maximum, at hi
            x = [lo, hi] + [
                lo + (k + 0.5) * width
                for k, c in enumerate(row.tolist())
                for _ in range(c - (k == 0) - (k == bins - 1))
            ]
            assert dip_statistic(x, bins=bins) == _dip_sorted(grid, row.tolist())

    def test_parameter_validation(self):
        with pytest.raises(InsufficientDataError):
            dip_statistic([1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            dip_statistic([1.0, 2.0, 3.0, 4.0], bins=1)


class TestDipCriticalValue:
    def test_deterministic_for_seed(self):
        a = dip_critical_value(50, 0.05, 300, seed=42)
        b = dip_critical_value(50, 0.05, 300, seed=42)
        assert a == b
        assert a != dip_critical_value(50, 0.05, 300, seed=43)

    def test_shrinks_with_sample_size(self):
        big = dip_critical_value(200, 0.05, 500, seed=1)
        small = dip_critical_value(50, 0.05, 500, seed=1)
        assert small > big

    def test_reference_magnitude(self):
        # lighter version of the calibration run: the n=200 null quantile
        # lands near 0.037
        cv = dip_critical_value(200, 0.05, 2000, seed=7)
        assert 0.033 <= cv <= 0.041

    def test_grows_as_alpha_shrinks(self):
        loose = dip_critical_value(80, 0.10, 400, seed=3)
        tight = dip_critical_value(80, 0.01, 400, seed=3)
        assert tight >= loose

    def test_bimodal_sample_flagged(self):
        rng = np.random.default_rng(2024)
        x = list(np.concatenate([rng.normal(0, 0.3, 100), rng.normal(4, 0.3, 100)]))
        d = dip_statistic(x)
        cv = dip_critical_value(200, 0.05, 500, seed=9)
        assert d > cv

    def test_unbinned_null_matches_oracle(self):
        # the unbinned null keeps its per-replica uniform streams
        for i, got in enumerate(_dip_null(60, 50, 11, None)):
            sample = np.sort(np.random.default_rng([11, i]).random(60))
            assert got == oracle_dip(sample.tolist())

    def test_chunked_draws_are_prefix_stable(self):
        # replica i does not depend on how many replicas were asked for,
        # inside the first chunk and across the chunk boundary
        full = _dip_null(120, 1500, 5, 20)
        assert np.array_equal(_dip_null(120, 300, 5, 20), full[:300])
        assert np.array_equal(_dip_null(120, 1100, 5, 20), full[:1100])

    @pytest.mark.parametrize("n, bins", [(200, 50), (30, 10)])
    def test_binned_null_matches_uniform_then_bin(self, n, bins):
        # multinomial bin counts against binning n uniforms: same distribution
        new = _dip_null(n, 2000, 21, bins)
        old = _seed_binned_null(n, 2000, 22, bins)
        assert sps.ks_2samp(new, old).pvalue > 0.01

    def test_binned_reference_value(self):
        # 0.042045... is the value of uniform-then-bin draws from the same seed
        cv = dip_critical_value(200, 0.05, 10000, seed=12345, bins=50)
        assert cv == pytest.approx(0.042045, abs=0.002)

    def test_standard_error_order_statistics(self):
        # q = 0.95, R = 100: cv at rank 95; SE from ranks
        # floor(95 - 2.18) = 92 and ceil(95 + 2.18) = 98
        cv = _null_quantile(np.arange(100, 0, -1) / 100, 0.05)
        assert cv == 0.95
        assert cv.se == pytest.approx((0.98 - 0.92) / 2, abs=1e-15)
        one = _null_quantile(np.array([0.3]), 0.05)
        assert (one, one.se) == (0.3, 0.0)

    def test_standard_error_shrinks_with_replicas(self):
        few = dip_critical_value(100, 0.05, 400, seed=4, bins=20)
        many = dip_critical_value(100, 0.05, 6400, seed=4, bins=20)
        assert 0 < many.se < few.se

    def test_parameter_validation(self):
        with pytest.raises(InsufficientDataError):
            dip_critical_value(3, 0.05, 100, seed=0)
        with pytest.raises(ParameterError):
            dip_critical_value(50, 0.0, 100, seed=0)
        with pytest.raises(ParameterError):
            dip_critical_value(50, 1.0, 100, seed=0)
        with pytest.raises(ParameterError):
            dip_critical_value(50, 0.05, 0, seed=0)
        with pytest.raises(ParameterError):
            dip_critical_value(50, 0.05, 100, seed=-1)
        with pytest.raises(ParameterError):
            dip_critical_value(50, 0.05, 100, seed=0, bins=1)

    def test_null_over_one_gib_refused_before_it_runs(self, monkeypatch):
        # a stub stands in for the null, so nothing here allocates: values the
        # guard lets through reach the stub, values it refuses never do
        reached = []

        def stub(n, replicas, seed, bins):
            reached.append((replicas, bins))
            return np.zeros(1)

        monkeypatch.setattr(dip_module, "_dip_null", stub)
        limit = 1 << 30
        # unbinned: 8 bytes per replica dip
        dip_critical_value(50, 0.05, limit // 8, seed=0)
        with pytest.raises(ParameterError, match="the limit is 1 GiB"):
            dip_critical_value(50, 0.05, limit // 8 + 1, seed=0)
        # binned: plus 16 bytes per entry of one 1024-replica chunk of counts
        bins = (limit - 8 * 2048) // (16 * 1024)
        dip_critical_value(50, 0.05, 2048, seed=0, bins=bins)
        with pytest.raises(ParameterError, match="the limit is 1 GiB"):
            dip_critical_value(50, 0.05, 2048, seed=0, bins=bins + 1)
        for huge_replicas, huge_bins in ((10**12, None), (10**12, 50), (1, 10**12)):
            with pytest.raises(ParameterError, match="the limit is 1 GiB"):
                dip_critical_value(200, 0.05, huge_replicas, seed=0, bins=huge_bins)
        assert reached == [(limit // 8, None), (2048, bins)]
