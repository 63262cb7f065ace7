import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

import biasaudit.dip as dip_module
from _dip_oracle import _dip_sorted as oracle_dip
from biasaudit.data import bona_fide_responses
from biasaudit.dip import (
    _binomial_tails,
    _bin_to_right_edges,
    _dip_null,
    _dip_sorted,
    _null_quantile,
    dip_critical_value,
    dip_statistic,
)
from biasaudit.errors import InsufficientDataError, ParameterError
from biasaudit.synth import demo_dataset

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


# the audit's default null at the README demo's group size
NULL_N, NULL_SEED, NULL_BINS, NULL_CAP = 200, 12345, 50, 10000


@pytest.fixture(scope="module")
def full_null():
    return _dip_null(NULL_N, NULL_CAP, NULL_SEED, NULL_BINS)


@pytest.fixture
def cached_stream(monkeypatch, full_null):
    """_null_stream served from the one full null for its size, seed and
    bins: streams are prefix stable, so every call sees the replicas it would
    draw, without drawing them again."""
    real = dip_module._null_stream

    def stream(n, replicas, seed, bins):
        if (n, seed, bins) == (NULL_N, NULL_SEED, NULL_BINS):
            return iter(full_null[:replicas].tolist())
        return real(n, replicas, seed, bins)

    monkeypatch.setattr(dip_module, "_null_stream", stream)


def _demo_dips(seed):
    ds = demo_dataset(NULL_N, seed=seed)
    return [dip_statistic(bona_fide_responses(ds, g), bins=NULL_BINS) for g in ds.groups()]


# the README demo (seed 7) and ten demo datasets at seeds far enough apart
# that no two share their normal draws
DEMO_SEEDS = [7] + [1000 * k for k in range(1, 11)]


class TestSequentialNull:
    def test_binomial_tails_match_scipy(self):
        for r in (64, 1000, 9984):
            for alpha in (0.01, 0.05, 0.5, 0.9):
                level = 1e-3 / 314
                lo, hi = _binomial_tails(r, alpha, level)
                k = np.arange(r + 1)
                below = k[sps.binom.cdf(k, r, alpha) <= level]
                above = k[sps.binom.sf(k - 1, r, alpha) <= level]
                assert lo == (below.max() if below.size else -1)
                assert hi == (above.min() if above.size else r + 1)

    def test_verdicts_equal_the_full_cap(self, cached_stream, full_null):
        full_cv = _null_quantile(full_null, 0.05)
        for seed in DEMO_SEEDS:
            dips = _demo_dips(seed)
            cv = dip_critical_value(
                NULL_N, 0.05, NULL_CAP, NULL_SEED, NULL_BINS, observed=dips
            )
            assert cv.replicas % 64 == 0 or cv.replicas == NULL_CAP
            assert [d < cv for d in dips] == [d < full_cv for d in dips], seed

    def test_stopped_value_is_the_fixed_value_at_its_replicas(self):
        # real streams, no cache: the README demo stops after a few looks
        dips = _demo_dips(7)
        cv = dip_critical_value(NULL_N, 0.05, NULL_CAP, NULL_SEED, NULL_BINS, observed=dips)
        assert 64 <= cv.replicas < NULL_CAP and cv.replicas % 64 == 0
        fixed = dip_critical_value(NULL_N, 0.05, cv.replicas, NULL_SEED, NULL_BINS)
        assert (float(cv), cv.se, cv.replicas) == (float(fixed), fixed.se, fixed.replicas)
        # unbinned, with one clearly bimodal and one clearly unimodal sample
        rng = np.random.default_rng(8)
        two = np.concatenate([rng.normal(0, 0.2, 30), rng.normal(5, 0.2, 30)])
        dips = [dip_statistic(two), dip_statistic(rng.normal(size=60))]
        cv = dip_critical_value(60, 0.05, 5000, 3, observed=dips)
        assert cv.replicas < 5000 and cv.replicas % 64 == 0
        fixed = dip_critical_value(60, 0.05, cv.replicas, 3)
        assert (float(cv), cv.se) == (float(fixed), fixed.se)
        assert [d < cv for d in dips] == [False, True]

    def test_cap_below_one_look_draws_as_the_fixed_null(self):
        dips = _demo_dips(7)
        for cap in (20, 64):
            cv = dip_critical_value(NULL_N, 0.05, cap, NULL_SEED, NULL_BINS, observed=dips)
            fixed = dip_critical_value(NULL_N, 0.05, cap, NULL_SEED, NULL_BINS)
            assert (float(cv), cv.se, cv.replicas) == (float(fixed), fixed.se, cap)

    def test_unsettled_dip_runs_to_the_cap(self):
        # a dip at the null's own 95% point stays near p = alpha at every look
        cv = dip_critical_value(60, 0.05, 300, 3, bins=20, observed=[0.0])
        assert cv.replicas < 300  # p = 1 settles at once
        edge = float(dip_critical_value(60, 0.05, 300, 3, bins=20))
        cv = dip_critical_value(60, 0.05, 300, 3, bins=20, observed=[edge, 0.0])
        assert cv.replicas == 300

    def test_rejection_rate_under_the_null(self, cached_stream):
        # binned uniform samples are draws from the null itself, so the
        # sequential test rejects at most alpha plus Monte Carlo error
        rng = np.random.default_rng(99)
        trials = 400
        rejected = 0
        for _ in range(trials):
            d = dip_statistic(rng.random(NULL_N), bins=NULL_BINS)
            cv = dip_critical_value(NULL_N, 0.05, NULL_CAP, NULL_SEED, NULL_BINS, observed=[d])
            rejected += not d < cv
        se = np.sqrt(0.05 * 0.95 / trials)
        assert rejected / trials <= 0.05 + 3 * se
