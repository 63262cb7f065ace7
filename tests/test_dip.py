import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

import biasaudit.dip as dip_module
from _dip_oracle import _dip_sorted as oracle_dip
from biasaudit import synth
from biasaudit.data import bona_fide_responses
from biasaudit.dip import (
    _binomial_tails,
    _null_quantile,
    _null_stream,
    dip_critical_value,
    dip_statistic,
)
from biasaudit.errors import InsufficientDataError, ParameterError
from biasaudit.report import _dip_tests
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


def _two_digits(x):
    """``x`` rounded to 2 significant digits: 131 levels for the first
    benchmark-shaped lognormal, 124 for its tail group."""
    return np.array([float(f"{v:.2g}") for v in x])


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
    """The package's hull-step kernel against the stack-scan reference kernel
    in _dip_oracle: equal bit for bit, not within a tolerance."""

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
    def test_binned(self, x, k):
        # the sample binned onto k + 1 equal-width levels over its range:
        # long tie runs at every level, where the hull's drop rule meets runs
        # of equal values
        x = np.asarray(x)
        lo, hi = x.min(), x.max()
        if lo != hi:
            x = np.floor((x - lo) / (hi - lo) * k)
        assert dip_statistic(x) == oracle_dip(sorted(x.tolist()))

    @PROPERTY
    @given(st.lists(st.integers(0, 9), min_size=2, max_size=30), st.randoms(use_true_random=False))
    def test_counts_with_zeros_and_split_runs(self, counts, rnd):
        # levels with no value are gaps in the sample, and shuffled, each tie
        # run arrives split into pieces all over the input
        expanded = [float(v) for v, c in enumerate(counts) for _ in range(c)]
        assume(len(expanded) >= 4)
        shuffled = list(expanded)
        rnd.shuffle(shuffled)
        assert dip_statistic(shuffled) == oracle_dip(expanded)

    @pytest.mark.parametrize(
        "x",
        [
            pytest.param(synth.gen_lognormal(-3.6, 0.45, 10_000, 1), id="lognormal-10000"),
            pytest.param(synth.gen_lognormal(-3.25, 0.45, 10_000, 2), id="shifted-10000"),
            pytest.param(synth.gen_lognormal(-3.6, 0.9, 10_000, 3), id="spread-10000"),
            pytest.param(
                synth.gen_mixture(((0.5, -4.3, 0.25), (0.5, -2.9, 0.25)), 10_000, 4),
                id="mixture-10000",
            ),
            pytest.param(
                synth.inject_outliers(synth.gen_lognormal(-3.6, 0.45, 2_500, 5), 0.05, 4.0, 6),
                id="tail-2500",
            ),
            pytest.param(np.random.default_rng(7).random(10_000), id="uniform-10000"),
            pytest.param(
                np.floor(np.random.default_rng(8).random(10_000) * 20), id="uniform-20-levels"
            ),
            pytest.param(
                _two_digits(synth.gen_lognormal(-3.6, 0.45, 10_000, 1)), id="lognormal-2-digits"
            ),
            pytest.param(
                _two_digits(
                    synth.inject_outliers(synth.gen_lognormal(-3.6, 0.45, 2_500, 5), 0.05, 4.0, 6)
                ),
                id="tail-2-digits",
            ),
            # a convex and a concave empirical CDF: the first pass's LCM, and
            # then its GCM, is one segment from the first point to the last
            pytest.param(np.sqrt(np.random.default_rng(8).random(2_000)), id="sqrt-2000"),
            pytest.param(np.random.default_rng(2).random(2_000) ** 2, id="square-2000"),
        ],
    )
    def test_benchmark_shaped_groups(self, x):
        # samples the size and shape of the benchmark's groups, where the
        # modal interval shrinks over many passes of thousands of points;
        # rounded, they hold runs of tied values hundreds of points long
        assert dip_statistic(x) == oracle_dip(sorted(x.tolist()))


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
        assert dip_statistic(list(-x)) == pytest.approx(base, rel=1e-12)

    def test_multinomial_grid_rows_match_oracle(self):
        # 200 seeded rows of counts on a 20-level grid, each level one tie
        # run and the first and last levels never empty
        levels, lo, hi = 20, 0.1, 0.7
        grid = lo + (np.arange(levels) + 0.5) * (hi - lo) / levels
        rng = np.random.default_rng(61)
        for _ in range(200):
            row = rng.multinomial(int(rng.integers(2, 300)), np.full(levels, 1 / levels))
            row[0] += 1
            row[-1] += 1
            x = np.repeat(grid, row)
            assert dip_statistic(x) == oracle_dip(x.tolist())

    def test_parameter_validation(self):
        with pytest.raises(InsufficientDataError):
            dip_statistic([1.0, 2.0, 3.0])


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
        # the null keeps its per-replica uniform streams
        for i, got in enumerate(_null_stream(60, 50, 11)):
            sample = np.sort(np.random.default_rng([11, i]).random(60))
            assert got == oracle_dip(sample.tolist())

    @pytest.mark.parametrize("n, replicas", [(4, 200), (5, 200), (200, 300)])
    def test_null_matches_oracle_at_the_audit_sizes(self, n, replicas):
        # n = 200 is the README demo's and quickstart's group size, where
        # both hulls take numpy steps before their stack scans; n = 4 and 5
        # are the smallest sizes the kernel computes rather than answering
        # with the lower bound 1/(2n)
        for i, got in enumerate(_null_stream(n, replicas, 23)):
            sample = np.sort(np.random.default_rng([23, i]).random(n))
            assert got == oracle_dip(sample.tolist())

    def test_chunked_draws_are_prefix_stable(self):
        # replica i does not depend on how many replicas were asked for
        full = list(_null_stream(120, 300, 5))
        assert list(_null_stream(120, 70, 5)) == full[:70]
        assert list(_null_stream(120, 1, 5)) == full[:1]

    def test_standard_error_order_statistics(self):
        # q = 0.95, R = 100: cv at rank 95; SE from ranks
        # floor(95 - 2.18) = 92 and ceil(95 + 2.18) = 98
        cv = _null_quantile(np.arange(1, 101) / 100, 0.05)
        assert cv == 0.95
        assert cv.se == pytest.approx((0.98 - 0.92) / 2, abs=1e-15)
        one = _null_quantile(np.array([0.3]), 0.05)
        assert (one, one.se) == (0.3, 0.0)

    def test_standard_error_shrinks_with_replicas(self):
        few = dip_critical_value(100, 0.05, 400, seed=4)
        many = dip_critical_value(100, 0.05, 6400, seed=4)
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

    def test_null_over_one_gib_refused_before_it_runs(self, monkeypatch):
        # a stub stands in for the null, so nothing here allocates: values the
        # guard lets through reach the stub, values it refuses never do
        reached = []

        def stub(n, alpha, cap, seed, observed):
            reached.append((n, cap))
            return np.zeros(1)

        monkeypatch.setattr(dip_module, "_sequential_null", stub)
        limit = 1 << 30
        # 8 bytes per replica dip and 16 for the binomial tails, 32 KiB for
        # one look, and 160 bytes per sample point for the kernel
        replicas = (limit - 32768 - 160 * 50) // 24
        dip_critical_value(50, 0.05, replicas, seed=0)
        with pytest.raises(ParameterError, match="the limit is 1 GiB"):
            dip_critical_value(50, 0.05, replicas + 1, seed=0)
        n = (limit - 24 * 2048 - 32768) // 160
        dip_critical_value(n, 0.05, 2048, seed=0)
        with pytest.raises(ParameterError, match="the limit is 1 GiB"):
            dip_critical_value(n + 1, 0.05, 2048, seed=0)
        for huge_n, huge_replicas in ((200, 10**12), (10**12, 1)):
            with pytest.raises(ParameterError, match="the limit is 1 GiB"):
                dip_critical_value(huge_n, 0.05, huge_replicas, seed=0)
        assert reached == [(50, replicas), (n, 2048)]

    def test_huge_sample_refused_before_it_runs(self):
        # no stub: a null of 10**12 points fails cleanly, not with MemoryError
        with pytest.raises(ParameterError, match="replicas of n=1000000000000 needs"):
            dip_critical_value(10**12, 0.05, 1, 0)

    @pytest.mark.parametrize(
        "n, replicas, observed",
        [
            pytest.param(200_000, 1, (), id="1-200000"),
            pytest.param(20_000, 64, (), id="64-20000"),
            pytest.param(50, 20_000, (0.5,), id="20000-unsettled"),
        ],
    )
    def test_counted_bytes_bound_the_traced_peak(self, n, replicas, observed, monkeypatch):
        # the kernel's arrays dominate at one replica of 200,000 points and
        # at 64 of 20,000. The 20,000-replica case keeps one observed dip unsettled to the
        # last look (a stub stream puts exceedances at alpha * r), so every
        # look builds its binomial tails; its real replicas would take
        # seconds. With its limit just under the traced peak, the guard must
        # refuse the same null: its count is at least what the null holds.
        # Nothing warms numpy's caches first, so what its first calls
        # allocate counts.
        if observed:
            stream = lambda n, replicas, seed: itertools.cycle([1.0] + [0.0] * 19)
            monkeypatch.setattr(dip_module, "_null_stream", stream)
        tracemalloc.start()
        try:
            cv = dip_critical_value(n, 0.05, replicas, 0, observed=observed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cv.replicas == replicas
        monkeypatch.setattr(dip_module, "_MAX_NULL_BYTES", peak - 1)
        with pytest.raises(ParameterError, match="the limit is 1 GiB"):
            dip_critical_value(n, 0.05, replicas, 0, observed=observed)

    def test_unbinned_null_holds_one_float_per_replica(self, monkeypatch):
        # the guard counts 8 bytes per replica: the drawn dips are
        # sorted where they lie, not copied. A constant stream stands in for
        # the kernel, whose 20,000 real replicas take seconds under tracemalloc
        stream = lambda n, replicas, seed: itertools.repeat(0.5)
        monkeypatch.setattr(dip_module, "_null_stream", stream)
        replicas = 20_000
        dip_critical_value(50, 0.05, replicas, 0)  # first-call allocations
        tracemalloc.start()
        try:
            cv = dip_critical_value(50, 0.05, replicas, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cv.replicas == replicas
        # beyond the dips: one look's draws and a few small objects
        assert peak <= 8 * replicas + 8192


# the audit's default null at the README demo's group size
NULL_N, NULL_SEED, NULL_CAP = 200, 12345, 10000


@pytest.fixture(scope="module")
def full_null():
    return np.fromiter(_null_stream(NULL_N, NULL_CAP, NULL_SEED), float)


@pytest.fixture
def cached_stream(monkeypatch, full_null):
    """_null_stream served from the one full null for its size and seed:
    streams are prefix stable, so every call sees the replicas it would
    draw, without drawing them again."""
    real = dip_module._null_stream

    def stream(n, replicas, seed):
        if (n, seed) == (NULL_N, NULL_SEED):
            return iter(full_null[:replicas].tolist())
        return real(n, replicas, seed)

    monkeypatch.setattr(dip_module, "_null_stream", stream)


def _demo_dips(seed):
    ds = demo_dataset(NULL_N, seed=seed)
    return [dip_statistic(bona_fide_responses(ds, g)) for g in ds.groups()]


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
        full_cv = _null_quantile(np.sort(full_null), 0.05)
        for seed in DEMO_SEEDS:
            dips = _demo_dips(seed)
            cv = dip_critical_value(NULL_N, 0.05, NULL_CAP, NULL_SEED, observed=dips)
            assert cv.replicas % 64 == 0 or cv.replicas == NULL_CAP
            assert [d < cv for d in dips] == [d < full_cv for d in dips], seed

    def test_stopped_value_is_the_fixed_value_at_its_replicas(self):
        # real streams, no cache: the README demo stops after a few looks
        dips = _demo_dips(7)
        cv = dip_critical_value(NULL_N, 0.05, NULL_CAP, NULL_SEED, observed=dips)
        assert 64 <= cv.replicas < NULL_CAP and cv.replicas % 64 == 0
        fixed = dip_critical_value(NULL_N, 0.05, cv.replicas, NULL_SEED)
        assert (float(cv), cv.se, cv.replicas) == (float(fixed), fixed.se, fixed.replicas)
        # one clearly bimodal and one clearly unimodal sample
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
            cv = dip_critical_value(NULL_N, 0.05, cap, NULL_SEED, observed=dips)
            fixed = dip_critical_value(NULL_N, 0.05, cap, NULL_SEED)
            assert (float(cv), cv.se, cv.replicas) == (float(fixed), fixed.se, cap)

    def test_unsettled_dip_runs_to_the_cap(self):
        # a dip at the null's own 95% point stays near p = alpha at every look
        cv = dip_critical_value(60, 0.05, 300, 3, observed=[0.0])
        assert cv.replicas < 300  # p = 1 settles at once
        edge = float(dip_critical_value(60, 0.05, 300, 3))
        cv = dip_critical_value(60, 0.05, 300, 3, observed=[edge, 0.0])
        assert cv.replicas == 300

    def test_rejection_rate_under_the_null(self, cached_stream):
        # uniform samples are draws from the null itself, so the
        # sequential test rejects at most alpha plus Monte Carlo error
        rng = np.random.default_rng(99)
        trials = 400
        rejected = 0
        for _ in range(trials):
            d = dip_statistic(rng.random(NULL_N))
            cv = dip_critical_value(NULL_N, 0.05, NULL_CAP, NULL_SEED, observed=[d])
            rejected += not d < cv
        se = np.sqrt(0.05 * 0.95 / trials)
        assert rejected / trials <= 0.05 + 3 * se

    def test_skewed_unimodal_groups_read_unimodal(self, cached_stream):
        # lognormal groups at twice the demo's log-scale spread, through the
        # audit's own dip tests: unimodal, so rejected at most alpha plus
        # Monte Carlo error of the time
        rng = np.random.default_rng(909)
        trials = 400
        rejected = 0
        for _ in range(trials):
            x = np.sort(rng.lognormal(-3.6, 0.9, NULL_N))
            rejected += not _dip_tests({"g": x}, 0.05, NULL_CAP, NULL_SEED)["g"].unimodal
        se = np.sqrt(0.05 * 0.95 / trials)
        assert rejected / trials <= 0.05 + 3 * se
