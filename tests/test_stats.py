import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biasaudit.dip import dip_statistic
from biasaudit.errors import (
    AuditError,
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)
from biasaudit.stats import (
    MWU_EXACT_LIMIT,
    MwuMode,
    Sidedness,
    _distinct,
    chi2_survival,
    chi_squared_one_sided,
    mann_whitney_u,
    shapiro_wilk,
    summary_stats,
)
from biasaudit.svm import auc_from_scores
from biasaudit.thresholds import (
    bias_sweep,
    hter_at,
    outcomes_at,
    roc_curve,
    threshold_for_bonafide_error,
)


def enum_mwu_p(a, b):
    """Permutation-null oracle: enumerate every label assignment of the pooled
    sample and count the two-sided tail of |2U - n_a*n_b|. Uses doubled
    midranks so everything stays integer."""
    pooled = sorted(list(a) + list(b))
    n, n_a, n_b = len(pooled), len(a), len(b)
    doubled = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1] == pooled[i]:
            j += 1
        for k in range(i, j + 1):
            doubled[k] = i + j + 2  # 2 * midrank
        i = j + 1
    # observed U by direct pair counting, doubled to stay integer
    du_obs = sum(
        2 * (x > y) + (x == y) for x in a for y in b
    )
    dev_obs = abs(2 * du_obs - 2 * n_a * n_b)
    hits = 0
    total = 0
    for pos in itertools.combinations(range(n), n_a):
        du = sum(doubled[p] for p in pos) - n_a * (n_a + 1)
        dev = abs(2 * du - 2 * n_a * n_b)
        hits += dev >= dev_obs
        total += 1
    return hits / total


OVERFLOWING = [
    [1e200, 2e200, 3e200],  # the squared deviations overflow
    [1.7e308, 1.7e308, 1e308],  # the sum itself overflows
    [-1.7e308, 0.6e308, 0.6e308, 0.5e308],  # a deviation is inf
]


class TestChiSquaredOneSided:
    def test_identical_proportions(self):
        res = chi_squared_one_sided(190, 10, 190, 10)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.direction is None
        assert res.sidedness is Sidedness.ONE_SIDED

    def test_no_errors_either_group(self):
        res = chi_squared_one_sided(200, 0, 200, 0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_proportional_tie_detected_exactly(self):
        # 3/30 vs 5/50: same rate through integer cross-product, not floats
        res = chi_squared_one_sided(27, 3, 45, 5)
        assert res.p_value == 1.0
        assert res.direction is None

    def test_strong_imbalance(self):
        res = chi_squared_one_sided(180, 20, 198, 2)
        assert res.statistic == pytest.approx(15.584415584415584, rel=1e-12)
        assert res.p_value == pytest.approx(3.9446e-05, rel=1e-3)
        assert res.direction == "a"

    def test_p_underflows_to_zero_past_a_statistic_of_1481(self):
        # erfc(sqrt(s / 2)) / 2 falls below the smallest double once the
        # statistic s passes about 1,480.35; the direction stays
        for counts, worse in (((1900, 100, 100, 1900), "b"), ((100, 1900, 1900, 100), "a")):
            res = chi_squared_one_sided(*counts)
            assert res.statistic > 1481
            assert res.p_value == 0.0
            assert res.direction == worse
        assert chi2_survival(1480.35) > 0.0

    def test_matches_pooled_two_proportion_z(self):
        # the one-sided p must equal the normal tail of the pooled
        # two-proportion z statistic (algebraically z^2 = the statistic)
        rng = np.random.default_rng(404)
        for _ in range(50):
            row_a, row_b = rng.integers(30, 400, 2)
            rej_a = int(rng.integers(1, row_a))
            rej_b = int(rng.integers(1, row_b))
            if rej_a * row_b == rej_b * row_a:
                continue
            res = chi_squared_one_sided(int(row_a) - rej_a, rej_a, int(row_b) - rej_b, rej_b)
            p_pool = (rej_a + rej_b) / (row_a + row_b)
            se = math.sqrt(p_pool * (1 - p_pool) * (1 / row_a + 1 / row_b))
            z = abs(rej_a / row_a - rej_b / row_b) / se
            p_z = math.erfc(z / math.sqrt(2)) / 2
            assert res.p_value == pytest.approx(p_z, rel=1e-9)

    def test_statistic_is_the_exact_quotient_rounded_once(self):
        # counts of a 50k-per-group sweep: numerator and denominator pass
        # 2**53, where float64 or int64 arithmetic would lose or wrap bits
        rng = np.random.default_rng(12)
        for _ in range(500):
            acc_a, acc_b = (int(v) for v in rng.integers(1, 50_000, 2))
            rej_a, rej_b = 50_000 - acc_a, 50_000 - acc_b
            det = acc_a * rej_b - acc_b * rej_a
            want = Fraction(
                100_000 * det * det,
                50_000 * 50_000 * (acc_a + acc_b) * (rej_a + rej_b),
            )
            assert chi_squared_one_sided(acc_a, rej_a, acc_b, rej_b).statistic == float(want)

    def test_empty_row_rejected(self):
        with pytest.raises(DegenerateDataError):
            chi_squared_one_sided(0, 0, 10, 5)

    def test_count_validation(self):
        with pytest.raises(ParameterError, match="accepted_a must be a non-negative int, got -1"):
            chi_squared_one_sided(-1, 5, 5, 5)
        with pytest.raises(ParameterError, match="accepted_a must be a non-negative int, got 1.5"):
            chi_squared_one_sided(1.5, 5, 5, 5)
        with pytest.raises(ParameterError, match="rejected_b must be a non-negative int, got True"):
            chi_squared_one_sided(5, 5, 5, True)
        with pytest.raises(ParameterError, match="accepted_b must be a non-negative int"):
            chi_squared_one_sided(5, 5, np.int64(5), 5)


def test_swapping_the_samples_swaps_a_and_b():
    # relabel symmetry of both two-sample tests: with the samples swapped the
    # statistic and p stay (U becomes n_a * n_b - U) and the side flips
    other = {"a": "b", "b": "a", None: None}
    rng = np.random.default_rng(11)
    chi2_sides, mwu_sides = set(), set()
    for _ in range(40):
        counts = [int(c) for c in rng.integers(0, 60, 4)]
        if counts[0] + counts[1] == 0 or counts[2] + counts[3] == 0:
            continue
        r1 = chi_squared_one_sided(*counts)
        r2 = chi_squared_one_sided(*counts[2:], *counts[:2])
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert r2.direction == other[r1.direction]
        chi2_sides.add(r1.direction)
    for trial in range(60):
        # tie-free samples of up to 20 take the exact path, integers the normal one
        n_a, n_b = (int(v) for v in rng.integers(1, 11, 2))
        draw = rng.normal if trial % 2 else lambda size: rng.integers(0, 5, size).astype(float)
        a, b = draw(size=n_a), draw(size=n_b)
        r1, r2 = mann_whitney_u(a, b), mann_whitney_u(b, a)
        assert r1.statistic + r2.statistic == n_a * n_b
        assert r1.p_value == r2.p_value
        assert r2.direction == other[r1.direction]
        mwu_sides.add(r1.direction)
    assert chi2_sides >= {"a", "b"} and mwu_sides == {"a", "b", None}


class TestChi2Survival:
    def test_zero_gives_one(self):
        assert chi2_survival(0.0) == 1.0

    def test_standard_quantiles(self):
        assert chi2_survival(3.841459) == pytest.approx(0.05, abs=1e-6)
        assert chi2_survival(6.634897) == pytest.approx(0.01, abs=1e-6)

    def test_against_quadrature(self):
        # independent oracle: P(X >= x) for a squared standard normal is
        # 2 * integral of the normal density from sqrt(x) to infinity
        from scipy.integrate import quad

        phi = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
        for x in np.linspace(0.0, 50.0, 101):
            want, err = quad(phi, math.sqrt(x), np.inf, epsabs=1e-14, epsrel=1e-13)
            assert abs(chi2_survival(float(x)) - 2 * want) < 1e-10

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 40.0, 401)
        vals = [chi2_survival(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            chi2_survival(-0.001)


class TestMannWhitney:
    def test_separated_small_sample(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6], MwuMode.EXACT)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(0.1, abs=1e-15)
        assert res.sidedness is Sidedness.TWO_SIDED

    def test_identical_multisets(self):
        a = [0.4, 0.7, 0.7, 1.2]
        res = mann_whitney_u(a, list(a))
        assert res.statistic == len(a) * len(a) / 2
        assert res.p_value == 1.0

    def test_exact_matches_enumeration_no_ties(self):
        rng = np.random.default_rng(321)
        for _ in range(40):
            n_a = int(rng.integers(2, 8))
            n_b = int(rng.integers(2, 8))
            pooled = rng.normal(size=n_a + n_b)
            a, b = list(pooled[:n_a]), list(pooled[n_a:])
            mine = mann_whitney_u(a, b, MwuMode.EXACT).p_value
            assert mine == pytest.approx(enum_mwu_p(a, b), abs=1e-12)

    def test_exact_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(876)
        for _ in range(40):
            n_a = int(rng.integers(2, 7))
            n_b = int(rng.integers(2, 7))
            pooled = rng.integers(0, 4, n_a + n_b).astype(float)
            a, b = list(pooled[:n_a]), list(pooled[n_a:])
            mine = mann_whitney_u(a, b, MwuMode.EXACT).p_value
            assert mine == pytest.approx(enum_mwu_p(a, b), abs=1e-12)

    def test_exact_matches_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = list(rng.normal(size=int(rng.integers(3, 9))))
            b = list(rng.normal(size=int(rng.integers(3, 9))))
            mine = mann_whitney_u(a, b, MwuMode.EXACT)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_approx_matches_scipy_with_ties(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a = list(rng.integers(0, 12, int(rng.integers(8, 40))).astype(float))
            b = list(rng.integers(0, 12, int(rng.integers(8, 40))).astype(float))
            if set(a) == set(b) and len(set(a)) == 1:
                continue
            mine = mann_whitney_u(a, b, MwuMode.NORMAL_APPROX)
            ref = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic", use_continuity=True
            )
            assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_auto_uses_exact_only_without_ties(self):
        # same data, one value duplicated across samples: Auto must agree
        # with the approximation, not the enumeration
        a, b = [1.0, 2.0, 3.0], [3.0, 4.0, 5.0]
        auto = mann_whitney_u(a, b, MwuMode.AUTO)
        approx = mann_whitney_u(a, b, MwuMode.NORMAL_APPROX)
        assert auto.p_value == approx.p_value
        # and with no ties it must agree with the exact path
        c, d = [1.0, 2.0, 3.0], [3.5, 4.0, 5.0]
        assert (
            mann_whitney_u(c, d, MwuMode.AUTO).p_value
            == mann_whitney_u(c, d, MwuMode.EXACT).p_value
        )

    def test_exact_beyond_cap_rejected(self):
        a = list(range(11))
        b = list(np.linspace(0.5, 9.5, 10))
        assert len(a) + len(b) == MWU_EXACT_LIMIT + 1
        with pytest.raises(ParameterError):
            mann_whitney_u(a, b, MwuMode.EXACT)

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            mann_whitney_u([], [1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            mann_whitney_u([1.0], [])

    def test_scale_invariance_exact_values(self):
        rng = np.random.default_rng(61)
        a = list(rng.lognormal(-3.5, 0.5, 30))
        b = list(rng.lognormal(-3.3, 0.5, 25))
        base = mann_whitney_u(a, b)
        for c in (0.25, 4.0, 2.5):
            scaled = mann_whitney_u([c * v for v in a], [c * v for v in b])
            assert scaled.statistic == base.statistic
            assert scaled.p_value == base.p_value

    def test_direction_names_higher_sample(self):
        res = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0])
        assert res.direction == "b"
        res = mann_whitney_u([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
        assert res.direction == "a"

    def test_p_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            a = list(rng.integers(0, 6, int(rng.integers(1, 30))).astype(float))
            b = list(rng.integers(0, 6, int(rng.integers(1, 30))).astype(float))
            res = mann_whitney_u(a, b)
            assert 0.0 <= res.p_value <= 1.0


class TestShapiroWilk:
    def test_published_reference_vector(self):
        # n=25 worked example distributed with the original test; the
        # reference W and p are the published values
        x = [0.139, 0.157, 0.175, 0.256, 0.344, 0.413, 0.503, 0.577, 0.614,
             0.655, 0.954, 1.392, 1.557, 1.648, 1.690, 1.994, 2.174, 2.206,
             3.245, 3.510, 3.571, 4.354, 4.980, 6.084, 8.351]
        res = shapiro_wilk(x)
        assert res.statistic == pytest.approx(0.83467, abs=1e-3)
        assert res.p_value == pytest.approx(0.000914, abs=1e-3)

    def test_second_reference_vector(self):
        x = [0.11, 7.87, 4.61, 10.14, 7.95, 3.14, 0.46, 4.43, 0.21, 4.75,
             0.71, 1.52, 3.24, 0.93, 0.42, 4.97, 9.53, 4.55, 0.47, 6.66]
        res = shapiro_wilk(x)
        assert res.statistic == pytest.approx(0.90047299861907959, abs=1e-5)
        assert res.p_value == pytest.approx(0.042089745402336121, abs=1e-5)

    def test_matches_scipy_across_sizes(self):
        rng = np.random.default_rng(2718)
        samples = []
        for n in (4, 7, 11, 12, 25, 60, 300, 1000):
            samples.append(list(rng.normal(size=n)))
            samples.append(list(rng.uniform(size=n)))
            samples.append(list(rng.lognormal(0.0, 0.7, n)))
        for x in samples:
            mine = shapiro_wilk(x)
            ref_w, ref_p = scipy.stats.shapiro(x)
            assert mine.statistic == pytest.approx(ref_w, abs=1e-7)
            assert mine.p_value == pytest.approx(ref_p, rel=1e-4, abs=1e-9)

    def test_three_point_sample(self):
        mine = shapiro_wilk([1.0, 2.0, 4.0])
        ref_w, ref_p = scipy.stats.shapiro([1.0, 2.0, 4.0])
        assert mine.statistic == pytest.approx(ref_w, abs=1e-9)
        assert mine.p_value == pytest.approx(ref_p, abs=1e-9)

    def test_lognormal_rejected(self):
        rng = np.random.default_rng(515)
        x = list(rng.lognormal(-3.6, 0.5, 500))
        assert shapiro_wilk(x).p_value < 0.01

    def test_normal_sample_not_rejected(self):
        rng = np.random.default_rng(99)
        x = list(rng.normal(10.0, 2.0, 500))
        assert shapiro_wilk(x).p_value > 0.05

    def test_w_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(3, 200))
            x = list(rng.lognormal(0, 1, n))
            res = shapiro_wilk(x)
            assert 0.0 < res.statistic <= 1.0
            assert 0.0 <= res.p_value <= 1.0

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateDataError):
            shapiro_wilk([5.0, 5.0, 5.0, 5.0])

    @pytest.mark.parametrize("values", OVERFLOWING)
    def test_overflow_rejected(self, values):
        with pytest.raises(ParameterError, match="overflows float64"):
            shapiro_wilk(values)

    def test_size_limits(self):
        with pytest.raises(InsufficientDataError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ParameterError):
            shapiro_wilk(list(np.linspace(0, 1, 5001)))


class TestSummaryStats:
    def test_constant(self):
        s = summary_stats([1.0, 1.0, 1.0, 1.0])
        assert s.mean == 1.0
        assert s.std_dev == 0.0

    def test_two_points(self):
        s = summary_stats([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std_dev == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_lognormal_mean_near_analytic(self):
        mu, sigma, n = -3.6, 0.45, 200
        rng = np.random.default_rng(1611)
        x = list(np.exp(mu + sigma * rng.standard_normal(n)))
        s = summary_stats(x)
        analytic = math.exp(mu + sigma**2 / 2)
        sd = analytic * math.sqrt(math.exp(sigma**2) - 1)
        assert abs(s.mean - analytic) < 3 * sd / math.sqrt(n)

    def test_matches_numpy(self):
        rng = np.random.default_rng(8)
        x = list(rng.lognormal(-3, 0.8, 157))
        s = summary_stats(x)
        assert s.n == 157
        assert s.mean == pytest.approx(float(np.mean(x)), rel=1e-12)
        assert s.std_dev == pytest.approx(float(np.std(x, ddof=1)), rel=1e-12)

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            summary_stats([1.0])

    @pytest.mark.parametrize("values", OVERFLOWING)
    def test_overflow_rejected(self, values):
        with pytest.raises(ParameterError, match="overflows float64"):
            summary_stats(values)


# Every statistic of a sample, given the sample x and a second valid one y:
# (x's minimum size, the call). A two-sample statistic is listed once with x
# on each side.
SAMPLE_CALLERS = {
    "summary_stats": (2, lambda x, y: summary_stats(x)),
    "shapiro_wilk": (3, lambda x, y: shapiro_wilk(x)),
    "mann_whitney_u-a": (1, lambda x, y: mann_whitney_u(x, y)),
    "mann_whitney_u-b": (1, lambda x, y: mann_whitney_u(y, x)),
    "dip_statistic": (4, lambda x, y: dip_statistic(x)),
    "outcomes_at": (1, lambda x, y: outcomes_at(x, sorted(y)[len(y) // 2])),
    "roc_curve-bona": (1, lambda x, y: roc_curve(x, y)),
    "roc_curve-attack": (1, lambda x, y: roc_curve(y, x)),
    "hter_at-bona": (1, lambda x, y: hter_at(x, y, sorted(y)[len(y) // 2])),
    "hter_at-attack": (1, lambda x, y: hter_at(y, x, sorted(y)[len(y) // 2])),
    "threshold_for_bonafide_error": (1, lambda x, y: threshold_for_bonafide_error(x, 0.25)),
    "bias_sweep-a": (1, lambda x, y: bias_sweep(x, y)),
    "bias_sweep-b": (1, lambda x, y: bias_sweep(y, x)),
    "auc_from_scores-pos": (1, lambda x, y: auc_from_scores(x, y)),
    "auc_from_scores-neg": (1, lambda x, y: auc_from_scores(y, x)),
}
_VALID = [0.3, 1.1, 2.5, 0.7, 4.2]
# finite, with ties, and -0.0 read as 0.0: of two equal zeros bias_sweep's
# grid keeps the first given, so their order is not free
SAMPLES = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False)),
    min_size=4,
    max_size=25,
).map(lambda xs: [v + 0.0 for v in xs])


def _outcome(call, x, y) -> str:
    """repr of what ``call`` returns, arrays as lists so that each float
    shows every bit, or the type and message of the AuditError it raises."""

    def text(v):
        if dataclasses.is_dataclass(v):
            return repr([(f.name, text(getattr(v, f.name))) for f in dataclasses.fields(v)])
        return repr(v.tolist() if isinstance(v, np.ndarray) else v)

    try:
        return text(call(x, y))
    except AuditError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSampleContract:
    """One contract for every sample a statistic reads: a 1-D sequence of
    finite numbers, in any order, of at least the statistic's minimum size."""

    @pytest.mark.parametrize("name", SAMPLE_CALLERS)
    @pytest.mark.parametrize("case", ["nan", "inf", "2-d", "ragged", "one-short"])
    def test_bad_sample_refused(self, name, case):
        at_least, call = SAMPLE_CALLERS[name]
        x, error = {
            "nan": (_VALID[:-1] + [math.nan], ParameterError),
            "inf": (_VALID[:-1] + [math.inf], ParameterError),
            "2-d": (np.reshape(_VALID[:4], (2, 2)), ParameterError),
            "ragged": ([_VALID[:2], *_VALID[2:]], ParameterError),
            "one-short": (_VALID[: at_least - 1], InsufficientDataError),
        }[case]
        with pytest.raises(error, match=name.split("-")[0]):
            call(x, [0.5, 1.5, 2.5])

    @pytest.mark.parametrize("name", SAMPLE_CALLERS)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(SAMPLES, SAMPLES, st.randoms(use_true_random=False))
    def test_order_free(self, name, x, y, rnd):
        call = SAMPLE_CALLERS[name][1]
        want = _outcome(call, x, y)
        rnd.shuffle(x)
        rnd.shuffle(y)
        assert _outcome(call, x, y) == want


def _first_given(values: list) -> list:
    """The sorted distinct values, each equal set represented by the one
    given first: dict keys keep the first of 0.0 and -0.0."""
    return sorted(dict.fromkeys(values))


class TestDistinct:
    """``_distinct`` against ``np.unique``: the same values, and of 0.0 and
    -0.0 the one given first, which ``np.unique`` of floats leaves to an
    unstable sort."""

    ZEROS_AND_TIES = st.lists(
        st.sampled_from([0.0, -0.0]) | st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6),
        max_size=80,
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ZEROS_AND_TIES, st.booleans())
    @example([0.0, -0.0], False)
    @example([-0.0, 0.0], False)
    # two sorted runs, as a sweep or ROC grid pools two sorted samples; at
    # this size np.unique's sort keeps the second run's 0.0
    @example([v for v in range(-20, 20) if v] + [-0.0] + [v for v in range(-20, 20) if v] + [0.0], True)
    def test_floats_match_np_unique_and_keep_the_first_given_zero(self, xs, runs):
        x = np.array(xs, dtype=float)
        if runs:
            half = len(x) // 2
            x = np.concatenate([np.sort(x[:half], kind="stable"), np.sort(x[half:], kind="stable")])
        got, want = _distinct(x), np.unique(x)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert np.signbit(got).tolist() == np.signbit(_first_given(x.tolist())).tolist()
        negative_zeros = np.signbit(x[x == 0.0])
        if negative_zeros.all() or not negative_zeros.any():
            # one sign of zero, or none: every bit is np.unique's
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-5, 5)))
    def test_integers_equal_np_unique(self, x):
        # plots._m4 pools vertex indices
        got, want = _distinct(x), np.unique(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
