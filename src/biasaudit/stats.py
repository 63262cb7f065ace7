"""Group-comparison statistics: one-sided chi-squared, Mann-Whitney U,
Shapiro-Wilk normality, and per-group summary statistics.

Conventions fixed across the toolkit:

* The chi-squared rate comparison is Pearson's, one degree of freedom, no
  continuity correction. One-sided p is half the two-sided p, attributed to
  the group with the higher empirical rejection rate; equal rates give
  p = 1.0 exactly.
* Mann-Whitney uses midranks. The exact mode enumerates the permutation
  distribution (feasible up to 20 combined observations); the approximate
  mode is the tie-corrected normal with continuity correction.
* Shapiro-Wilk follows Royston's algorithm for 3 <= n <= 5000.
* Every statistic of a sample, here and in ``thresholds``, ``svm`` and
  ``dip``, reads it through ``_sample``: a 1-D sequence of finite numbers in
  any order, of at least the statistic's minimum size, handed on sorted.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)

__all__ = [
    "Sidedness",
    "TestResult",
    "MwuMode",
    "SummaryStats",
    "chi2_survival",
    "chi_squared_one_sided",
    "mann_whitney_u",
    "shapiro_wilk",
    "summary_stats",
]


def _sample(values: Sequence[float], at_least: int, what: str) -> np.ndarray:
    """``values``, a 1-D sample of at least ``at_least`` finite numbers, as
    a float64 array sorted stably: of 0.0 and -0.0 the one given first stays
    first. Else ParameterError or InsufficientDataError, naming ``what``."""
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"{what} needs a 1-D sequence of numbers") from None
    if x.ndim != 1:
        raise ParameterError(f"{what} needs a 1-D sample, got shape {x.shape}")
    if len(x) < at_least:
        raise InsufficientDataError(f"{what} needs at least {at_least} values, got {len(x)}")
    x = np.sort(x, kind="stable")
    # sorted, an infinity or a NaN (numpy sorts NaN last) is at an end
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise ParameterError(f"{what} needs finite values")
    return x


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted; of values that compare
    equal (0.0 and -0.0) the one given first is kept, where ``np.unique``
    of floats leaves it to an unstable sort. Unlike ``np.unique``, it does
    not import ``numpy.ma``. NaNs are not merged; every caller hands it
    finite values."""
    x = np.sort(values, kind="stable")
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class Sidedness(enum.Enum):
    ONE_SIDED = "one-sided"
    TWO_SIDED = "two-sided"


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test.

    ``direction`` is the side a two-sample comparison points to: "a" or "b"
    for its first or second sample (the one that rejects more for the rate
    test, the stochastically larger one for Mann-Whitney), None when the
    samples tie or the test compares no samples (Shapiro-Wilk).
    """

    statistic: float
    p_value: float
    sidedness: Sidedness
    direction: str | None = None


# the side of a two-sample comparison's sign: 1 for the first sample, -1
# for the second, 0 for a tie
_SIDE = {1: "a", -1: "b", 0: None}


def chi2_survival(x: float) -> float:
    """Survival function of the chi-squared distribution with 1 df.

    P(X >= x) = erfc(sqrt(x / 2)) for x >= 0.
    """
    if not math.isfinite(x) or x < 0:
        raise ParameterError(f"chi-squared statistic must be finite and >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def _chi2_tests(
    n: int, dets: Sequence[int], rows: int, margins: Sequence[int]
) -> tuple[list[float], list[float]]:
    """The statistics and one-sided p-values of the rate test on untied 2x2
    tables of one total ``n`` and one product of row totals ``rows``, given
    each table's ``det`` = acc_a * rej_b - acc_b * rej_a and product of
    column totals as Python ints. The statistic n * det**2 / (rows *
    margins) is formed in exact integer arithmetic and rounded once; p is
    chi2_survival(statistic) / 2, inlined, as a finite statistic >= 0 needs
    none of its checks."""
    stats = [n * d * d / (rows * m) for d, m in zip(dets, margins)]
    erfc, sqrt = math.erfc, math.sqrt
    return stats, [erfc(sqrt(s / 2.0)) / 2.0 for s in stats]


# chi_squared_one_sided's counts, in order; report.json's "table" keys
_COUNTS = ("accepted_a", "rejected_a", "accepted_b", "rejected_b")


def chi_squared_one_sided(
    accepted_a: int, rejected_a: int, accepted_b: int, rejected_b: int
) -> TestResult:
    """One-sided two-proportion chi-squared test on a 2x2 table of counts.

    Tests whether one group's rejection rate exceeds the other's. The p-value
    is the halved two-sided Pearson p (no Yates correction), attributed to the
    group with the higher rejection rate, "a" or "b"; exactly 1.0 when the
    rates tie. The counts must be non-negative Python ints.
    """
    counts = (accepted_a, rejected_a, accepted_b, rejected_b)
    for name, v in zip(_COUNTS, counts):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ParameterError(f"{name} must be a non-negative int, got {v!r}")
    row_a = accepted_a + rejected_a
    row_b = accepted_b + rejected_b
    if row_a == 0 or row_b == 0:
        raise DegenerateDataError("both groups need at least one trial")
    # rejected_a * row_b - rejected_b * row_a = -det: the rates tie exactly
    # when det is 0, and group a rejects more when det < 0
    det = accepted_a * rejected_b - accepted_b * rejected_a
    if det == 0:
        return TestResult(0.0, 1.0, Sidedness.ONE_SIDED, None)
    # Unequal rates imply every margin is positive, so the denominator is too.
    margins = (accepted_a + accepted_b) * (rejected_a + rejected_b)
    n, rows = row_a + row_b, row_a * row_b
    [stat], [p_one] = _chi2_tests(n, [det], rows, [margins])
    return TestResult(stat, p_one, Sidedness.ONE_SIDED, "b" if det > 0 else "a")


class MwuMode(enum.Enum):
    AUTO = "auto"
    EXACT = "exact"
    NORMAL_APPROX = "normal-approx"


# Exact enumeration is limited to this many combined observations.
MWU_EXACT_LIMIT = 20


def _midranks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled midranks of the pooled sample, ``a`` first then ``b``, and the
    size of each tie run.

    A midrank is the average of the 1-based sorted positions of a tie run;
    doubling keeps it an exact integer (first + last position).
    """
    pooled = np.concatenate([a, b])
    _, inverse, ties = np.unique(pooled, return_inverse=True, return_counts=True)
    last = np.cumsum(ties)
    return (2 * last - ties + 1)[inverse], ties


def _exact_mwu_p(doubled: np.ndarray, du_obs: int, n_a: int, n_b: int) -> float:
    """Two-sided exact permutation p for U, halved rank-sum distribution.

    Counts size-n_a subsets of the doubled midranks whose doubled U is at
    least as far from the null mean as ``du_obs``, in a table ``counts[k, s]``
    of the size-k subsets with doubled rank sum s.
    """
    top = int(doubled.sum())
    counts = np.zeros((n_a + 1, top + 1), dtype=np.int64)
    counts[0, 0] = 1
    for d in doubled.tolist():
        # numpy reads the overlapping right-hand side before it writes, so
        # each midrank joins a subset at most once
        counts[1:, d:] += counts[:-1, : top + 1 - d]
    center = n_a * n_b  # 2 * E[U]
    du = np.arange(top + 1) - n_a * (n_a + 1)
    extreme = int(counts[n_a, np.abs(du - center) >= abs(du_obs - center)].sum())
    return extreme / math.comb(n_a + n_b, n_a)


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], mode: MwuMode = MwuMode.AUTO
) -> TestResult:
    """Two-sided Mann-Whitney U test with midranks.

    The statistic is U for the first sample. Auto mode enumerates exactly
    when the combined size is at most MWU_EXACT_LIMIT and there are no ties,
    otherwise falls back to the tie-corrected normal approximation with
    continuity correction. Requesting Exact beyond the limit is an error.
    ``direction`` names the stochastically larger sample ("a" or "b") when
    the statistic is off-center.
    """
    a, b = (_sample(s, 1, "mann_whitney_u") for s in (a, b))
    n_a, n_b = len(a), len(b)
    n = n_a + n_b

    doubled, ties = _midranks(a, b)
    du_a = int(doubled[:n_a].sum()) - n_a * (n_a + 1)
    u_a = du_a / 2.0

    if mode is MwuMode.EXACT and n > MWU_EXACT_LIMIT:
        raise ParameterError(
            f"exact mode supports at most {MWU_EXACT_LIMIT} combined "
            f"observations, got {n}"
        )
    if mode is MwuMode.AUTO:
        mode = (
            MwuMode.EXACT
            if (n <= MWU_EXACT_LIMIT and len(ties) == n)
            else MwuMode.NORMAL_APPROX
        )

    center = n_a * n_b / 2.0
    direction = _SIDE[(u_a > center) - (u_a < center)]

    if mode is MwuMode.EXACT:
        p = _exact_mwu_p(doubled, du_a, n_a, n_b)
        return TestResult(u_a, p, Sidedness.TWO_SIDED, direction)

    # Tie-corrected normal approximation; Python ints keep t**3 exact.
    tie_term = sum(t**3 - t for t in ties[ties > 1].tolist())
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        # every observation tied: U is deterministic at its mean
        return TestResult(u_a, 1.0, Sidedness.TWO_SIDED, None)
    dev = abs(u_a - center)
    z = max(dev - 0.5, 0.0) / math.sqrt(var)  # continuity correction
    p = math.erfc(z / math.sqrt(2.0))
    return TestResult(u_a, min(p, 1.0), Sidedness.TWO_SIDED, direction)


# Polynomial coefficients from Royston's Shapiro-Wilk approximation,
# lowest order first (evaluated with math.fsum via Horner below).
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_SMALL_MU = (0.5440, -0.39978, 0.025054, -0.0006714)
_SW_SMALL_SIG = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_BIG_MU = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_BIG_SIG = (-0.4803, -0.082676, 0.0030302)


def _poly(coefs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * x + c
    return acc


def shapiro_wilk(a: Sequence[float]) -> TestResult:
    """Shapiro-Wilk normality test, Royston's approximation (3 <= n <= 5000).

    Returns W as the statistic and the upper-tail p for non-normality.
    Constant samples are degenerate and rejected.
    """
    x = _sample(a, 3, "shapiro_wilk").tolist()
    n = len(x)
    if n > 5000:
        raise ParameterError(f"Shapiro-Wilk supports n <= 5000, got {n}")
    if x[0] == x[-1]:
        raise DegenerateDataError("sample is constant")

    # Expected normal order statistics (Blom scores) for the upper half;
    # statistics is imported here, as no other command needs it
    from statistics import NormalDist

    normal = NormalDist()
    half = n // 2
    m = [normal.inv_cdf((n - i + 1 - 0.375) / (n + 0.25)) for i in range(1, half + 1)]
    mss = 2.0 * math.fsum(v * v for v in m)

    if n == 3:
        w = [math.sqrt(0.5)]
    else:
        # Royston's polynomial weights for the extreme pairs, one when
        # n <= 5 and two above; the rest scale m so all have unit norm
        rsn = 1.0 / math.sqrt(n)
        fixed = [m[0] / math.sqrt(mss) + _poly(_SW_C1, rsn)]
        if n > 5:
            fixed.append(m[1] / math.sqrt(mss) + _poly(_SW_C2, rsn))
        denom, rest = mss, 1.0
        for mi, wi in zip(m, fixed):
            denom -= 2.0 * mi**2
            rest -= 2.0 * wi**2
        fac = math.sqrt(denom / rest)
        w = fixed + [mi / fac for mi in m[len(fixed):]]

    ssq = _sum_of_squares(x)[1]
    num = math.fsum(w[i] * (x[n - 1 - i] - x[i]) for i in range(half))
    w_stat = min(num * num / ssq, 1.0)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w_stat)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return TestResult(w_stat, p, Sidedness.ONE_SIDED, None)

    if n <= 11:
        g = -2.273 + 0.459 * n
        if 1.0 - w_stat >= math.exp(g):
            # beyond the transform's domain; W this small is off-scale
            return TestResult(w_stat, 0.0, Sidedness.ONE_SIDED, None)
        lw = -math.log(g - math.log(1.0 - w_stat))
        mu = _poly(_SW_SMALL_MU, float(n))
        sigma = math.exp(_poly(_SW_SMALL_SIG, float(n)))
    else:
        lw = math.log(1.0 - w_stat)
        ln = math.log(n)
        mu = _poly(_SW_BIG_MU, ln)
        sigma = math.exp(_poly(_SW_BIG_SIG, ln))
    z = (lw - mu) / sigma
    p = math.erfc(z / math.sqrt(2.0)) / 2.0  # upper tail of z
    return TestResult(w_stat, min(max(p, 0.0), 1.0), Sidedness.ONE_SIDED, None)


@dataclass(frozen=True)
class SummaryStats:
    """Location and spread summary for one group's responses."""

    n: int
    mean: float
    std_dev: float


def _sum_of_squares(vals: list[float]) -> tuple[float, float]:
    """(mean, sum of squared deviations) of Python floats, as exact sums.
    Raises ParameterError where either overflows float64."""
    try:
        mean = math.fsum(vals) / len(vals)
        ssq = math.fsum((v - mean) ** 2 for v in vals)
    except OverflowError:
        ssq = math.inf
    if ssq == math.inf:
        raise ParameterError(f"variance of values up to {max(map(abs, vals)):g} overflows float64")
    return mean, ssq


def summary_stats(a: Sequence[float]) -> SummaryStats:
    """Mean and sample standard deviation (n - 1); exact sums, so order-free."""
    vals = _sample(a, 2, "summary_stats").tolist()
    n = len(vals)
    mean, ssq = _sum_of_squares(vals)
    return SummaryStats(n=n, mean=mean, std_dev=math.sqrt(ssq / (n - 1)))
