"""The threshold sweep, its significant regions and the rank statistics as
they were before they were rebuilt on sorted numpy arrays: one
ContingencyTable2x2 and two bisections per threshold, a curve of tuples
with a group name per threshold, a per-threshold region walk, and three
hand-written tie walkers. Kept verbatim as the reference that
``bias_sweep``, ``significant_regions``, ``mann_whitney_u`` and
``auc_from_scores`` must match bit for bit; not used by the package."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from biasaudit.data import GroupPair
from biasaudit.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)
from biasaudit.stats import (
    MWU_EXACT_LIMIT,
    ContingencyTable2x2,
    MwuMode,
    Sidedness,
    TestResult,
    chi2_survival,
)
from biasaudit.thresholds import BiasRegion


@dataclass(frozen=True)
class BiasCurve:
    """One-sided rate-comparison p-values along a threshold grid.

    ``directions[i]`` names the group with the higher rejection rate at
    ``grid[i]`` (None on ties); it is carried so regions can be labeled
    without recomputing the tables.
    """

    pair: GroupPair
    grid: tuple[float, ...]
    p_values: tuple[float, ...]
    alpha: float
    directions: tuple[str | None, ...]


def chi_squared_one_sided(t: ContingencyTable2x2) -> TestResult:
    """One-sided two-proportion chi-squared test on a 2x2 table.

    Tests whether one group's rejection rate exceeds the other's. The p-value
    is the halved two-sided Pearson p (no Yates correction), attributed to the
    group with the higher rejection rate; exactly 1.0 when the rates tie.
    """
    row_a = t.accepted_a + t.rejected_a
    row_b = t.accepted_b + t.rejected_b
    if row_a == 0 or row_b == 0:
        raise DegenerateDataError("both groups need at least one trial")
    # Exact integer cross-comparison of rejected_a/row_a vs rejected_b/row_b.
    lhs = t.rejected_a * row_b
    rhs = t.rejected_b * row_a
    if lhs == rhs:
        return TestResult(0.0, 1.0, Sidedness.ONE_SIDED, None)
    n = row_a + row_b
    col_acc = t.accepted_a + t.accepted_b
    col_rej = t.rejected_a + t.rejected_b
    det = t.accepted_a * t.rejected_b - t.accepted_b * t.rejected_a
    # Unequal rates imply every margin is positive, so the denominator is too.
    stat = n * det * det / (row_a * row_b * col_acc * col_rej)
    p_one = chi2_survival(stat) / 2.0
    worse = t.group_a if lhs > rhs else t.group_b
    return TestResult(float(stat), p_one, Sidedness.ONE_SIDED, worse)


def _doubled_midranks(pooled_sorted: list[tuple[float, int]]) -> list[int]:
    """Doubled midranks (exact integers) for a sorted pooled sample.

    Midranks are averages of 1-based positions over each tie group; doubling
    keeps them integral so the exact mode can count in integer arithmetic.
    """
    n = len(pooled_sorted)
    out = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled_sorted[j + 1][0] == pooled_sorted[i][0]:
            j += 1
        d = i + j + 2  # 2 * midrank, with 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            out[k] = d
        i = j + 1
    return out


def _exact_mwu_p(doubled: list[int], in_a: list[bool], n_a: int, n_b: int) -> float:
    """Two-sided exact permutation p for U, halved rank-sum distribution.

    Counts size-n_a subsets of the doubled midranks whose U is at least as
    far from the null mean as observed, via integer subset-sum DP.
    """
    du_obs = sum(d for d, flag in zip(doubled, in_a) if flag) - n_a * (n_a + 1)
    center = n_a * n_b  # 2 * E[U]
    dev_obs = abs(du_obs - center)

    # counts[k] maps doubled rank-sum -> number of size-k subsets achieving it
    counts: list[dict[int, int]] = [dict() for _ in range(n_a + 1)]
    counts[0][0] = 1
    for d in doubled:
        for k in range(min(n_a, len(doubled)), 0, -1):
            prev = counts[k - 1]
            if not prev:
                continue
            cur = counts[k]
            for s, c in prev.items():
                cur[s + d] = cur.get(s + d, 0) + c
    total = math.comb(n_a + n_b, n_a)
    extreme = 0
    base = n_a * (n_a + 1)
    for s, c in counts[n_a].items():
        if abs((s - base) - center) >= dev_obs:
            extreme += c
    return extreme / total


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
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise InsufficientDataError("both samples must be non-empty")
    n = n_a + n_b

    pooled = sorted([(float(v), 0) for v in a] + [(float(v), 1) for v in b])
    doubled = _doubled_midranks(pooled)
    has_ties = any(
        pooled[i][0] == pooled[i + 1][0] for i in range(n - 1)
    )
    du_a = sum(d for d, (_, src) in zip(doubled, pooled) if src == 0) - n_a * (
        n_a + 1
    )
    u_a = du_a / 2.0

    if mode is MwuMode.EXACT and n > MWU_EXACT_LIMIT:
        raise ParameterError(
            f"exact mode supports at most {MWU_EXACT_LIMIT} combined "
            f"observations, got {n}"
        )
    if mode is MwuMode.AUTO:
        mode = (
            MwuMode.EXACT
            if (n <= MWU_EXACT_LIMIT and not has_ties)
            else MwuMode.NORMAL_APPROX
        )

    center = n_a * n_b / 2.0
    if u_a > center:
        direction = "a"
    elif u_a < center:
        direction = "b"
    else:
        direction = None

    if mode is MwuMode.EXACT:
        in_a = [src == 0 for _, src in pooled]
        p = _exact_mwu_p(doubled, in_a, n_a, n_b)
        return TestResult(u_a, p, Sidedness.TWO_SIDED, direction)

    # Tie-corrected normal approximation.
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        t = j - i + 1
        if t > 1:
            tie_term += t**3 - t
        i = j + 1
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        # every observation tied: U is deterministic at its mean
        return TestResult(u_a, 1.0, Sidedness.TWO_SIDED, None)
    dev = abs(u_a - center)
    z = max(dev - 0.5, 0.0) / math.sqrt(var)  # continuity correction
    p = math.erfc(z / math.sqrt(2.0))
    return TestResult(u_a, min(p, 1.0), Sidedness.TWO_SIDED, direction)



def outcomes_at(responses_sorted: Sequence[float], threshold: float) -> tuple[int, int]:
    """(accepted, rejected) counts at a threshold; boundary value accepted.

    The input must be sorted ascending (as returned by bona_fide_responses).
    """
    n = len(responses_sorted)
    if n == 0:
        raise InsufficientDataError("no responses")
    accepted = bisect_right(responses_sorted, threshold)
    return accepted, n - accepted


def bias_sweep(
    bona_a: Sequence[float],
    bona_b: Sequence[float],
    grid: Sequence[float] | None = None,
    alpha: float = 0.05,
    pair: GroupPair | None = None,
) -> BiasCurve:
    """One-sided rejection-rate comparison at every grid threshold.

    ``grid=None`` uses the sorted distinct pooled responses of both groups.
    An explicit grid must be strictly increasing. A single-point grid is
    degenerate and rejected.
    """
    if len(bona_a) == 0 or len(bona_b) == 0:
        raise InsufficientDataError("bias_sweep needs non-empty groups")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if pair is None:
        pair = GroupPair("a", "b")
    a_s = sorted(float(v) for v in bona_a)
    b_s = sorted(float(v) for v in bona_b)
    if grid is None:
        grid_arr = np.unique(np.concatenate([a_s, b_s]))
    else:
        grid_arr = np.asarray([float(t) for t in grid])
        if len(grid_arr) and np.any(np.diff(grid_arr) <= 0):
            raise ParameterError("grid must be strictly increasing")
    if len(grid_arr) < 2:
        raise ParameterError(f"degenerate sweep grid of size {len(grid_arr)}")

    p_values = []
    directions = []
    for t in grid_arr:
        acc_a, rej_a = outcomes_at(a_s, float(t))
        acc_b, rej_b = outcomes_at(b_s, float(t))
        res = chi_squared_one_sided(
            ContingencyTable2x2(acc_a, rej_a, acc_b, rej_b, pair.a, pair.b)
        )
        p_values.append(res.p_value)
        directions.append(res.direction)
    return BiasCurve(
        pair=pair,
        grid=tuple(float(t) for t in grid_arr),
        p_values=tuple(p_values),
        alpha=alpha,
        directions=tuple(directions),
    )


def significant_regions(curve: BiasCurve) -> list[BiasRegion]:
    """Maximal disconnected grid runs where p < alpha.

    Regions are disjoint and ordered by threshold; each is labeled with the
    worse-off group at its most significant point (first such point on ties).
    """
    regions = []
    i = 0
    n = len(curve.grid)
    while i < n:
        if curve.p_values[i] >= curve.alpha:
            i += 1
            continue
        j = i
        while j + 1 < n and curve.p_values[j + 1] < curve.alpha:
            j += 1
        k = min(range(i, j + 1), key=lambda m: (curve.p_values[m], m))
        worse = curve.directions[k]
        assert worse is not None  # p < alpha < 1 rules out the tie branch
        regions.append(
            BiasRegion(
                lo=curve.grid[i],
                hi=curve.grid[j],
                min_p=curve.p_values[k],
                worse_group=worse,
            )
        )
        i = j + 1
    return regions


def auc_from_scores(pos: Sequence[float], neg: Sequence[float]) -> float:
    """Rank-based AUC: P(pos > neg) with half credit for ties.

    Computed from midranks; exactly equals the pairwise count
    (#{p > n} + 0.5 #{p == n}) / (|pos| * |neg|).
    """
    n_p, n_n = len(pos), len(neg)
    if n_p == 0 or n_n == 0:
        raise InsufficientDataError("auc needs non-empty score sets")
    pooled = sorted([(float(v), 0) for v in pos] + [(float(v), 1) for v in neg])
    n = n_p + n_n
    rank_sum_pos = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        rank_sum_pos += midrank * sum(1 for k in range(i, j + 1) if pooled[k][1] == 0)
        i = j + 1
    u = rank_sum_pos - n_p * (n_p + 1) / 2.0
    return u / (n_p * n_n)
