"""Threshold sweeps over classifier responses: ROC operating points and
per-pair significance curves.

A sample is accepted iff its response is <= the threshold, so the false
accept rate (attacks accepted) is non-decreasing in the threshold and the
false reject rate (bona fide rejected) is non-increasing. All rates are
exact count ratios; thresholds are taken from the observed response values
so every distinct empirical operating point appears exactly once.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GroupPair, _read_only
from .errors import InsufficientDataError, ParameterError
from .stats import _one_sided_chi2

__all__ = [
    "RocCurve",
    "OperatingPoint",
    "BiasCurve",
    "BiasRegion",
    "outcomes_at",
    "roc_curve",
    "eer_operating_point",
    "hter_at",
    "threshold_for_bonafide_error",
    "bias_sweep",
    "significant_regions",
]


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical ROC as parallel arrays: one point per distinct pooled value,
    plus a sentinel below the minimum (nothing accepted) and one above the
    maximum (everything accepted). Thresholds are strictly increasing."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray


@dataclass(frozen=True)
class OperatingPoint:
    """FAR/FRR at one threshold; hter = (far + frr) / 2."""

    threshold: float
    far: float
    frr: float
    hter: float


@dataclass(frozen=True, eq=False)
class BiasCurve:
    """One-sided rate-comparison p-values along a threshold grid, as read-only
    arrays the curve owns: float64 ``grid`` and ``p_values``, and int8
    ``signs``, 1 where group a rejects more at ``grid[i]``, -1 where group b
    does, 0 on a tie. The signs label regions without recomputing the tables.
    """

    pair: GroupPair
    grid: np.ndarray
    p_values: np.ndarray
    alpha: float
    signs: np.ndarray

    def __post_init__(self):
        for name, dtype in (("grid", np.float64), ("p_values", np.float64), ("signs", np.int8)):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=dtype)))


@dataclass(frozen=True)
class BiasRegion:
    """Maximal run of grid thresholds with p < alpha.

    ``lo`` and ``hi`` are grid values (lo <= hi); ``worse_group`` is the
    group that rejects more at the run's most significant point.
    """

    lo: float
    hi: float
    min_p: float
    worse_group: str


def outcomes_at(responses_sorted: Sequence[float], threshold: float) -> tuple[int, int]:
    """(accepted, rejected) counts at a threshold; boundary value accepted.

    The input must be sorted ascending (as returned by bona_fide_responses).
    """
    n = len(responses_sorted)
    if n == 0:
        raise InsufficientDataError("no responses")
    accepted = bisect_right(responses_sorted, threshold)
    return accepted, n - accepted


def _below(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _above(v: float) -> float:
    return math.nextafter(v, math.inf)


def roc_curve(bona: Sequence[float], attack: Sequence[float]) -> RocCurve:
    """Empirical ROC over all distinct pooled response values."""
    if len(bona) == 0 or len(attack) == 0:
        raise InsufficientDataError("roc_curve needs non-empty bona fide and attack samples")
    bona_s = np.sort(np.asarray(bona, dtype=float))
    att_s = np.sort(np.asarray(attack, dtype=float))
    pooled = np.unique(np.concatenate([bona_s, att_s]))
    grid = np.concatenate([[_below(pooled[0])], pooled, [_above(pooled[-1])]])
    n_b, n_a = len(bona_s), len(att_s)
    far = np.searchsorted(att_s, grid, side="right") / n_a
    frr = (n_b - np.searchsorted(bona_s, grid, side="right")) / n_b
    return RocCurve(grid, far, frr)


def eer_operating_point(roc: RocCurve) -> OperatingPoint:
    """Operating point where |far - frr| is smallest.

    Ties prefer the smaller max(far, frr), then the smaller threshold. The
    reported equal error rate is this point's hter.
    """
    far, frr = roc.far, roc.frr
    # np.lexsort orders by its last key first
    i = np.lexsort((roc.thresholds, np.maximum(far, frr), np.abs(far - frr)))[0]
    far_i, frr_i = float(far[i]), float(frr[i])
    return OperatingPoint(float(roc.thresholds[i]), far_i, frr_i, (far_i + frr_i) / 2)


def hter_at(
    bona: Sequence[float], attack: Sequence[float], threshold: float
) -> OperatingPoint:
    """FAR/FRR/HTER at a fixed threshold."""
    if len(bona) == 0 or len(attack) == 0:
        raise InsufficientDataError("hter_at needs non-empty bona fide and attack samples")
    far = np.count_nonzero(np.asarray(attack, dtype=float) <= threshold) / len(attack)
    frr = np.count_nonzero(np.asarray(bona, dtype=float) > threshold) / len(bona)
    return OperatingPoint(float(threshold), far, frr, (far + frr) / 2)


def threshold_for_bonafide_error(bona: Sequence[float], q: float) -> float:
    """Smallest observed threshold rejecting at most a fraction q of bona fide.

    q = 0 gives the sample maximum (reject nothing); q = 1 gives a sentinel
    just below the sample minimum (reject everything). Non-increasing in q.
    """
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"q must be in [0, 1], got {q}")
    n = len(bona)
    if n == 0:
        raise InsufficientDataError("no bona fide responses")
    s = np.sort(np.asarray(bona, dtype=float), kind="stable")
    # float-tolerant floor: q arriving as 0.1 + eps must still reject floor(q*n)
    m = int(math.floor(q * n + 1e-9))
    if m >= n:
        return _below(s[0])
    return float(s[n - 1 - m])


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
    # stable, so that of equal values (0.0 and -0.0) the grid keeps the one
    # that comes first in the input
    a_s = np.sort(np.asarray(bona_a, dtype=float), kind="stable")
    b_s = np.sort(np.asarray(bona_b, dtype=float), kind="stable")
    if grid is None:
        grid_arr = np.unique(np.concatenate([a_s, b_s]))
    else:
        grid_arr = np.asarray(grid, dtype=float)
        if len(grid_arr) and np.any(np.diff(grid_arr) <= 0):
            raise ParameterError("grid must be strictly increasing")
    if len(grid_arr) < 2:
        raise ParameterError(f"degenerate sweep grid of size {len(grid_arr)}")

    # Accept counts for the whole grid at once; the statistic itself stays in
    # exact integer arithmetic, so the counts go in as Python ints.
    n_a, n_b = len(a_s), len(b_s)
    acc_a = np.searchsorted(a_s, grid_arr, side="right").tolist()
    acc_b = np.searchsorted(b_s, grid_arr, side="right").tolist()
    p_values, signs = [], []
    for ca, cb in zip(acc_a, acc_b):
        _, p, sign = _one_sided_chi2(ca, n_a - ca, cb, n_b - cb)
        p_values.append(p)
        signs.append(sign)
    return BiasCurve(pair, grid_arr, p_values, alpha, signs)


def significant_regions(curve: BiasCurve) -> list[BiasRegion]:
    """Maximal disconnected grid runs where p < alpha.

    Regions are disjoint and ordered by threshold; each is labeled with the
    worse-off group at its most significant point (first such point on ties).
    """
    p = curve.p_values
    # run starts and (exclusive) ends are where the padded mask flips
    flips = np.flatnonzero(np.diff(np.concatenate(([False], p < curve.alpha, [False]))))
    worse = {1: curve.pair.a, -1: curve.pair.b}  # p < alpha < 1 rules out a tie
    regions = []
    for i, j in zip(flips[0::2].tolist(), flips[1::2].tolist()):
        k = i + int(np.argmin(p[i:j]))  # argmin takes the first minimum
        regions.append(
            BiasRegion(
                lo=float(curve.grid[i]),
                hi=float(curve.grid[j - 1]),
                min_p=float(p[k]),
                worse_group=worse[int(curve.signs[k])],
            )
        )
    return regions
