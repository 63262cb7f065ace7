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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GroupPair, _read_only
from .errors import ParameterError
from .stats import _chi2_tests, _distinct, _sample

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

    A curve holds at least one point, its three columns have one length, its
    grid and p-values are finite, its grid rises strictly, its p-values lie
    in [0, 1], its signs in {-1, 0, 1}, a sign is 0 only where p is 1, and
    0 < alpha < 1; anything else raises ParameterError.
    """

    pair: GroupPair
    grid: np.ndarray
    p_values: np.ndarray
    alpha: float
    signs: np.ndarray

    def __post_init__(self):
        # signs keep their own dtype until checked, so none is cast away
        for name, dtype in (("grid", np.float64), ("p_values", np.float64), ("signs", None)):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=dtype)))
        shape = self.grid.shape
        if len(shape) != 1 or self.p_values.shape != shape or self.signs.shape != shape:
            raise ParameterError("grid, p_values and signs must be columns of one length")
        if not shape[0]:
            raise ParameterError("a bias curve needs at least one point")
        for name in ("grid", "p_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(f"bias curve {name}: a float is not finite")
        if not (self.grid[1:] > self.grid[:-1]).all():
            raise ParameterError("bias curve grid must rise strictly")
        if not ((self.p_values >= 0.0) & (self.p_values <= 1.0)).all():
            raise ParameterError("bias curve p_values must lie in [0, 1]")
        signs = self.signs
        if not ((signs == -1) | (signs == 0) | (signs == 1)).all():
            raise ParameterError("bias curve signs must be -1, 0 or 1")
        object.__setattr__(self, "signs", _read_only(self.signs.astype(np.int8)))
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        # a tie is then never below alpha, so every region has a worse group
        if ((self.signs == 0) & (self.p_values != 1.0)).any():
            raise ParameterError("a bias curve sign is 0 only where p is 1")


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


def outcomes_at(responses: Sequence[float], threshold: float) -> tuple[int, int]:
    """(accepted, rejected) counts at a finite threshold; boundary value
    accepted."""
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold}")
    x = _sample(responses, 1, "outcomes_at")
    accepted = int(np.searchsorted(x, threshold, side="right"))
    return accepted, len(x) - accepted


def _below(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _above(v: float) -> float:
    return math.nextafter(v, math.inf)


def roc_curve(bona: Sequence[float], attack: Sequence[float]) -> RocCurve:
    """Empirical ROC over all distinct pooled response values."""
    bona_s, att_s = (_sample(s, 1, "roc_curve") for s in (bona, attack))
    pooled = _distinct(np.concatenate([bona_s, att_s]))
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
    """FAR/FRR/HTER at a fixed finite threshold."""
    bona, attack = (_sample(s, 1, "hter_at") for s in (bona, attack))
    far = outcomes_at(attack, threshold)[0] / len(attack)
    frr = outcomes_at(bona, threshold)[1] / len(bona)
    return OperatingPoint(float(threshold), far, frr, (far + frr) / 2)


def threshold_for_bonafide_error(bona: Sequence[float], q: float) -> float:
    """Smallest observed threshold rejecting at most a fraction q of bona fide.

    q = 0 gives the sample maximum (reject nothing); q = 1 gives a sentinel
    just below the sample minimum (reject everything). Non-increasing in q.
    """
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"q must be in [0, 1], got {q}")
    s = _sample(bona, 1, "threshold_for_bonafide_error")
    n = len(s)
    # float-tolerant floor: q arriving as 0.1 + eps must still reject floor(q*n)
    m = int(math.floor(q * n + 1e-9))
    if m >= n:
        return _below(s[0])
    return float(s[n - 1 - m])


def bias_sweep(
    bona_a: Sequence[float],
    bona_b: Sequence[float],
    alpha: float = 0.05,
    pair: GroupPair | None = None,
) -> BiasCurve:
    """One-sided rejection-rate comparison at every grid threshold.

    The grid is the sorted distinct pooled responses of both groups; a
    single-point grid (every response equal) is degenerate and rejected.
    """
    if pair is None:
        pair = GroupPair("a", "b")
    a_s, b_s = (_sample(s, 1, "bias_sweep") for s in (bona_a, bona_b))
    grid_arr = _distinct(np.concatenate([a_s, b_s]))
    if len(grid_arr) < 2:
        raise ParameterError(f"degenerate sweep grid of size {len(grid_arr)}")

    # The tables of the whole grid as int64 columns: |det| <= n_a * n_b and
    # margins <= (n_a + n_b)**2 / 4, far inside int64 for any sample that
    # fits in memory. Each untied point's p is then formed from Python ints,
    # exactly, as chi_squared_one_sided forms it.
    n_a, n_b = len(a_s), len(b_s)
    acc_a = np.searchsorted(a_s, grid_arr, side="right").astype(np.int64)
    acc_b = np.searchsorted(b_s, grid_arr, side="right").astype(np.int64)
    rej_a, rej_b = n_a - acc_a, n_b - acc_b
    det = acc_a * rej_b - acc_b * rej_a
    margins = (acc_a + acc_b) * (rej_a + rej_b)
    untied = det != 0
    n, rows = n_a + n_b, n_a * n_b
    p_values = np.ones(len(grid_arr))
    _, p_values[untied] = _chi2_tests(n, det[untied].tolist(), rows, margins[untied].tolist())
    return BiasCurve(pair, grid_arr, p_values, alpha, -np.sign(det))


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
