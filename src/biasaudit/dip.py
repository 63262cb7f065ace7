"""Hartigan & Hartigan dip statistic and Monte Carlo critical values.

The dip of a sample is the smallest sup-norm distance between its empirical
CDF and any unimodal CDF. It is computed here with the classic greatest
convex minorant / least concave majorant alternation: maintain the GCM and
LCM of the empirical CDF over a shrinking modal interval, take the larger of
the one-sided deviations, and stop when the interval is stable. The result
lives in [1/(2n), 0.25].

The kernel works on the kept points of the sorted sample: the first and
the last sample index of each run of tied values. The points in between are
never hull knots nor the largest deviation, so the result equals the dip of
every sample point bit for bit, at a cost that grows with the number of
distinct values rather than with n. The reference it must match is the
one-point-per-sample kernel in tests/_dip_oracle.py.

Each pass takes the GCM and the LCM of the kept points in the modal
interval. A hull knot lies strictly below (GCM) or above (LCM) every chord
of two other points on either side of it, so numpy steps drop, all at once,
each point that fails that test against its two neighbours, until few points
are left, and a stack scan finishes. The knots of a wider pass that lie in
the narrower interval are knots of its hulls too, so a pass rebuilds only
the piece of each hull past the last of them.

Null critical values are not tabulated; they are simulated from the uniform
null (any unimodal null gives the same dip distribution in the limit, and the
uniform is the conventional reference), seeded so that results are
reproducible bit for bit regardless of scheduling: each replica draws n
uniforms from its own RNG stream keyed by (seed, replica index).

One driver draws every null. It is sequential (Besag & Clifford 1991; Gandy
2009) and ``replicas`` is a cap: replicas are drawn from the same streams in
looks of 64, and drawing stops at the first look where every dip d under test
(``observed``) is settled; with no observed dips the whole cap is drawn. With
e = #{null dips > d} among the r drawn, d is settled when e lies in either
tail of Binomial(r, alpha) at level eps / (2 L), eps = 1e-3 and L the number
of looks up to the cap. Whatever d's true p-value (other than alpha itself),
the chance that a look settles d on the wrong side of alpha is at most
eps / (2 L), so over all looks a stop gives a verdict other than the
infinite-replica one with probability at most eps.
The critical value comes from the r replicas drawn, so ``d < critical value``
is the settled verdict; a dip that never settles gets the fixed-cap verdict.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .stats import _sample

__all__ = ["CriticalValue", "DipResult", "dip_statistic", "dip_critical_value"]

_LOOK = 64  # replicas per look of the sequential null
_EPSILON = 1e-3  # bound on the chance that a stopped test flips a verdict
_STACK = 32  # a hull's numpy steps stop at this many points; a stack scan ends it
_MIRROR = np.array([[-1.0], [-1.0], [1.0]])  # turns an LCM into a GCM

# dip_critical_value refuses a null whose working set exceeds this: 8 bytes
# per float64 replica dip (sorted in place, not copied), 16 per replica for
# the two float arrays in which a look builds its binomial tails, 32 KiB for
# one look's draws, the driver's small objects and what numpy allocates on
# its first calls (tracemalloc reads 2-19 KiB on a cold call, 1.6 KiB once
# numpy's caches are warm), and _POINT_BYTES per sample point for the
# kernel's arrays: the sample's three rows and, at the first pass, the
# mirrored LCM copy, a hull step's differences and products and the
# deviation scan's per-point terms (tracemalloc reads at most 139 B per
# point over 400 replicas at n = 200, 130 at n = 2,000 and 113 over 100
# at n = 20,000, the sample's rows included)
_MAX_NULL_BYTES = 1 << 30
_POINT_BYTES = 160


@dataclass(frozen=True)
class DipResult:
    """Dip test verdict for one sample.

    ``unimodal`` is True exactly when ``dip < critical_value``; the critical
    value is the empirical (1 - alpha) quantile of the ``replicas`` simulated
    null dips actually drawn, and ``critical_value_se`` its Monte Carlo
    standard error. The audit's null is sequential (see the module
    docstring), so ``replicas`` is a multiple of 64 up to the configured cap,
    or the cap itself.
    """

    dip: float
    n: int
    critical_value: float
    alpha: float
    unimodal: bool
    replicas: int
    critical_value_se: float


class CriticalValue(float):
    """A simulated null quantile that also carries ``se``, its Monte Carlo
    standard error: half the gap between the null order statistics at ranks
    R q -/+ sqrt(R q (1 - q)) (rounded outwards, clipped to [1, R]), with
    q = 1 - alpha and R replicas; 0 when those order statistics coincide.
    ``replicas`` is R, the number of null replicas drawn."""

    se: float
    replicas: int

    def __new__(cls, value: float, se: float, replicas: int) -> "CriticalValue":
        self = super().__new__(cls, value)
        self.se = se
        self.replicas = replicas
        return self


def _drop_above(pts: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``pts`` without each inner point b that lies on or above the chord
    ac, given the steps (x_b - x_a, p_b - p_a) in ``before`` and
    (x_c - x_b, p_c - p_b) in ``after``, one column per inner point."""
    keep = np.empty(pts.shape[1], dtype=bool)
    keep[0] = keep[-1] = True
    np.less(after[0] * before[1], before[0] * after[1], out=keep[1:-1])
    return pts[:, keep]


def _gcm(pts: np.ndarray) -> list[int]:
    """The index row's values at the knots of the GCM of ``pts``, ascending.

    ``pts`` holds a point per column: its value x (non-decreasing), its
    sample index p (rising) and its index. A point b between a and c is
    dropped when (x_c - x_b)(p_b - p_a) >= (x_b - x_a)(p_c - p_b): it lies on
    or above the chord ac, which a knot never does. Within a run of equal
    values that drops every point but the first, and the last one only if it
    ends ``pts``. The first step tests each point against the chord of the
    two ends, which drops a concave stretch at once; the others against its
    neighbours. The stack scan runs from the left, as the reference kernel's
    prefix hulls do."""
    if pts.shape[1] > _STACK:
        inner = pts[:2, 1:-1]
        pts = _drop_above(pts, inner - pts[:2, :1], pts[:2, -1:] - inner)
    while pts.shape[1] > _STACK:
        m = pts.shape[1]
        d = pts[:2, 1:] - pts[:2, :-1]
        pts = _drop_above(pts, d[:, :-1], d[:, 1:])
        if pts.shape[1] == m:
            break
    xs, ps, ids = pts.tolist()
    knots = [0]
    for c in range(1, len(xs)):
        xc, pc = xs[c], ps[c]
        b = knots[-1]
        while b:
            a = knots[-2]
            if (xc - xs[b]) * (ps[b] - ps[a]) < (xs[b] - xs[a]) * (pc - ps[b]):
                break
            knots.pop()
            b = a
        knots.append(c)
    return [int(ids[k]) for k in knots]


def _hull(pts: np.ndarray, low: int, high: int, upper: bool) -> list[int]:
    """Ascending knots of the GCM, or with ``upper`` the LCM, of the kept
    points low..high. The LCM is the GCM of the points mirrored through the
    origin, taken from high down, as the reference kernel's suffix hulls
    are; negation is exact, so its tests give the same bits."""
    span = pts[:, low : high + 1]
    if upper:
        return _gcm(span[:, ::-1] * _MIRROR)[::-1]
    return _gcm(span)


def _deviation(pts: np.ndarray, jb: list[int], je: list[int], s: list[float]) -> float:
    """Largest deviation, in units of 1/(2n), of the empirical CDF below the
    GCM segment (jb[k], je[k]) where s[k] is 1.0, or above the LCM segment
    where it is -1.0: at least 1.0, or 0.0 with no segment. A segment over
    fewer than three sample indices or over one value adds nothing. Each
    point after a segment's start (where t is exactly 1) gets
    t = s ((p - p_b + s) - (x - x_b) c), c = (p_e - p_b) / (x_e - x_b):
    the float operations of the reference kernel's loop, in its order."""
    if not jb:
        return 0.0
    jb, je = np.array(jb), np.array(je)
    xb, pb = pts[:2, jb]
    xe, pe = pts[:2, je]
    ok = (pe - pb > 1) & (xe != xb)
    if not ok.any():
        return 1.0
    lens = (je - jb)[ok]
    first = np.cumsum(lens) - lens  # each segment's first slot among the points
    seg = np.repeat(np.arange(len(lens)), lens)  # each point's segment
    idx = np.arange(len(seg)) + (jb[ok] + 1 - first)[seg]
    terms = np.stack((xb[ok], pb[ok], (pe - pb)[ok] / (xe - xb)[ok], np.array(s)[ok]))
    xb, pb, c, s = terms[:, seg]
    x, p = pts[:2, idx]
    t = s * ((p - pb + s) - (x - xb) * c)
    return max(1.0, float(t.max()))


def _dip_points(pts: np.ndarray) -> float:
    """Dip of a sample given as its kept points: a column each, with rows
    value (non-decreasing), sample index (rising, from 0 to n - 1) and column
    index. Constant samples and n < 4 sit at the exact lower bound 1/(2n):
    every empirical CDF on at most three support points can be matched by a
    unimodal CDF to within 1/(2n) (direct construction), and no sample can
    do better."""
    m = pts.shape[1]
    n = int(pts[1, m - 1]) + 1
    if n < 4 or pts[0, 0] == pts[0, m - 1]:
        return 1.0 / (2 * n)

    low, high = 0, m - 1
    gcm = _hull(pts, low, high, False)
    lcm = _hull(pts, low, high, True)
    dip2n = 0.0  # dip in units of 2n * sup-deviation
    for _ in range(m + 2):  # the interval shrinks; m + 2 passes is a safe cap
        gx, gp = pts[:2, gcm].tolist()
        lx, lp = pts[:2, lcm].tolist()
        top_g = len(gcm) - 1
        top_l = len(lcm) - 1
        ig, ih = 0, top_l
        ix = iv = 1

        # Largest deviation between the two hulls inside [low, high].
        d = 0.0
        if top_g != 1 or top_l != 1:
            while True:
                if gcm[ix] > lcm[iv]:
                    # LCM knot inside a GCM segment
                    a = ix - 1
                    dx = (lp[iv] - gp[a] + 1) - (lx[iv] - gx[a]) * (gp[ix] - gp[a]) / (
                        gx[ix] - gx[a]
                    )
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix - 1
                        ih = iv - 1
                else:
                    # GCM knot inside an LCM segment
                    a = iv - 1
                    dx = (gx[ix] - lx[a]) * (lp[iv] - lp[a]) / (lx[iv] - lx[a]) - (
                        gp[ix] - lp[a] - 1
                    )
                    ix += 1
                    if dx >= d:
                        d = dx
                        ig = ix - 1
                        ih = iv
                if ix > top_g:
                    ix = top_g
                if iv > top_l:
                    iv = top_l
                if gcm[ix] == lcm[iv]:
                    break

        if d < dip2n:
            break

        # Max deviation of the empirical CDF below the GCM on [low, gcm[ig]]
        # and above the LCM on [lcm[ih], high].
        below, above = gcm[: ig + 1], lcm[ih:]
        signs = [1.0] * ig + [-1.0] * (top_l - ih)
        dip2n = max(dip2n, _deviation(pts, below[:-1] + above[:-1], below[1:] + above[1:], signs))
        if low == gcm[ig] and high == lcm[ih]:
            break
        low, high = gcm[ig], lcm[ih]
        gcm = gcm[ig : bisect_right(gcm, high)]
        if gcm[-1] < high:
            gcm = gcm[:-1] + _hull(pts, gcm[-1], high, False)
        lcm = lcm[bisect_left(lcm, low) : ih + 1]
        if lcm[0] > low:
            lcm = _hull(pts, low, lcm[0], True) + lcm[1:]
    else:  # pragma: no cover - loop cap is unreachable for valid input
        raise RuntimeError("dip search failed to stabilize")

    return max(dip2n, 1.0) / (2 * n)


def dip_statistic(a: Sequence[float]) -> float:
    """Dip statistic of a sample of at least 4 values."""
    x = _sample(a, 4, "dip_statistic")
    # a run's first and last sample index: the value differs before or after
    new = x[1:] != x[:-1]
    kept = np.flatnonzero(np.r_[True, new] | np.r_[new, True])
    return _dip_points(np.stack((x[kept], kept, np.arange(len(kept)))))


def _null_stream(n: int, replicas: int, seed: int) -> Iterator[float]:
    """Dips of up to ``replicas`` uniform null samples of size n, in replica
    order, drawn as they are consumed. Replica i is the same for every
    ``replicas`` > i. Every uniform is a kept point: where two tie, the
    kernel gives the same bits as with the run compressed, since a run's
    inner points are never knots nor its largest deviation."""
    pts = np.empty((3, n))
    pts[1] = pts[2] = np.arange(n)
    for i in range(replicas):
        np.random.default_rng([seed, i]).random(out=pts[0])
        pts[0].sort()
        yield _dip_points(pts)


def _binomial_tails(r: int, alpha: float, level: float) -> tuple[int, int]:
    """(lo, hi): the counts e <= lo are the lower tail of Binomial(r, alpha)
    at ``level`` (P(X <= e) <= level) and e >= hi the upper one; lo is -1 and
    hi is r + 1 when a tail is empty. The pmf comes from a cumulative sum of
    the log ratios pmf(k + 1) / pmf(k), k = 0..r-1, built in place in two
    arrays of r + 1 floats."""
    pmf = np.empty(r + 1)
    pmf[0] = r * math.log1p(-alpha)
    steps = pmf[1:]
    work = np.arange(1.0, r + 2.0)  # k + 1, exact
    np.subtract(r + 1.0, work[:r], out=steps)  # r - k
    steps /= work[:r]
    np.log(steps, out=steps)
    steps += math.log(alpha / (1.0 - alpha))
    np.cumsum(steps, out=steps)
    steps += pmf[0]
    np.exp(pmf, out=pmf)
    below = np.cumsum(pmf, out=work)  # P(X <= e), nondecreasing
    lo = int(np.searchsorted(below, level, side="right")) - 1
    work[:] = pmf[::-1]
    above = np.cumsum(work, out=work)  # P(X >= r - j), nondecreasing in j
    hi = r + 1 - int(np.searchsorted(above, level, side="right"))
    return lo, hi


def _sequential_null(n: int, alpha: float, cap: int, seed: int, observed: np.ndarray) -> np.ndarray:
    """The dips of ``_null_stream(n, cap, seed)`` drawn up to the first
    look at which every observed dip is settled (see the module docstring),
    or all ``cap`` of them, sorted ascending; with no observed dips nothing
    settles."""
    looks = range(_LOOK, cap + _LOOK, _LOOK)  # the last look is capped at cap
    level = _EPSILON / (2 * len(looks))
    stream = _null_stream(n, cap, seed)
    dips = np.empty(cap)
    exceed = np.zeros(len(observed), dtype=np.int64)  # null dips > each observed
    r = 0
    for stop in looks:
        stop = min(stop, cap)
        dips[r:stop] = np.fromiter(islice(stream, stop - r), float, count=stop - r)
        exceed += np.count_nonzero(dips[r:stop, None] > observed, axis=0)
        r = stop
        if r < cap and len(observed):
            lo, hi = _binomial_tails(r, alpha, level)
            if np.all((exceed <= lo) | (exceed >= hi)):
                break
    dips = dips[:r]
    dips.sort()  # in place, so the null holds 8 bytes per replica
    return dips


def _null_quantile(dips: np.ndarray, alpha: float) -> CriticalValue:
    """Conservative (1 - alpha) order statistic of the null dips, sorted
    ascending: the smallest dip with at least (1 - alpha) of the null mass at
    or below it."""
    replicas = len(dips)
    q = 1.0 - alpha
    rq = q * replicas
    spread = math.sqrt(rq * (1.0 - q))

    def at(rank: int) -> float:
        return float(dips[min(max(rank, 1), replicas) - 1])

    se = (at(math.ceil(rq + spread)) - at(math.floor(rq - spread))) / 2
    return CriticalValue(at(math.ceil(rq)), se, replicas)


def dip_critical_value(
    n: int,
    alpha: float,
    replicas: int,
    seed: int,
    observed: Sequence[float] = (),
) -> CriticalValue:
    """Empirical (1 - alpha) null quantile of the dip for sample size n.

    Simulates ``replicas`` uniform samples of size n with seeded RNG streams
    (see the module docstring), so the value is bit-identical for a given
    seed no matter how replicas are scheduled. The result is a float; its
    ``se`` attribute is the Monte Carlo standard error of the quantile and
    ``replicas`` the number of replicas drawn. Given the ``observed`` dips of
    samples of size n, ``replicas`` is a cap: drawing stops, in looks of 64,
    once each observed dip's verdict is settled, and the value is the
    quantile of the replicas drawn so far. A null that would hold more than
    1 GiB at once is refused before it runs.
    """
    if n < 4:
        raise InsufficientDataError(f"critical value needs n >= 4, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    need = 24 * replicas + 32768 + _POINT_BYTES * n
    if need > _MAX_NULL_BYTES:
        raise ParameterError(
            f"a dip null of {replicas} replicas of n={n} needs "
            f"{need / 2**30:.2f} GiB; the limit is 1 GiB"
        )
    dips = _sequential_null(n, alpha, replicas, seed, np.asarray(observed, dtype=float))
    return _null_quantile(dips, alpha)
