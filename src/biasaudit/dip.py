"""Hartigan & Hartigan dip statistic and Monte Carlo critical values.

The dip of a sample is the smallest sup-norm distance between its empirical
CDF and any unimodal CDF. It is computed here with the classic greatest
convex minorant / least concave majorant alternation: maintain the GCM and
LCM of the empirical CDF over a shrinking modal interval, take the larger of
the one-sided deviations, and stop when the interval is stable. The result
lives in [1/(2n), 0.25]. The reference it must match bit for bit is the
one-point-per-sample kernel in tests/_dip_oracle.py.

Each pass builds the GCM and the LCM of the sample points in the modal
interval whole. A hull knot lies strictly below (GCM) or above (LCM) every
chord of two other points on either side of it, so numpy steps drop, all at
once, each point that fails that test: first against the chord of the two
ends, whose products the pass's two hulls share, then against its two
neighbours, until few points are left, and a stack scan finishes.

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
# a hull's knots: their values and sample indices, ascending
_Knots = tuple[list[float], list[float]]

# dip_critical_value refuses a null whose working set exceeds this: 8 bytes
# per float64 replica dip (sorted in place, not copied), 16 per replica for
# the two float arrays in which a look builds its binomial tails, 32 KiB for
# one look's draws, the driver's small objects and what numpy allocates on
# its first calls (tracemalloc reads 2-19 KiB on a cold call, 1.6 KiB once
# numpy's caches are warm), and _POINT_BYTES per sample point for the
# kernel's arrays: the sample's two rows and, at each pass, the chord
# products both hulls share, the points a hull's step keeps, its
# differences and products and the deviation scan's per-point terms
# (tracemalloc reads at most 112 B per point over 400 replicas at n = 200,
# 101 over 100 at n = 2,000 and 99 over 100 at n = 20,000, the sample's
# rows included)
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


def _scan(xs: list[float], ps: list[float]) -> list[int]:
    """Positions of the GCM knots of the points (xs[k], ps[k]), ascending. A
    stack scan from the left, as the reference kernel's prefix hulls are:
    the top knot b goes when it lies on or above the chord from the knot
    below it to the next point."""
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
    return knots


def _chord_products(span: np.ndarray) -> np.ndarray:
    """Each inner point b of ``span`` against the chord of its two ends a
    and c: rows (x_c - x_b)(p_b - p_a) and (p_c - p_b)(x_b - x_a)."""
    inner = span[:, 1:-1]
    before = inner - span[:, :1]
    after = span[:, -1:] - inner
    after *= before[::-1]
    return after


def _drop(span: np.ndarray, products: np.ndarray, upper: bool) -> np.ndarray:
    """``span`` without each inner point b whose ``products`` row 0 is not
    below row 1, so that b lies on or above the chord ac: no GCM knot does.
    With ``upper`` the rows swap, which drops each b on or below ac, as the
    same test does on the points mirrored through the origin."""
    keep = np.empty(span.shape[1], dtype=bool)
    keep[0] = keep[-1] = True
    lower, higher = products[::-1] if upper else products
    np.less(lower, higher, out=keep[1:-1])
    return span.compress(keep, axis=1)


def _hull(span: np.ndarray, upper: bool, chord: np.ndarray | None) -> _Knots:
    """The knots of the GCM, or with ``upper`` the LCM, of the points in
    ``span``: their values and sample indices, two ascending lists.

    ``span`` holds a point per column: its value x (non-decreasing) and its
    sample index p (rising). Numpy steps drop, all at once, each point that
    lies on or above (GCM) or on or below (LCM) the chord of two others,
    which a knot never does; within a run of equal values that drops every
    point but the first (GCM) or last (LCM) one, and the other only if it
    ends ``span``. A ``span`` of more than ``_STACK`` points comes with
    ``chord``, the ``_chord_products`` of its points, which the first step
    tests each point against, dropping a concave stretch at once; the other
    steps test each point against its neighbours. Once at most
    ``_STACK`` points are left, or a step drops none, a stack scan finishes:
    from the left for the GCM, as the reference kernel's prefix hulls are;
    for the LCM, from the right on the points mirrored through the origin, as
    its suffix hulls are, and negation is exact, so its tests give the same
    bits."""
    if span.shape[1] > _STACK:
        span = _drop(span, chord, upper)
    while span.shape[1] > _STACK:
        m = span.shape[1]
        d = span[:, 1:] - span[:, :-1]
        span = _drop(span, d[:, 1:] * d[::-1, :-1], upper)
        if span.shape[1] == m:
            break
    xs, ps = span.tolist()
    if upper:
        last = len(xs) - 1
        mirrored = _scan([-v for v in reversed(xs)], [-v for v in reversed(ps)])
        knots = [last - k for k in reversed(mirrored)]
    else:
        knots = _scan(xs, ps)
    return [xs[k] for k in knots], [ps[k] for k in knots]


def _deviation(pts: np.ndarray, below: _Knots, above: _Knots) -> float:
    """Largest deviation, in units of 1/(2n), of the empirical CDF below the
    GCM knots ``below`` or above the LCM knots ``above`` (values, sample
    indices) over the sample points ``pts`` (rows value and sample index, so
    that a point's column is its sample index): at least 1.0, or 0.0 with no
    segment. A segment over fewer than three sample indices or over one value
    adds nothing. Each point after a segment's start (where t is exactly 1)
    gets t = s ((p - p_b + s) - (x - x_b) c), c = (p_e - p_b) / (x_e - x_b),
    with s 1.0 below the GCM and -1.0 above the LCM: the float operations of
    the reference kernel's loop, in its order (p - p_b + s is formed as
    p - (p_b - s), which is the same integer). The points of a segment that
    adds nothing get s = c = 0, so t = 0."""
    terms, lens, spans = [], [], []
    for (xs, ps), s in ((below, 1.0), (above, -1.0)):
        if len(ps) > 1:
            spans.append(pts[:, int(ps[0]) + 1 : int(ps[-1]) + 1])
        for b in range(len(ps) - 1):
            dp, dx = ps[b + 1] - ps[b], xs[b + 1] - xs[b]
            lens.append(int(dp))
            terms.append((xs[b], ps[b] - s, dp / dx, s) if dp > 1 and dx != 0 else (0.0,) * 4)
    if not lens:
        return 0.0
    x, p = spans[0] if len(spans) == 1 else np.concatenate(spans, axis=1)
    xb, q, c, s = np.repeat(np.array(terms).T, lens, axis=1)
    t = s * ((p - q) - (x - xb) * c)
    return max(1.0, float(t.max()))


def _dip_points(pts: np.ndarray) -> float:
    """Dip of a sorted sample given as its points: a column each, with rows
    value (non-decreasing) and sample index (0 to n - 1), so that a point's
    column is its sample index. Constant samples and n < 4 sit at the exact
    lower bound 1/(2n): every empirical CDF on at most three support points
    can be matched by a unimodal CDF to within 1/(2n) (direct construction),
    and no sample can do better."""
    n = pts.shape[1]
    if n < 4 or pts[0, 0] == pts[0, n - 1]:
        return 1.0 / (2 * n)

    low, high = 0, n - 1
    dip2n = 0.0  # dip in units of 2n * sup-deviation
    for _ in range(n + 2):  # the interval shrinks; n + 2 passes is a safe cap
        span = pts[:, low : high + 1]
        # both hulls test each point against the same chord first
        chord = _chord_products(span) if span.shape[1] > _STACK else None
        gx, gp = _hull(span, False, chord)
        lx, lp = _hull(span, True, chord)
        top_g = len(gp) - 1
        top_l = len(lp) - 1
        ig, ih = 0, top_l
        ix = iv = 1

        # Largest deviation between the two hulls inside [low, high].
        d = 0.0
        if top_g != 1 or top_l != 1:
            while True:
                if gp[ix] > lp[iv]:
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
                if gp[ix] == lp[iv]:
                    break

        if d < dip2n:
            break

        # Max deviation of the empirical CDF below the GCM on [low, gcm[ig]]
        # and above the LCM on [lcm[ih], high].
        below = (gx[: ig + 1], gp[: ig + 1])
        above = (lx[ih:], lp[ih:])
        dip2n = max(dip2n, _deviation(pts, below, above))
        if low == gp[ig] and high == lp[ih]:
            break
        low, high = int(gp[ig]), int(lp[ih])
    else:  # pragma: no cover - loop cap is unreachable for valid input
        raise RuntimeError("dip search failed to stabilize")

    return max(dip2n, 1.0) / (2 * n)


def dip_statistic(a: Sequence[float]) -> float:
    """Dip statistic of a sample of at least 4 values."""
    x = _sample(a, 4, "dip_statistic")
    return _dip_points(np.stack((x, np.arange(len(x), dtype=float))))


def _null_stream(n: int, replicas: int, seed: int) -> Iterator[float]:
    """Dips of up to ``replicas`` uniform null samples of size n, in replica
    order, drawn as they are consumed. Replica i is the same for every
    ``replicas`` > i. Each sample enters the kernel as two rows: the sorted
    uniforms and their sample indices."""
    pts = np.empty((2, n))
    pts[1] = np.arange(n)
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
