"""Hartigan & Hartigan dip statistic and Monte Carlo critical values.

The dip of a sample is the smallest sup-norm distance between its empirical
CDF and any unimodal CDF. It is computed here with the classic greatest
convex minorant / least concave majorant alternation: maintain the GCM and
LCM of the empirical CDF over a shrinking modal interval, take the larger of
the one-sided deviations, and stop when the interval is stable. The result
lives in [1/(2n), 0.25].

The kernel works on the distinct values and their counts. Of each run of
tied values it keeps only the first and the last sample index: the points
in between are never hull knots and never the largest deviation, so the
result equals the dip of the expanded sample bit for bit, at a cost that
grows with the number of distinct values rather than with n.

Null critical values are not tabulated; they are simulated from the uniform
null (any unimodal null gives the same dip distribution in the limit, and the
uniform is the conventional reference), seeded so that results are
reproducible bit for bit regardless of scheduling:

- unbinned, each replica draws n uniforms from its own RNG stream keyed by
  (seed, replica index);
- binned into k bins between the sample's own min and max, a null sample is
  exactly one point in the first bin, one in the last and
  Multinomial(n - 2, 1/k) over all k bins. Count rows are drawn in chunks of
  1024 replicas, one RNG stream per chunk keyed by (seed, chunk index), so a
  replica costs O(k) whatever n is and the draws held at once stay O(1024 k).

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError

__all__ = ["CriticalValue", "DipResult", "dip_statistic", "dip_critical_value"]

_CHUNK = 1024  # binned null replicas per RNG stream
_LOOK = 64  # replicas per look of the sequential null
_EPSILON = 1e-3  # bound on the chance that a stopped test flips a verdict

# dip_critical_value refuses a null whose working set exceeds this: 8 bytes
# per float64 replica dip (sorted in place, not copied), 16 per replica for
# the two float arrays in which a look builds its binomial tails, 32 KiB for
# one look's draws, the driver's small objects and what numpy allocates on
# its first calls (tracemalloc reads 2-19 KiB on a cold call, 1.6 KiB once
# numpy's caches are warm) and, when binned, 16 bytes per entry of one
# min(_CHUNK, replicas) x bins chunk of counts (8 in the int64 array, 8 for
# the entry's slot in its tolist() copy) plus 48 per bin for the arrays built
# once: 32 for the bin-edge float list, 8 for the probability vector and 8 of
# headroom for the kernel's lists (tracemalloc reads 40-44 in all)
_MAX_NULL_BYTES = 1 << 30


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
    bins: int | None
    critical_value: float
    alpha: float
    unimodal: bool
    replicas: int
    critical_value_se: float


class CriticalValue(float):
    """A simulated null quantile that also carries ``se``, its Monte Carlo
    standard error: half the gap between the null order statistics at ranks
    R q -/+ sqrt(R q (1 - q)) (rounded outwards, clipped to [1, R]), with
    q = 1 - alpha and R replicas. It is 0 when those order statistics
    coincide, as they can where the binned null has atoms. ``replicas`` is R,
    the number of null replicas drawn."""

    se: float
    replicas: int

    def __new__(cls, value: float, se: float, replicas: int) -> "CriticalValue":
        self = super().__new__(cls, value)
        self.se = se
        self.replicas = replicas
        return self


def _segment_ends(x: list[float], pos: list[int], order: range, end: int) -> list[int]:
    """For each kept point j, the far end of its segment of the hull built
    point by point in ``order`` from ``end``: the GCM for ``range(1, m)`` from
    0, the LCM for ``range(m - 2, -1, -1)`` from m - 1.

    rise[k] and run[k] are the value and index steps of k's own segment, kept
    for the hull test. Within a run of equal values every point links to the
    run's point nearest ``end``, so a zero rise marks a point that the test
    would pop at once: it is skipped in one hop."""
    m = len(x)
    link = [end] * m
    rise = [0.0] * m
    run = [0] * m
    step = order.step
    for j in order:
        xj = x[j]
        pj = pos[j]
        k = j - step
        if rise[k] == 0.0:
            k = link[k]
        if x[k] != xj:
            while k != end and (xj - x[k]) * run[k] >= rise[k] * (pj - pos[k]):
                k = link[k]
        link[j] = k
        rise[j] = xj - x[k]
        run[j] = pj - pos[k]
    return link


def _deviation(x: list[float], pos: list[int], segments: Iterable, s: float) -> float:
    """Largest deviation, in units of 1/(2n), of the empirical CDF below
    (``s`` = 1.0) or above (``s`` = -1.0) the hull segments (jb, je), jb < je,
    peaking within a run at its last point below and first above. A float s
    keeps the loop off mixed int-float operations, which cost more."""
    dev = 0.0
    for jb, je in segments:
        max_t = 1.0
        pb = pos[jb]
        if pos[je] - pb > 1 and x[je] != x[jb]:
            xb = x[jb]
            c = (pos[je] - pb) / (x[je] - xb)
            for jj in range(jb, je + 1):
                t = s * ((pos[jj] - pb + s) - (x[jj] - xb) * c)
                if max_t < t:
                    max_t = t
        if dev < max_t:
            dev = max_t
    return dev


def _dip_sorted(values: Sequence[float], counts: Sequence[int]) -> float:
    """Dip of a sample given as ascending values and their counts.

    Equal neighbours are allowed and zero counts are skipped. Equals the dip
    of the expanded sorted sample bit for bit. Constant samples and n < 4 sit
    at the exact lower bound 1/(2n): every empirical CDF on at most three
    support points can be matched by a unimodal CDF to within 1/(2n) (direct
    construction), and no sample can do better. The GCM and the LCM come from
    one builder, ``_segment_ends``, run from either end, and the deviations
    below the GCM and above the LCM from one scan, ``_deviation``, given the
    side's sign.
    """
    # x[j] is a kept point's value and pos[j] its index in the expanded
    # sample: the first index of each run and, for runs longer than one, the
    # last. Every hull formula uses pos[j] where the expanded form uses j.
    x: list[float] = []
    pos: list[int] = []
    n = 0
    for v, c in zip(values, counts):
        if c:
            x.append(v)
            pos.append(n)
            if c > 1:
                x.append(v)
                pos.append(n + c - 1)
            n += c
    m = len(x)
    if n < 4 or x[0] == x[m - 1]:
        return 1.0 / (2 * n)

    # mn[j]: start of the GCM segment ending at j; mj[k]: end of the LCM
    # segment starting at k.
    mn = _segment_ends(x, pos, range(1, m), 0)
    mj = _segment_ends(x, pos, range(m - 2, -1, -1), m - 1)

    low, high = 0, m - 1
    dip2n = 0.0  # dip in units of 2n * sup-deviation
    for _ in range(m + 2):  # the interval shrinks; m + 2 passes is a safe cap
        # Collect GCM touch points from high down to low, LCM from low up.
        gcm = [high]
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        lcm = [low]
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        ig = l_gcm = len(gcm) - 1
        ih = l_lcm = len(lcm) - 1
        ix = l_gcm - 1
        iv = 1

        # Largest deviation between the two hulls inside [low, high].
        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    # LCM knot inside a GCM segment
                    gcmil = gcm[ix + 1]
                    dx = (pos[lcmiv] - pos[gcmil] + 1) - (x[lcmiv] - x[gcmil]) * (
                        pos[gcmix] - pos[gcmil]
                    ) / (x[gcmix] - x[gcmil])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    # GCM knot inside an LCM segment
                    lcmivl = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmivl]) * (pos[lcmiv] - pos[lcmivl]) / (
                        x[lcmiv] - x[lcmivl]
                    ) - (pos[gcmix] - pos[lcmivl] - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break

        if d < dip2n:
            break

        # Max deviation of the empirical CDF below the GCM on [gcm[ig], low]
        # and above the LCM on [high, lcm[ih]].
        dip2n = max(dip2n, _deviation(x, pos, zip(gcm[ig + 1 :], gcm[ig:]), 1.0))
        dip2n = max(dip2n, _deviation(x, pos, zip(lcm[ih:], lcm[ih + 1 :]), -1.0))
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]
    else:  # pragma: no cover - loop cap is unreachable for valid input
        raise RuntimeError("dip search failed to stabilize")

    return max(dip2n, 1.0) / (2 * n)


def _bin_to_right_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Map each value of an ascending, non-constant sample to the right edge
    of its equal-width bin between the sample's min and max, on the grid
    1..bins that the binned null uses.

    The dip is affine invariant, so this is the dip of the binned step CDF
    with all bin mass at the right edge, without the rounding that edges in
    data units would bring.
    """
    lo = values[0]
    idx = np.floor((values - lo) / (values[-1] - lo) * bins).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    return (idx + 1).astype(float)


def dip_statistic(a: Sequence[float], bins: int | None = None) -> float:
    """Dip statistic of a sample; ``bins=None`` uses the raw values.

    With ``bins=k`` the sample is first discretized onto k equal-width bins
    spanning [min, max] (mass at each bin's right edge, on the same grid
    1..k as the binned null), which is the form used for screening
    histogrammed response distributions.
    """
    n = len(a)
    if n < 4:
        raise InsufficientDataError(f"dip statistic needs at least 4 values, got {n}")
    values = np.asarray(a, dtype=float)
    values = np.sort(values)
    if bins is not None:
        if bins < 2:
            raise ParameterError(f"bins must be >= 2, got {bins}")
        if values[0] != values[-1]:
            values = _bin_to_right_edges(values, bins)
    distinct, counts = np.unique(values, return_counts=True)
    return _dip_sorted(distinct.tolist(), counts.tolist())


def _null_stream(n: int, replicas: int, seed: int, bins: int | None) -> Iterator[float]:
    """Dips of up to ``replicas`` uniform null samples of size n, binned like
    the statistic under test, in replica order, drawn as they are consumed.
    Replica i is the same for every ``replicas`` > i."""
    if bins is None:
        ones = [1] * n
        for i in range(replicas):
            sample = np.random.default_rng([seed, i]).random(n)
            sample.sort()
            yield _dip_sorted(sample.tolist(), ones)
    else:
        # bin k's right edge is k + 1, as in _bin_to_right_edges
        grid = [float(k) for k in range(1, bins + 1)]
        p = np.full(bins, 1.0 / bins)
        for start in range(0, replicas, _CHUNK):
            rng = np.random.default_rng([seed, start // _CHUNK])
            rows = rng.multinomial(n - 2, p, size=min(_CHUNK, replicas - start))
            rows[:, 0] += 1  # the sample minimum
            rows[:, -1] += 1  # the sample maximum
            for row in rows.tolist():
                yield _dip_sorted(grid, row)


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


def _sequential_null(
    n: int, alpha: float, cap: int, seed: int, bins: int | None, observed: np.ndarray
) -> np.ndarray:
    """The dips of ``_null_stream(n, cap, seed, bins)`` drawn up to the first
    look at which every observed dip is settled (see the module docstring),
    or all ``cap`` of them, sorted ascending; with no observed dips nothing
    settles."""
    looks = range(_LOOK, cap + _LOOK, _LOOK)  # the last look is capped at cap
    level = _EPSILON / (2 * len(looks))
    stream = _null_stream(n, cap, seed, bins)
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
    bins: int | None = None,
    observed: Sequence[float] = (),
) -> CriticalValue:
    """Empirical (1 - alpha) null quantile of the dip for sample size n.

    Simulates ``replicas`` uniform samples of size n with seeded RNG streams
    (see the module docstring), so the value is bit-identical for a given
    seed no matter how replicas are scheduled. ``bins`` should match the
    binning used for the statistic under test. The result is a float; its
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
    if bins is not None and bins < 2:
        raise ParameterError(f"bins must be >= 2, got {bins}")
    need = 24 * replicas + 32768
    if bins is not None:
        need += (16 * min(_CHUNK, replicas) + 48) * bins
    if need > _MAX_NULL_BYTES:
        raise ParameterError(
            f"a dip null of {replicas} replicas with bins={bins} needs "
            f"{need / 2**30:.2f} GiB; the limit is 1 GiB"
        )
    dips = _sequential_null(n, alpha, replicas, seed, bins, np.asarray(observed, dtype=float))
    return _null_quantile(dips, alpha)
