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

Given the dips under test (``observed``), the null is sequential (Besag &
Clifford 1991; Gandy 2009) and ``replicas`` is a cap: replicas are drawn from
the same streams in looks of 64, and drawing stops at the first look where
every observed dip d is settled. With e = #{null dips > d} among the r drawn,
d is settled when e lies in either tail of Binomial(r, alpha) at level
eps / (2 L), eps = 1e-3 and L the number of looks up to the cap. Whatever d's
true p-value (other than alpha itself), the chance that a look settles d on
the wrong side of alpha is at most eps / (2 L), so over all looks a stop gives
a verdict other than the infinite-replica one with probability at most eps.
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

__all__ = ["CriticalValue", "DipResult", "dip_statistic", "dip_critical_value"]

_CHUNK = 1024  # binned null replicas per RNG stream
_LOOK = 64  # replicas per look of the sequential null
_EPSILON = 1e-3  # bound on the chance that a stopped test flips a verdict

# dip_critical_value refuses a null whose working set exceeds this: 8 bytes
# per float64 replica dip and, when binned, 16 bytes per entry of one
# min(_CHUNK, replicas) x bins chunk of counts (8 in the int64 array, 8 for
# the entry's slot in its tolist() copy)
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


def _dip_sorted(values: Sequence[float], counts: Sequence[int]) -> float:
    """Dip of a sample given as ascending values and their counts.

    Equal neighbours are allowed and zero counts are skipped. Equals the dip
    of the expanded sorted sample bit for bit. Constant samples and n < 4 sit
    at the exact lower bound 1/(2n): every empirical CDF on at most three
    support points can be matched by a unimodal CDF to within 1/(2n) (direct
    construction), and no sample can do better.
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

    # mn[j]: start of the GCM segment ending at j. rise[k] and run[k] are
    # the value and index steps of k's own segment, kept for the hull test.
    # Within a run of equal values every point links to the run's first, so
    # a zero rise marks a point that the test would pop at once: it is
    # skipped in one hop, and the hull walk runs over first-of-run points.
    mn = [0] * m
    rise = [0.0] * m
    run = [0] * m
    for j in range(1, m):
        xj = x[j]
        pj = pos[j]
        k = j - 1
        if rise[k] == 0.0:
            k = mn[k]
        if x[k] != xj:
            while k and (xj - x[k]) * run[k] >= rise[k] * (pj - pos[k]):
                k = mn[k]
        mn[j] = k
        rise[j] = xj - x[k]
        run[j] = pj - pos[k]

    # mj[k]: end of the LCM segment starting at k; the mirror image, over
    # last-of-run points. rise and run are reused for k's segment; the last
    # point maps to itself, so its stale rise is harmless.
    mj = [m - 1] * m
    for k in range(m - 2, -1, -1):
        xk = x[k]
        pk = pos[k]
        j = k + 1
        if rise[j] == 0.0:
            j = mj[j]
        if x[j] != xk:
            while j != m - 1 and (xk - x[j]) * run[j] >= rise[j] * (pk - pos[j]):
                j = mj[j]
        mj[k] = j
        rise[k] = xk - x[j]
        run[k] = pk - pos[j]

    low, high = 0, m - 1
    dip2n = 0.0  # dip in units of 2n * sup-deviation
    gcm = [0] * (m + 1)
    lcm = [0] * (m + 1)

    for _ in range(m + 2):  # the interval shrinks; m + 2 passes is a safe cap
        # Collect GCM touch points from high down to low, LCM from low up.
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = l_gcm = i
        ix = i - 1

        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = l_lcm = i
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
        # (within a run it peaks at the run's last point)...
        dip_l = 0.0
        for j in range(ig, l_gcm):
            max_t = 1.0
            jb = gcm[j + 1]
            je = gcm[j]
            pb = pos[jb]
            if pos[je] - pb > 1 and x[je] != x[jb]:
                xb = x[jb]
                c = (pos[je] - pb) / (x[je] - xb)
                for jj in range(jb, je + 1):
                    t = (pos[jj] - pb + 1) - (x[jj] - xb) * c
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t

        # ...and above the LCM on [high, lcm[ih]] (peaking at a run's first).
        dip_u = 0.0
        for j in range(ih, l_lcm):
            max_t = 1.0
            jb = lcm[j]
            je = lcm[j + 1]
            pb = pos[jb]
            if pos[je] - pb > 1 and x[je] != x[jb]:
                xb = x[jb]
                c = (pos[je] - pb) / (x[je] - xb)
                for jj in range(jb, je + 1):
                    t = (x[jj] - xb) * c - (pos[jj] - pb - 1)
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        dip_new = dip_u if dip_u > dip_l else dip_l
        if dip2n < dip_new:
            dip2n = dip_new
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


def _dip_null(n: int, replicas: int, seed: int, bins: int | None) -> np.ndarray:
    """All ``replicas`` dips of ``_null_stream``, as an array."""
    return np.fromiter(_null_stream(n, replicas, seed, bins), float, count=replicas)


def _binomial_tails(r: int, alpha: float, level: float) -> tuple[int, int]:
    """(lo, hi): the counts e <= lo are the lower tail of Binomial(r, alpha)
    at ``level`` (P(X <= e) <= level) and e >= hi the upper one; lo is -1 and
    hi is r + 1 when a tail is empty. The pmf comes from a cumulative sum of
    the log ratios pmf(k + 1) / pmf(k)."""
    k = np.arange(r)
    log_pmf = np.empty(r + 1)
    log_pmf[0] = r * math.log1p(-alpha)
    steps = np.log((r - k) / (k + 1)) + math.log(alpha / (1.0 - alpha))
    log_pmf[1:] = log_pmf[0] + np.cumsum(steps)
    pmf = np.exp(log_pmf)
    below = np.cumsum(pmf)  # P(X <= e), nondecreasing
    above = np.cumsum(pmf[::-1])  # P(X >= r - j), nondecreasing in j
    lo = int(np.searchsorted(below, level, side="right")) - 1
    hi = r + 1 - int(np.searchsorted(above, level, side="right"))
    return lo, hi


def _sequential_null(
    n: int, alpha: float, cap: int, seed: int, bins: int | None, observed: np.ndarray
) -> np.ndarray:
    """The prefix of ``_dip_null(n, cap, seed, bins)`` drawn up to the first
    look at which every observed dip is settled (see the module docstring),
    or all of it."""
    looks = [*range(_LOOK, cap, _LOOK), cap]
    level = _EPSILON / (2 * len(looks))
    stream = _null_stream(n, cap, seed, bins)
    dips = np.empty(cap)
    exceed = np.zeros(len(observed), dtype=np.int64)  # null dips > each observed
    r = 0
    for stop in looks:
        dips[r:stop] = np.fromiter(islice(stream, stop - r), float, count=stop - r)
        exceed += np.count_nonzero(dips[r:stop, None] > observed, axis=0)
        r = stop
        if r < cap:
            lo, hi = _binomial_tails(r, alpha, level)
            if np.all((exceed <= lo) | (exceed >= hi)):
                break
    return dips[:r]


def _null_quantile(dips: np.ndarray, alpha: float) -> CriticalValue:
    """Conservative (1 - alpha) order statistic of the null dips: the
    smallest dip with at least (1 - alpha) of the null mass at or below it."""
    dips = np.sort(dips)
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
    need = 8 * replicas + (0 if bins is None else 16 * min(_CHUNK, replicas) * bins)
    if need > _MAX_NULL_BYTES:
        raise ParameterError(
            f"a dip null of {replicas} replicas with bins={bins} needs "
            f"{need / 2**30:.2f} GiB; the limit is 1 GiB"
        )
    if len(observed):
        dips = _sequential_null(n, alpha, replicas, seed, bins, np.asarray(observed, dtype=float))
    else:
        dips = _dip_null(n, replicas, seed, bins)
    return _null_quantile(dips, alpha)
