"""The dip kernel as first written: one point per sample, its prefix and
suffix hulls built by stack scans, O(n) per call. Kept verbatim as the
reference that the kernel in ``biasaudit.dip`` must match bit for bit; not
used by the package."""
from __future__ import annotations

from typing import Sequence


def _dip_sorted(x: Sequence[float]) -> float:
    """Dip of an ascending-sorted sample. Handles n >= 2.

    Constant samples and n < 4 sit at the exact lower bound 1/(2n): every
    empirical CDF on at most three support points can be matched by a
    unimodal CDF to within 1/(2n) (direct construction), and no sample can
    do better.
    """
    n = len(x)
    if n < 4 or x[0] == x[n - 1]:
        return 1.0 / (2 * n)

    # mn[j]: start index of the GCM segment ending at j, over the full sample.
    mn = [0] * n
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            if mnj == 0:
                break
            mnmnj = mn[mnj]
            if (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj

    # mj[k]: end index of the LCM segment starting at k.
    mj = [n - 1] * n
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            if mjk == n - 1:
                break
            mjmjk = mj[mjk]
            if (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    low, high = 0, n - 1
    dip2n = 0.0  # dip in units of 2n * sup-deviation
    gcm = [0] * (n + 1)
    lcm = [0] * (n + 1)

    for _ in range(n + 2):  # the interval shrinks; n + 2 passes is a safe cap
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
                    dx = (lcmiv - gcmil + 1) - (x[lcmiv] - x[gcmil]) * (
                        gcmix - gcmil
                    ) / (x[gcmix] - x[gcmil])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    # GCM knot inside an LCM segment
                    lcmivl = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmivl]) * (lcmiv - lcmivl) / (
                        x[lcmiv] - x[lcmivl]
                    ) - (gcmix - lcmivl - 1)
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

        # Max deviation of the empirical CDF below the GCM on [gcm[ig], low]...
        dip_l = 0.0
        for j in range(ig, l_gcm):
            max_t = 1.0
            jb = gcm[j + 1]
            je = gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * c
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t

        # ...and above the LCM on [high, lcm[ih]].
        dip_u = 0.0
        for j in range(ih, l_lcm):
            max_t = 1.0
            jb = lcm[j]
            je = lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * c - (jj - jb - 1)
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
