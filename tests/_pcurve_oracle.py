"""The p-curve polyline as it was drawn before M4 aggregation: every vertex
of the step-post curve, two per sweep threshold, built one threshold at a
time. The loop is kept as it was, with the plot's x and y maps written out
beside it; it is the reference whose per-column first, last, lowest and
highest vertices the drawn polyline must keep. Not used by the package."""
from __future__ import annotations

import math

from biasaudit.plots import _ML, _MT, _P_FLOOR, _PLOT_H, _PLOT_W


def step_post_vertices(grid: list[float], p_values: list[float]) -> list[tuple[float, float]]:
    """Every (x, y) pixel vertex of the step curve: p holds from each grid
    value until the next."""
    lo, hi = grid[0], grid[-1]
    span = hi - lo
    if span <= 0:
        span = 1.0

    def to_x(v: float) -> float:
        return _ML + (v - lo) / span * _PLOT_W

    def to_y(p: float) -> float:
        lg = math.log10(max(p, _P_FLOOR))
        return _MT + (0.0 - lg) / 12.0 * _PLOT_H  # log10 range [-12, 0]

    pts = []
    for i, (t, p) in enumerate(zip(grid, p_values)):
        x, y = to_x(t), to_y(p)
        if i:
            pts.append((x, pts[-1][1]))
        pts.append((x, y))
    return pts
