"""Standalone SVG plots for audit reports, plus the CSV series behind them.

No plotting library: the files are assembled from static markup so output
is byte-stable for identical inputs and versionable in review diffs. Two
plots per group pair: the p-value sweep (log scale, alpha line, shaded
significant regions) and the overlaid response histogram.
"""
from __future__ import annotations

import csv
import math
import re
from pathlib import Path

from .report import AuditReport

__all__ = ["render_plots"]

_W, _H = 680, 420
_ML, _MR, _MT, _MB = 70, 18, 40, 52
_PLOT_W = _W - _ML - _MR
_PLOT_H = _H - _MT - _MB

_COLOR_A = "#3a6ea5"
_COLOR_B = "#c23b22"
_REGION_FILL = "#f4c542"
_P_FLOOR = 1e-12  # log-scale display floor for p-values


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


class _Svg:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
            f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" fill="#222222">{title}</text>',
        ]

    def rect(self, x, y, w, h, fill, opacity=None, extra=""):
        op = f' fill-opacity="{opacity}"' if opacity is not None else ""
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"{op}{extra}/>'
        )

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def polyline(self, pts, stroke, width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def text(self, x, y, s, size=11, anchor="middle", fill="#444444", rotate=None):
        r = (
            f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
        )
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}" fill="{fill}"{r}>{s}</text>'
        )

    def tostring(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _x_mapper(lo: float, hi: float):
    span = hi - lo
    if span <= 0:
        span = 1.0

    def to_px(v: float) -> float:
        return _ML + (v - lo) / span * _PLOT_W

    return to_px


def _axes(svg: _Svg, x_ticks, y_ticks, x_label, y_label):
    svg.line(_ML, _MT, _ML, _MT + _PLOT_H, "#222222")
    svg.line(_ML, _MT + _PLOT_H, _ML + _PLOT_W, _MT + _PLOT_H, "#222222")
    for px, label in x_ticks:
        svg.line(px, _MT + _PLOT_H, px, _MT + _PLOT_H + 4, "#222222")
        svg.text(px, _MT + _PLOT_H + 17, label, size=10)
    for py, label in y_ticks:
        svg.line(_ML - 4, py, _ML, py, "#222222")
        svg.line(_ML, py, _ML + _PLOT_W, py, "#eeeeee")
        svg.text(_ML - 8, py + 3.5, label, size=10, anchor="end")
    svg.text(_ML + _PLOT_W / 2, _H - 14, x_label, size=12)
    svg.text(18, _MT + _PLOT_H / 2, y_label, size=12, rotate=True)


def _pcurve_svg(grid, p_values, alpha, regions, title) -> str:
    svg = _Svg(title)
    lo, hi = grid[0], grid[-1]
    to_x = _x_mapper(lo, hi)

    def to_y(p: float) -> float:
        lg = math.log10(max(p, _P_FLOOR))
        return _MT + (0.0 - lg) / 12.0 * _PLOT_H  # log10 range [-12, 0]

    # shaded significant regions first, under everything else
    for r in regions:
        x0, x1 = to_x(r.lo), to_x(r.hi)
        w = max(x1 - x0, 1.5)  # single-point regions stay visible
        svg.rect(
            x0,
            _MT,
            w,
            _PLOT_H,
            _REGION_FILL,
            opacity=0.35,
            extra=f' data-lo="{r.lo!r}" data-hi="{r.hi!r}"',
        )

    x_ticks = []
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        x_ticks.append((to_x(v), _tick_label(v)))
    y_ticks = [(to_y(10.0**e), f"1e{e}" if e else "1") for e in range(0, -13, -3)]
    _axes(svg, x_ticks, y_ticks, "threshold", "one-sided p")

    ay = to_y(alpha)
    svg.line(_ML, ay, _ML + _PLOT_W, ay, "#c23b22", width=1.0, dash="5,4")
    svg.text(_ML + _PLOT_W - 4, ay - 5, f"alpha={alpha:g}", size=10, anchor="end",
             fill="#c23b22")

    # step-post: p holds from each grid value until the next
    pts = []
    for i, (t, p) in enumerate(zip(grid, p_values)):
        x, y = to_x(t), to_y(p)
        if i:
            pts.append((x, pts[-1][1]))
        pts.append((x, y))
    svg.polyline(pts, _COLOR_A)
    return svg.tostring()


def _hist_svg(pair, edges, counts, title) -> str:
    """``counts`` holds group a's bin counts, then group b's."""
    svg = _Svg(title)
    to_x = _x_mapper(edges[0], edges[-1])
    max_count = max(1, *(max(c) for c in counts))

    def to_y(c: float) -> float:
        return _MT + _PLOT_H - c / max_count * _PLOT_H

    for series, color in zip(counts, (_COLOR_A, _COLOR_B)):
        for i, c in enumerate(series):
            if c == 0:
                continue
            x0, x1 = to_x(edges[i]), to_x(edges[i + 1])
            y = to_y(c)
            svg.rect(x0, y, x1 - x0, _MT + _PLOT_H - y, color, opacity=0.55)

    x_ticks = []
    for i in range(5):
        v = edges[0] + (edges[-1] - edges[0]) * i / 4
        x_ticks.append((to_x(v), _tick_label(v)))
    step = max(1, int(math.ceil(max_count / 5)))
    y_ticks = [(to_y(c), str(c)) for c in range(0, max_count + 1, step)]
    _axes(svg, x_ticks, y_ticks, "response", "count")

    # legend, top right
    lx = _ML + _PLOT_W - 150
    for i, (group, color) in enumerate([(pair.a, _COLOR_A), (pair.b, _COLOR_B)]):
        ly = _MT + 10 + i * 16
        svg.rect(lx, ly - 9, 11, 11, color, opacity=0.7)
        svg.text(lx + 16, ly, group, size=11, anchor="start")
    return svg.tostring()


def render_plots(report: AuditReport, out_dir: str | Path) -> list[Path]:
    """Write two SVG plots and two CSV series per group pair.

    Returns the written paths in deterministic order. CSVs contain exactly
    the plotted numbers (full precision), so the plots can be redrawn from
    them without loss.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, pa in enumerate(report.pairs):
        pair = pa.pair
        stem = f"{i:02d}_{_sanitize(pair.a)}_vs_{_sanitize(pair.b)}"
        # Python floats and ints from here on: the files are written with repr
        grid, p_values = pa.curve.grid.tolist(), pa.curve.p_values.tolist()
        edges, counts = pa.hist_edges.tolist(), pa.hist_counts.tolist()

        pcurve_svg = out / f"pcurve_{stem}.svg"
        pcurve_svg.write_text(
            _pcurve_svg(
                grid,
                p_values,
                pa.curve.alpha,
                pa.regions,
                f"rejection-rate bias sweep: {pair.a} vs {pair.b}",
            ),
            encoding="utf-8",
        )
        pcurve_csv = out / f"pcurve_{stem}.csv"
        with pcurve_csv.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["threshold", "p_value"])
            writer.writerows(zip(map(repr, grid), map(repr, p_values)))

        hist_svg = out / f"hist_{stem}.svg"
        hist_svg.write_text(
            _hist_svg(pair, edges, counts, f"bona fide responses: {pair.a} vs {pair.b}"),
            encoding="utf-8",
        )
        hist_csv = out / f"hist_{stem}.csv"
        with hist_csv.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["bin_lo", "bin_hi", pair.a, pair.b])
            writer.writerows(zip(map(repr, edges), map(repr, edges[1:]), *counts))
        written.extend([pcurve_svg, pcurve_csv, hist_svg, hist_csv])
    return written
