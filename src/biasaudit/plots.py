"""Standalone SVG plots for audit reports, plus the CSV series behind them.

No plotting library: the files are assembled from static markup so output
is byte-stable for identical inputs and versionable in review diffs. Two
plots per group pair: the p-value sweep (log scale, alpha line, shaded
significant regions) and the overlaid response histogram.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .data import _write_csv
from .report import AuditReport, _pcurve_rows
from .stats import _distinct

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


def _escape(text: str) -> str:
    """Text content for the markup; xml.sax.saxutils.escape would import
    urllib.request, which costs the CLI start-up time and memory."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


class _Svg:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
            f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" fill="#222222">{_escape(title)}</text>',
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
            f'font-family="sans-serif" font-size="{size}" fill="{fill}"{r}>{_escape(s)}</text>'
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


def _axes(svg: _Svg, lo: float, hi: float, to_x, y_ticks, x_label, y_label):
    """Both axes, with five evenly spaced x ticks from ``lo`` to ``hi``."""
    svg.line(_ML, _MT, _ML, _MT + _PLOT_H, "#222222")
    svg.line(_ML, _MT + _PLOT_H, _ML + _PLOT_W, _MT + _PLOT_H, "#222222")
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        px = to_x(v)
        svg.line(px, _MT + _PLOT_H, px, _MT + _PLOT_H + 4, "#222222")
        svg.text(px, _MT + _PLOT_H + 17, _tick_label(v), size=10)
    for py, label in y_ticks:
        svg.line(_ML - 4, py, _ML, py, "#222222")
        svg.line(_ML, py, _ML + _PLOT_W, py, "#eeeeee")
        svg.text(_ML - 8, py + 3.5, label, size=10, anchor="end")
    svg.text(_ML + _PLOT_W / 2, _H - 14, x_label, size=12)
    svg.text(18, _MT + _PLOT_H / 2, y_label, size=12, rotate=True)


def _m4(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Ascending indices of the vertices to draw of a polyline with
    non-decreasing ``x``: in each integer pixel column of x, the first, the
    last, the lowest-p and the highest-p vertex (M4 aggregation, Jugel et
    al., PVLDB 7, 2014). A column of at most four vertices keeps them all.
    The y map falls as p rises, so these are the highest-y and lowest-y
    vertices too."""
    col = np.floor(x)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    sizes = np.diff(np.r_[starts, len(x)])
    ends = starts + sizes - 1
    by_p = np.lexsort((p, col))  # column by column, p ascending within each
    few = np.flatnonzero(np.repeat(sizes <= 4, sizes))
    return _distinct(np.concatenate([starts, ends, by_p[starts], by_p[ends], few]))


def _pcurve_svg(grid, p_values, alpha, regions, title) -> str:
    """``grid`` and ``p_values`` are the curve's float64 arrays."""
    svg = _Svg(title)
    lo, hi = float(grid[0]), float(grid[-1])
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

    y_ticks = [(to_y(10.0**e), f"1e{e}" if e else "1") for e in range(0, -13, -3)]
    _axes(svg, lo, hi, to_x, y_ticks, "threshold", "one-sided p")

    ay = to_y(alpha)
    svg.line(_ML, ay, _ML + _PLOT_W, ay, "#c23b22", width=1.0, dash="5,4")
    svg.text(_ML + _PLOT_W - 4, ay - 5, f"alpha={alpha:g}", size=10, anchor="end",
             fill="#c23b22")

    # step-post: p holds from each grid value until the next
    xs = np.repeat(to_x(grid), 2)[1:]
    ps = np.repeat(p_values, 2)[:-1]
    keep = _m4(xs, ps)
    svg.polyline([(x, to_y(p)) for x, p in zip(xs[keep].tolist(), ps[keep].tolist())], _COLOR_A)
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

    step = max(1, int(math.ceil(max_count / 5)))
    y_ticks = [(to_y(c), str(c)) for c in range(0, max_count + 1, step)]
    _axes(svg, edges[0], edges[-1], to_x, y_ticks, "response", "count")

    # legend, top right
    lx = _ML + _PLOT_W - 150
    for i, (group, color) in enumerate([(pair.a, _COLOR_A), (pair.b, _COLOR_B)]):
        ly = _MT + 10 + i * 16
        svg.rect(lx, ly - 9, 11, 11, color, opacity=0.7)
        svg.text(lx + 16, ly, group, size=11, anchor="start")
    return svg.tostring()


def render_plots(report: AuditReport, out_dir: str | Path) -> list[Path]:
    """Write two SVG plots and two CSV series per group pair.

    Returns the written paths in deterministic order. The p-curve SVG draws
    at most four vertices per pixel column (M4: the first, the last, the
    lowest and the highest), which gives the same picture; its CSV holds
    every threshold at full precision, so it is the data to redraw from.
    The histogram CSV holds exactly the plotted numbers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (pa, texts) in enumerate(zip(report.pairs, report._series)):
        pair = pa.pair
        stem = f"{i:02d}_{_sanitize(pair.a)}_vs_{_sanitize(pair.b)}"
        # Python floats and ints from here on: the files are written with repr
        edges, counts = pa.hist_edges.tolist(), pa.hist_counts.tolist()

        pcurve_svg = out / f"pcurve_{stem}.svg"
        pcurve_svg.write_text(
            _pcurve_svg(
                pa.curve.grid,
                pa.curve.p_values,
                pa.curve.alpha,
                pa.regions,
                f"rejection-rate bias sweep: {pair.a} vs {pair.b}",
            ),
            encoding="utf-8",
        )
        pcurve_csv = out / f"pcurve_{stem}.csv"
        # one unnamed join, so no copy of the rows outlives the write
        pcurve_csv.write_bytes(b"".join([b"threshold,p_value\n", _pcurve_rows(texts), b"\n"]))

        hist_svg = out / f"hist_{stem}.svg"
        hist_svg.write_text(
            _hist_svg(pair, edges, counts, f"bona fide responses: {pair.a} vs {pair.b}"),
            encoding="utf-8",
        )
        hist_csv = out / f"hist_{stem}.csv"
        hist_rows = zip(map(repr, edges), map(repr, edges[1:]), *counts)
        _write_csv(hist_csv, ["bin_lo", "bin_hi", pair.a, pair.b], hist_rows)
        written.extend([pcurve_svg, pcurve_csv, hist_svg, hist_csv])
    return written
