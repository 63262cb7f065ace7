import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import _pcurve_oracle as oracle
from biasaudit.plots import _ML, _MT, _PLOT_H, _fmt, _pcurve_svg, render_plots
from biasaudit.report import AuditConfig, run_audit
from biasaudit.synth import demo_dataset

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def report():
    ds = demo_dataset(n_per_group=60, seed=5)
    return run_audit(ds, AuditConfig(dip_replicas=200))


@pytest.fixture(scope="module")
def plot_dir(report, tmp_path_factory):
    out = tmp_path_factory.mktemp("plots")
    paths = render_plots(report, out)
    return out, paths


class TestRenderPlots:
    def test_two_plots_and_two_csvs_per_pair(self, plot_dir):
        out, paths = plot_dir
        assert len(paths) == 6 * 4  # six pairs
        svgs = [p for p in paths if p.suffix == ".svg"]
        csvs = [p for p in paths if p.suffix == ".csv"]
        assert len(svgs) == 12
        assert len(csvs) == 12
        for p in paths:
            assert p.exists()
            assert p.parent == out

    def test_deterministic_names_in_pair_order(self, report, plot_dir):
        _, paths = plot_dir
        names = [p.name for p in paths]
        for i, pa in enumerate(report.pairs):
            stem = f"{i:02d}_{pa.pair.a}_vs_{pa.pair.b}"
            assert names[4 * i] == f"pcurve_{stem}.svg"
            assert names[4 * i + 1] == f"pcurve_{stem}.csv"
            assert names[4 * i + 2] == f"hist_{stem}.svg"
            assert names[4 * i + 3] == f"hist_{stem}.csv"

    def test_svgs_are_well_formed(self, plot_dir, make_dataset, tmp_path):
        _, paths = plot_dir
        # markup characters in group labels land escaped in titles and legends
        rng = np.random.default_rng(8)
        rows = [(g, "bonafide", v) for g in ("R&D", "<ops>") for v in rng.lognormal(-3, 0.4, 30)]
        odd = render_plots(run_audit(make_dataset(rows), AuditConfig(dip_replicas=50)), tmp_path)
        for p in paths + odd:
            if p.suffix != ".svg":
                continue
            root = ET.fromstring(p.read_text(encoding="utf-8"))
            assert root.tag == f"{SVG_NS}svg"
            assert root.find(f"{SVG_NS}polyline") is not None or (
                root.findall(f"{SVG_NS}rect")
            )
            if p in odd:
                text = " ".join(root.itertext())
                assert "<ops> vs R&D" in text

    def test_pcurve_csv_equals_sweep_arrays(self, report, plot_dir):
        out, _ = plot_dir
        for i, pa in enumerate(report.pairs):
            path = out / f"pcurve_{i:02d}_{pa.pair.a}_vs_{pa.pair.b}.csv"
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["threshold", "p_value"]
            assert len(rows) - 1 == len(pa.curve.grid)
            for row, t, p in zip(rows[1:], pa.curve.grid.tolist(), pa.curve.p_values.tolist()):
                # the shortest round-trip reprs: the plotted data, bit for
                # bit, in the same text as report.json
                assert row == [repr(t), repr(p)]

    def test_hist_csv_equals_histogram_series(self, report, plot_dir):
        out, _ = plot_dir
        for i, pa in enumerate(report.pairs):
            edges = pa.hist_edges.tolist()
            counts_a, counts_b = pa.hist_counts.tolist()
            path = out / f"hist_{i:02d}_{pa.pair.a}_vs_{pa.pair.b}.csv"
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["bin_lo", "bin_hi", pa.pair.a, pa.pair.b]
            assert len(rows) - 1 == len(edges) - 1 == 50
            for j, row in enumerate(rows[1:]):
                assert float(row[0]) == edges[j]
                assert float(row[1]) == edges[j + 1]
                assert int(row[2]) == counts_a[j]
                assert int(row[3]) == counts_b[j]

    def test_region_shading_carries_exact_bounds(self, report, plot_dir):
        out, _ = plot_dir
        checked = 0
        for i, pa in enumerate(report.pairs):
            path = out / f"pcurve_{i:02d}_{pa.pair.a}_vs_{pa.pair.b}.svg"
            root = ET.fromstring(path.read_text(encoding="utf-8"))
            shaded = [
                r for r in root.findall(f"{SVG_NS}rect") if "data-lo" in r.attrib
            ]
            assert len(shaded) == len(pa.regions)
            for rect, region in zip(shaded, pa.regions):
                assert float(rect.attrib["data-lo"]) == region.lo
                assert float(rect.attrib["data-hi"]) == region.hi
            checked += len(shaded)
        assert checked > 0  # the demo data produces significant regions

    def test_byte_identical_rerun(self, report, plot_dir, tmp_path):
        out, paths = plot_dir
        again = render_plots(report, tmp_path / "again")
        assert [p.name for p in again] == [p.name for p in paths]
        for a, b in zip(paths, again):
            assert a.read_bytes() == b.read_bytes()

    def test_creates_nested_directories(self, report, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        paths = render_plots(report, nested)
        assert nested.is_dir()
        assert all(p.exists() for p in paths)



def _polyline(svg_text):
    """The (x, y) strings of the one polyline in an SVG."""
    points = ET.fromstring(svg_text).find(f"{SVG_NS}polyline").attrib["points"]
    return [tuple(v.split(",")) for v in points.split()]


class TestPcurveM4:
    """The drawn p-curve against every vertex of the step-post loop it
    replaced (``_pcurve_oracle``), to the 0.01 that ``_fmt`` writes."""

    def test_each_column_keeps_its_first_last_lowest_and_highest(self, make_dataset, tmp_path):
        rng = np.random.default_rng(31)
        rows = [("a", "bonafide", v) for v in rng.lognormal(-3.6, 0.45, 3000)]
        rows += [("b", "bonafide", v) for v in rng.lognormal(-3.5, 0.45, 3000)]
        report = run_audit(make_dataset(rows), AuditConfig(dip_replicas=50))
        svg = render_plots(report, tmp_path)[0]
        drawn = _polyline(svg.read_text(encoding="utf-8"))
        curve = report.pairs[0].curve
        full = oracle.step_post_vertices(curve.grid.tolist(), curve.p_values.tolist())
        assert len(drawn) <= 4 * 611 < len(full)
        xs = [float(x) for x, _ in drawn]
        assert xs == sorted(xs)

        # the drawn vertices are oracle vertices in their order: match each
        # to the next oracle vertex that prints the same, which gives its column
        printed = [(_fmt(x), _fmt(y)) for x, y in full]
        matched, j = [], 0
        for v in drawn:
            j = printed.index(v, j)
            matched.append(j)
            j += 1
        columns = {}
        for i, (x, _) in enumerate(full):
            columns.setdefault(math.floor(x), []).append(i)
        kept = {}
        for i in matched:
            kept.setdefault(math.floor(full[i][0]), []).append(i)
        assert kept.keys() == columns.keys()
        for col, every in columns.items():
            got = kept[col]
            assert printed[got[0]] == printed[every[0]]
            assert printed[got[-1]] == printed[every[-1]]
            for pick in (min, max):
                assert _fmt(pick(full[i][1] for i in got)) == _fmt(pick(full[i][1] for i in every))

    def test_columns_of_at_most_four_vertices_keep_them_all(self):
        rng = np.random.default_rng(32)
        grid = np.linspace(0.0, 1.0, 1000)  # 0.59 px apart: 1 or 2 thresholds a column
        p_values = np.sort(rng.random(1000)) ** 8
        full = oracle.step_post_vertices(grid.tolist(), p_values.tolist())
        per_column = np.unique(np.floor([x for x, _ in full]), return_counts=True)[1]
        assert per_column.max() == 4
        drawn = _polyline(_pcurve_svg(grid, p_values, 0.05, (), "all kept"))
        assert drawn == [(_fmt(x), _fmt(y)) for x, y in full]

    def test_one_point_curve_draws_at_the_left_edge(self):
        # a one-point grid spans no width; _x_mapper maps it to the axis
        drawn = _polyline(_pcurve_svg(np.array([0.3]), np.array([0.01]), 0.05, (), "one point"))
        # p = 0.01 is 2 of the 12 decades of the log axis down from p = 1
        assert drawn == [(_fmt(_ML), _fmt(_MT + 2 / 12 * _PLOT_H))]
