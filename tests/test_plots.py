import csv
import xml.etree.ElementTree as ET

import pytest

from biasaudit.plots import render_plots
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

    def test_svgs_are_well_formed(self, plot_dir):
        _, paths = plot_dir
        for p in paths:
            if p.suffix != ".svg":
                continue
            root = ET.fromstring(p.read_text(encoding="utf-8"))
            assert root.tag == f"{SVG_NS}svg"
            assert root.find(f"{SVG_NS}polyline") is not None or (
                root.findall(f"{SVG_NS}rect")
            )

    def test_pcurve_csv_equals_sweep_arrays(self, report, plot_dir):
        out, _ = plot_dir
        for i, pa in enumerate(report.pairs):
            path = out / f"pcurve_{i:02d}_{pa.pair.a}_vs_{pa.pair.b}.csv"
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["threshold", "p_value"]
            assert len(rows) - 1 == len(pa.curve.grid)
            for row, t, p in zip(rows[1:], pa.curve.grid.tolist(), pa.curve.p_values.tolist()):
                # repr round-trip: the CSV is the plotted data, bit for bit
                assert float(row[0]) == t
                assert float(row[1]) == p

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
