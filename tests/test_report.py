import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import biasaudit.dip as dip_module
import biasaudit.report as report_module
import biasaudit.svm as svm_module
from biasaudit.cli import main
from biasaudit.data import CodeMatrix, Dataset, load_codes_csv, load_csv
from biasaudit.errors import InsufficientDataError, ParameterError
from biasaudit.plots import render_plots
from biasaudit.report import _SERIES_SEP, AuditConfig, render_json, run_audit
from biasaudit.svm import FeatureMode
from biasaudit.synth import demo_dataset, gen_code_vectors

FAST = dict(dip_replicas=200)


@pytest.fixture(scope="module")
def demo():
    return demo_dataset(n_per_group=60, seed=5)


@pytest.fixture(scope="module")
def demo_codes():
    parts = [
        gen_code_vectors(30, d=8, k=64, separability=0.9, seed=404, groups=("alpha", "beta")),
        gen_code_vectors(30, d=8, k=64, separability=0.0, seed=405, groups=("delta", "gamma")),
    ]
    return CodeMatrix(
        np.vstack([p.codes for p in parts]), [g for p in parts for g in p.labels()], 64
    )


@pytest.fixture(scope="module")
def report(demo):
    return run_audit(demo, AuditConfig(**FAST))


@pytest.fixture(scope="module")
def report_dict(report):
    return json.loads(render_json(report))


class TestAuditConfig:
    def test_defaults_valid(self):
        cfg = AuditConfig()
        assert cfg.alpha == 0.05

    def test_gamma_echoed_as_auto(self):
        assert AuditConfig().to_dict()["svm_gamma"] == "auto"
        assert AuditConfig(svm_gamma=0.5).to_dict()["svm_gamma"] == 0.5

    def test_feature_mode_echoed_as_string(self):
        d = AuditConfig(feature_mode=FeatureMode.CODE_HISTOGRAM).to_dict()
        assert d["feature_mode"] == "code-histogram"

    def test_validation(self):
        with pytest.raises(ParameterError):
            AuditConfig(alpha=0.0)
        with pytest.raises(ParameterError):
            AuditConfig(quantiles=())
        with pytest.raises(ParameterError):
            AuditConfig(quantiles=(0.1, 1.5))
        with pytest.raises(ParameterError):
            AuditConfig(quantiles=(0.1, 0.10, 0.2))  # two "q=0.1" anchors
        with pytest.raises(ParameterError, match="duplicate anchor labels: q=0, q=0"):
            AuditConfig(quantiles=(0.0, -0.0))  # one anchor, given with both signs
        with pytest.raises(ParameterError):
            AuditConfig(dip_replicas=0)
        with pytest.raises(ParameterError):
            AuditConfig(seed=-1)
        with pytest.raises(ParameterError):
            AuditConfig(svm_c=0.0)
        with pytest.raises(ParameterError):
            AuditConfig(svm_gamma=0.0)
        with pytest.raises(ParameterError, match="svm_c must be finite, got inf"):
            AuditConfig(svm_c=math.inf)
        with pytest.raises(ParameterError, match="svm_gamma must be finite, got inf"):
            AuditConfig(svm_gamma=math.inf)
        with pytest.raises(ParameterError):
            AuditConfig(svm_folds=1)

    def test_negative_zero_quantile_stored_as_zero(self, demo):
        # -0.0 is stored as 0.0, beside its label q=0; any other value stays
        # as given, an int too
        cfg = AuditConfig(quantiles=(-0.0, 0.5), **FAST)
        assert [math.copysign(1.0, q) for q in cfg.quantiles] == [1.0, 1.0]
        assert [type(q) for q in AuditConfig(quantiles=(0, 1)).quantiles] == [int, int]
        out = render_json(run_audit(demo, cfg))
        assert b'"quantiles": [\n      0.0,\n      0.5\n    ]' in out
        assert b'"quantile": 0.0' in out and b"-0.0" not in out

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dip_replicas", 100.5),
            ("dip_replicas", True),
            ("seed", True),
            ("seed", 7.0),
            ("svm_folds", 2.5),
        ],
    )
    def test_int_fields_refuse_floats_and_bools(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an int, got {value!r}"):
            AuditConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("svm_c", True, "svm_c must be a float, got True"),
            ("svm_gamma", True, "svm_gamma must be a float, got True"),
            ("alpha", "0.05", "alpha must be a float, got '0.05'"),
            ("quantiles", (True,), r"quantiles must be a tuple of floats, got \(True,\)"),
            ("quantiles", 0.1, "quantiles must be a tuple of floats, got 0.1"),
            (
                "feature_mode",
                "scaled-indices",
                "feature_mode must be a FeatureMode, got 'scaled-indices'",
            ),
        ],
    )
    def test_other_fields_refuse_wrong_types(self, field, value, message):
        # report.json echoes the config, so a value of the wrong type is
        # refused before it could be written there
        with pytest.raises(ParameterError, match=message):
            AuditConfig(**{field: value})


class TestReportStructure:
    def test_groups_and_counts(self, report, demo):
        assert report.groups == ("alpha", "beta", "delta", "gamma")
        assert report.n_bona_fide == 4 * 60
        assert report.n_attack == 4 * 60
        assert len(report.pairs) == 6

    def test_pair_sections_cover_all_pairs(self, report_dict):
        keys = sorted(report_dict["chi_squared"])
        assert keys == [
            "alpha|beta",
            "alpha|delta",
            "alpha|gamma",
            "beta|delta",
            "beta|gamma",
            "delta|gamma",
        ]
        assert sorted(report_dict["mann_whitney"]) == keys
        for key, mwu in report_dict["mann_whitney"].items():
            assert mwu["direction"] in key.split("|")
        assert sorted(report_dict["bias_sweeps"]) == keys

    def test_anchor_labels(self, report_dict):
        labels = [a["label"] for a in report_dict["anchor_thresholds"]]
        assert labels == ["q=0.01", "q=0.02", "q=0.05", "q=0.1", "q=0.2", "eer"]
        kinds = {a["label"]: a["kind"] for a in report_dict["anchor_thresholds"]}
        assert kinds["eer"] == "eer"
        assert kinds["q=0.05"] == "quantile"
        # every anchor is tested for every pair
        for section in report_dict["chi_squared"].values():
            assert sorted(section) == sorted(labels)

    def test_per_group_sections(self, report_dict):
        per_group = report_dict["per_group"]
        assert sorted(per_group) == ["alpha", "beta", "delta", "gamma"]
        for g, entry in per_group.items():
            assert entry["summary"]["n"] == 60
            dip = entry["dip_test"]
            assert dip["unimodal"] == (dip["dip"] < dip["critical_value"])
            # the null stops once every verdict is settled: at a look of 64
            # replicas, or at the cap
            assert 1 <= dip["replicas"] <= 200
            assert dip["replicas"] % 64 == 0 or dip["replicas"] == 200
            assert 0.0 <= dip["critical_value_se"] < dip["critical_value"]

    def test_operating_points(self, report_dict):
        ops = report_dict["operating_points"]
        eer = ops["eer"]
        assert eer["hter"] == pytest.approx((eer["far"] + eer["frr"]) / 2, abs=1e-15)
        assert sorted(ops["per_group_hter"]) == ["alpha", "beta", "delta", "gamma"]

    def test_sweeps_carry_aligned_arrays(self, report_dict):
        for sweep in report_dict["bias_sweeps"].values():
            assert len(sweep["grid"]) == len(sweep["p_values"])
            assert sweep["grid"] == sorted(sweep["grid"])
            for r in sweep["regions"]:
                assert r["lo"] <= r["hi"]
                assert 0.0 <= r["min_p"] < sweep["alpha"]

    def test_location_shift_pair_flagged(self, report):
        # beta is the location-shifted group; its pair with alpha must light up
        for pa in report.pairs:
            if pa.pair.key == "alpha|beta":
                assert pa.mann_whitney.p_value < 0.01
                assert pa.mann_whitney.direction == "beta"  # a group, not "a"/"b"
                assert pa.regions
                assert any(r.worse_group == "beta" for r in pa.regions)

    def test_histograms_back_the_pairs(self, report):
        for pa in report.pairs:
            assert pa.hist_edges.shape == (50 + 1,)
            assert pa.hist_counts.shape == (2, 50)  # rows: group a, group b
            assert pa.hist_counts.sum(axis=1).tolist() == [60, 60]

    def test_svm_section_absent_without_codes(self, report, report_dict):
        assert report.svm_auc is None
        assert "svm_auc" not in report_dict

    def test_readme_report_layout_names_every_section(self, demo, demo_codes):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        layout = readme.split("\n### Report layout\n", 1)[1].split("\n## ", 1)[0]
        d = run_audit(demo, AuditConfig(**FAST), codes=demo_codes).to_dict()
        assert {"operating_points", "svm_auc"} <= d.keys()
        sweep = next(iter(d["bias_sweeps"].values()))
        anchor = d["anchor_thresholds"][0]
        # a key is named alone, `key`, or as the head of a path, `key.sub`
        for key in [*d, *sweep, *d["record_counts"], *anchor]:
            assert re.search(rf"`{re.escape(key)}[`.]", layout), key


class TestReportDeterminism:
    def test_rerun_is_byte_identical(self, demo, report):
        again = run_audit(demo, AuditConfig(**FAST))
        assert render_json(again) == render_json(report)

    def test_sequential_null_rerun_is_byte_identical(self):
        # the README demo at the default cap, which its dip null stops before
        readme_demo = demo_dataset(n_per_group=200, seed=7)
        first = run_audit(readme_demo)
        (replicas,) = {r.replicas for r in first.per_group_dip.values()}  # one size, one null
        assert replicas < AuditConfig().dip_replicas
        assert render_json(run_audit(readme_demo)) == render_json(first)

    def test_readme_demo_reads_only_the_mixture_bimodal(self):
        # gamma is a unimodal lognormal with twice the log-scale spread and
        # delta a two-component mixture; the dip tests the raw responses
        report = run_audit(demo_dataset(n_per_group=200, seed=7))
        verdicts = {g: r.unimodal for g, r in report.per_group_dip.items()}
        assert verdicts == {"alpha": True, "beta": True, "delta": False, "gamma": True}

    def test_groups_of_one_size_share_one_null(self, monkeypatch):
        # a stub around the null stream records each draw
        streams, calls = [], []
        real_stream, real_cv = dip_module._null_stream, report_module.dip_critical_value

        def stream(n, replicas, seed):
            streams.append(n)
            return real_stream(n, replicas, seed)

        def critical_value(n, *args, observed=(), **kwargs):
            cv = real_cv(n, *args, observed=observed, **kwargs)
            calls.append((n, len(observed), cv.replicas))
            return cv

        monkeypatch.setattr(dip_module, "_null_stream", stream)
        monkeypatch.setattr(report_module, "dip_critical_value", critical_value)
        rng = np.random.default_rng(31)
        sizes = {"a": 60, "b": 40, "c": 60, "d": 60}
        groups = [g for g, n in sizes.items() for _ in range(n)]
        ds = Dataset(
            [f"s{i}" for i in range(len(groups))],
            groups,
            [True] * len(groups),
            rng.lognormal(size=len(groups)),
        )
        report = run_audit(ds, AuditConfig(dip_replicas=500))
        assert sorted(streams) == [40, 60]
        assert sorted(calls)[0][:2] == (40, 1) and sorted(calls)[1][:2] == (60, 3)
        drawn = {n: r for n, _, r in calls}
        for g, n in sizes.items():
            assert report.per_group_dip[g].replicas == drawn[n]

    def test_row_permutation_is_byte_identical(self, demo, report):
        # strictly positive, so no 0.0/-0.0 ties whose order the input decides
        assert demo.responses.min() > 0.0
        want = render_json(report)
        rng = np.random.default_rng(2718)
        groups = demo.groups()
        for _ in range(3):
            p = rng.permutation(len(demo))
            shuffled = Dataset(
                [demo.sample_ids[i] for i in p],
                [groups[c] for c in demo.group_codes[p]],
                demo.bona_fide[p],
                demo.responses[p],
            )
            assert render_json(run_audit(shuffled, AuditConfig(**FAST))) == want

    def test_render_round_trips(self, report):
        blob = render_json(report)
        assert blob.endswith(b"\n")
        assert json.loads(blob) == report.to_dict()


def _readme_demo(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--n-per-group", "200", "--seed", "7"]) == 0
    codes = load_codes_csv(tmp_path / "codes.csv")
    return run_audit(load_csv(tmp_path / "responses.csv"), AuditConfig(**FAST), codes)


def _odd_labels(_):
    labels = [g for g in ('a"b', "back\\slash", "Zoë", "R&D") for _ in range(30)]
    n = len(labels)
    responses = np.random.default_rng(77).lognormal(-3, 0.4, n)
    ds = Dataset([f"s{i}" for i in range(n)], labels, [True] * n, responses)
    return run_audit(ds, AuditConfig(**FAST))


REPORTS = {
    "readme-demo-with-codes": _readme_demo,
    "no-attacks": lambda _: run_audit(
        demo_dataset(n_per_group=40, seed=6, with_attacks=False), AuditConfig(**FAST)
    ),
    "4-row-groups": lambda _: run_audit(demo_dataset(n_per_group=4, seed=7), AuditConfig(**FAST)),
    "odd-labels": _odd_labels,
}


def _tied(_):
    # four groups on a grid of 0.01: each threshold is in every pair's grid
    rng = np.random.default_rng(41)
    labels = [g for g in "abcd" for _ in range(40)]
    responses = np.round(rng.lognormal(-2, 0.5, len(labels)), 2)
    return run_audit(Dataset([f"s{i}" for i in range(160)], labels, [True] * 160, responses),
                     AuditConfig(**FAST))


def _signed_zeros(_):
    # a and b hold -0.0, c and d hold 0.0, so pairs' grids start with either
    rng = np.random.default_rng(43)
    labels = [g for g in "abcd" for _ in range(30)]
    responses = rng.lognormal(-3, 0.4, len(labels))
    responses[[0, 30]], responses[[60, 90]] = -0.0, 0.0
    return run_audit(Dataset([f"s{i}" for i in range(120)], labels, [True] * 120, responses),
                     AuditConfig(**FAST))


class TestRenderJsonOracle:
    """render_json splices the sweep series into the encoded rest of the
    report; the bytes stay those of one json.dumps of to_dict()."""

    @pytest.mark.parametrize("name", REPORTS)
    def test_equals_json_dumps_of_to_dict(self, name, tmp_path):
        rep = REPORTS[name](tmp_path)
        want = json.dumps(rep.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert render_json(rep) == want.encode()

    @pytest.mark.parametrize(
        "make", [_readme_demo, _tied, _signed_zeros], ids=["readme-demo", "tied", "signed-zeros"]
    )
    def test_series_text_is_each_floats_repr(self, make, tmp_path):
        """render_json formats each distinct threshold of the report once;
        every pair's text is still the reprs of its own floats, and each grid
        keeps the sign of its own zero."""
        rep = make(tmp_path)
        render_json(rep)
        assert "_series" in vars(rep)  # formed by render_json
        for pa, texts in zip(rep.pairs, rep._series, strict=True):
            want = [_SERIES_SEP.join(map(float.__repr__, a.tolist())).encode()
                    for a in (pa.curve.grid, pa.curve.p_values)]
            assert list(texts) == want
        if make is _signed_zeros:
            signs = {math.copysign(1.0, pa.curve.grid[0]) for pa in rep.pairs}
            assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize(
        "make", [_readme_demo, _tied, _signed_zeros], ids=["readme-demo", "tied", "signed-zeros"]
    )
    def test_writers_share_one_text_in_any_order(self, make, tmp_path):
        """The report forms its series once, for whichever writer runs first:
        render_plots alone, before render_json and after it writes the same
        p-curve CSVs, and render_json after render_plots is still one
        json.dumps of to_dict()."""
        csvs = {}
        for order in ("alone", "before", "after"):
            rep = make(tmp_path)
            out = tmp_path / order
            if order == "after":
                render_json(rep)
            render_plots(rep, out)
            if order == "before":
                want = json.dumps(rep.to_dict(), sort_keys=True, indent=2, allow_nan=False)
                assert render_json(rep) == want.encode() + b"\n"
            csvs[order] = {p.name: p.read_bytes() for p in out.glob("pcurve_*.csv")}
        assert len(csvs["alone"]) == len(rep.pairs)
        assert csvs["alone"] == csvs["before"] == csvs["after"]

    @pytest.mark.parametrize("name", ["grid", "p_values"])
    def test_non_finite_series_rejected(self, report, name):
        """A sweep curve with a non-finite float cannot be built, so
        render_json and render_plots never meet one."""
        curve = report.pairs[-1].curve
        values = getattr(curve, name).copy()
        values[len(values) // 2] = math.nan if name == "p_values" else math.inf
        with pytest.raises(ParameterError, match=f"{name}: a float is not finite"):
            replace(curve, **{name: values})

    def test_placeholder_label_refused(self, report):
        """A group name that is the sweep placeholder would shift the
        spliced series; render_json refuses it."""
        pa = report.pairs[0]
        named = replace(pa, mann_whitney=replace(pa.mann_whitney, direction="\x01"))
        with pytest.raises(ValueError, match="which render_json reserves"):
            render_json(replace(report, pairs=(named,) + report.pairs[1:]))


class TestRenderJsonMemory:
    def test_one_report_sized_buffer(self):
        """With the series formatted, render_json's only large allocation is
        its result: the series are held once, as bytes, and joined once."""
        rng = np.random.default_rng(11)
        n = 3000
        ds = Dataset(
            [f"s{i:05d}" for i in range(2 * n)],
            ["a"] * n + ["b"] * n,
            [True] * (2 * n),
            np.concatenate([rng.lognormal(-3, 0.4, n), rng.lognormal(-2.9, 0.4, n)]),
        )
        rep = run_audit(ds, AuditConfig(dip_replicas=50))
        rep._series
        tracemalloc.start()
        try:
            out = render_json(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 300_000
        assert peak <= 1.25 * len(out)


class TestReportEdgeCases:
    def test_no_attacks_omits_operating_points(self):
        ds = demo_dataset(n_per_group=40, seed=6, with_attacks=False)
        rep = run_audit(ds, AuditConfig(**FAST))
        blob = json.loads(render_json(rep))
        assert "operating_points" not in blob
        assert rep.eer is None
        labels = [a["label"] for a in blob["anchor_thresholds"]]
        assert "eer" not in labels
        assert len(labels) == 5
        assert blob["record_counts"]["attack"] == 0

    def test_identical_groups_show_no_bias(self, make_dataset):
        rng = np.random.default_rng(1212)
        vals = rng.lognormal(-3.6, 0.45, 50)
        rows = [("a", "bonafide", v) for v in vals] + [
            ("b", "bonafide", v) for v in vals
        ]
        rep = run_audit(make_dataset(rows), AuditConfig(**FAST))
        pa = rep.pairs[0]
        assert all(p == 1.0 for p in pa.curve.p_values)
        assert pa.regions == ()
        assert pa.mann_whitney.p_value == 1.0
        for _, res in pa.chi_squared.values():
            assert res.p_value == 1.0

    def test_signed_zero_threshold_is_the_first_given(self, make_dataset, tmp_path):
        # group a gives -0.0 and group b 0.0: the grid's zero is a's in
        # report.json and in the p-curve CSV, whatever order a sort of the
        # pooled 80 values would leave them in
        rng = np.random.default_rng(43)
        a, b = rng.lognormal(-3, 0.4, (2, 40)).tolist()
        a[7], b[3] = -0.0, 0.0
        rows = [("a", "bonafide", v) for v in a] + [("b", "bonafide", v) for v in b]
        rep = run_audit(make_dataset(rows), AuditConfig(**FAST))
        grid = json.loads(render_json(rep))["bias_sweeps"]["a|b"]["grid"]
        assert [repr(t) for t in grid[:2]] == ["-0.0", repr(min(v for v in a + b if v))]
        render_plots(rep, tmp_path)
        rows = (tmp_path / "pcurve_00_a_vs_b.csv").read_text().splitlines()
        assert rows[1].startswith("-0.0,")
        assert not any(r.startswith("0.0,") for r in rows)

    def test_single_group_rejected(self, make_dataset):
        rows = [("only", "bonafide", 0.1 * (i + 1)) for i in range(10)]
        with pytest.raises(InsufficientDataError):
            run_audit(make_dataset(rows), AuditConfig(**FAST))

    def test_undersized_group_rejected(self, make_dataset):
        rows = [("a", "bonafide", 0.1 * (i + 1)) for i in range(10)]
        rows += [("b", "bonafide", 0.15), ("b", "bonafide", 0.25), ("b", "bonafide", 0.35)]
        with pytest.raises(InsufficientDataError):
            run_audit(make_dataset(rows), AuditConfig(**FAST))


class TestSvmSection:
    def test_all_pairs_scored(self, demo, demo_codes):
        rep = run_audit(demo, AuditConfig(**FAST), codes=demo_codes)
        blob = json.loads(render_json(rep))
        assert sorted(blob["svm_auc"]) == [
            "alpha|beta",
            "alpha|delta",
            "alpha|gamma",
            "beta|delta",
            "beta|gamma",
            "delta|gamma",
        ]
        for v in blob["svm_auc"].values():
            assert 0.0 <= v <= 1.0
        # alpha/beta codes were generated nearly separable, delta/gamma not
        assert blob["svm_auc"]["alpha|beta"] > 0.9
        assert blob["svm_auc"]["delta|gamma"] < 0.75

    def test_missing_code_group_rejected(self, demo):
        codes = gen_code_vectors(
            30, d=8, k=64, separability=0.5, seed=1, groups=("alpha", "beta")
        )
        with pytest.raises(InsufficientDataError):
            run_audit(demo, AuditConfig(**FAST), codes=codes)

    def test_code_inputs_checked_before_the_dip_null(self, demo, demo_codes, monkeypatch):
        def dip_null(*args, **kwargs):
            raise AssertionError("the dip null ran before the code inputs were checked")

        monkeypatch.setattr("biasaudit.report.dip_critical_value", dip_null)
        labels = np.array(demo_codes.labels())
        rows = np.flatnonzero(labels != "gamma").tolist()
        undersized = demo_codes.take(rows + np.flatnonzero(labels == "gamma")[:3].tolist())
        with pytest.raises(InsufficientDataError):
            run_audit(demo, AuditConfig(**FAST), codes=undersized)
        # 5,121 rows per group: a pair's largest training fold (k = 5) holds
        # 2 * (5121 - 1024) = 8,194 rows, above the kernel limit of 8,192
        groups = [g for g in demo.groups() for _ in range(5121)]
        oversized = CodeMatrix(np.zeros((len(groups), 1), dtype=np.int64), groups, 64)
        with pytest.raises(ParameterError, match="SVM kernel: 8194 rows by 8194 columns"):
            run_audit(demo, AuditConfig(**FAST), codes=oversized)

    def test_pair_rows_run_once(self, demo, demo_codes, monkeypatch):
        # the early check's rows are the ones cross-validated, not re-derived
        calls = []

        def counted(*args, pair_rows=svm_module._pair_rows):
            calls.append(args)
            return pair_rows(*args)

        monkeypatch.setattr(report_module, "_pair_rows", counted)
        monkeypatch.setattr(svm_module, "_pair_rows", counted)
        run_audit(demo, AuditConfig(**FAST), codes=demo_codes)
        assert len(calls) == 1

    def test_undersized_code_group_rejected(self, demo, demo_codes):
        labels = np.array(demo_codes.labels())
        rows = np.flatnonzero(labels != "gamma").tolist()
        trimmed = demo_codes.take(rows + np.flatnonzero(labels == "gamma")[:3].tolist())
        with pytest.raises(InsufficientDataError):
            run_audit(demo, AuditConfig(**FAST), codes=trimmed)


def _relabelled(ds, names):
    groups = ds.groups()
    labels = [names[groups[c]] for c in ds.group_codes.tolist()]
    return Dataset(ds.sample_ids, labels, ds.bona_fide, ds.responses)


def _rename(obj, names):
    """Every group name in a report dict mapped, in pair keys too."""
    if isinstance(obj, dict):
        return {_rename(k, names): _rename(v, names) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rename(v, names) for v in obj]
    if isinstance(obj, str):
        return "|".join(names.get(part, part) for part in obj.split("|"))
    return obj


class TestRelabelledGroups:
    def test_order_preserving_rename_maps_the_report(self, demo):
        # from names no other report string uses ("alpha" is also a config key)
        base = {"alpha": "g1", "beta": "g2", "delta": "g3", "gamma": "g4"}
        names = {"g1": "h1", "g2": "h2", "g3": "h3", "g4": "h4"}
        before = run_audit(_relabelled(demo, base), AuditConfig(**FAST))
        after = run_audit(_relabelled(demo, {g: names[n] for g, n in base.items()}), AuditConfig(**FAST))
        assert json.loads(render_json(after)) == _rename(json.loads(render_json(before)), names)

    def test_order_reversing_rename_swaps_each_pair(self, demo, report):
        names = {"alpha": "zeta", "beta": "yak", "delta": "xi", "gamma": "wren"}
        renamed = run_audit(_relabelled(demo, names), AuditConfig(**FAST))
        by_key = {pa.pair.key: pa for pa in renamed.pairs}
        for pa in report.pairs:
            swapped = by_key[f"{names[pa.pair.b]}|{names[pa.pair.a]}"]
            assert swapped.pair.a == names[pa.pair.b]
            assert swapped.curve.grid.tolist() == pa.curve.grid.tolist()
            assert swapped.curve.p_values.tolist() == pa.curve.p_values.tolist()
            assert swapped.curve.signs.tolist() == (-pa.curve.signs).tolist()
            assert [(r.lo, r.hi, r.min_p, r.worse_group) for r in swapped.regions] == [
                (r.lo, r.hi, r.min_p, names[r.worse_group]) for r in pa.regions
            ]
            assert swapped.mann_whitney.p_value == pa.mann_whitney.p_value
            assert swapped.mann_whitney.direction == names.get(pa.mann_whitney.direction)
            for label, (_, res) in pa.chi_squared.items():
                got = swapped.chi_squared[label][1]
                assert got.p_value == res.p_value
                assert got.direction == (None if res.direction is None else names[res.direction])
