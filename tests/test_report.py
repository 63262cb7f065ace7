import json

import numpy as np
import pytest

import biasaudit.dip as dip_module
import biasaudit.report as report_module
from biasaudit.data import Dataset
from biasaudit.errors import InsufficientDataError, ParameterError
from biasaudit.report import AuditConfig, render_json, run_audit
from biasaudit.svm import CodeMatrix, FeatureMode
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
        assert cfg.dip_bins == 50

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
        with pytest.raises(ParameterError):
            AuditConfig(dip_bins=1)
        with pytest.raises(ParameterError):
            AuditConfig(dip_replicas=0)
        with pytest.raises(ParameterError):
            AuditConfig(seed=-1)
        with pytest.raises(ParameterError):
            AuditConfig(svm_c=0.0)
        with pytest.raises(ParameterError):
            AuditConfig(svm_gamma=0.0)
        with pytest.raises(ParameterError):
            AuditConfig(svm_folds=1)


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
            assert dip["bins"] == 50
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

    def test_groups_of_one_size_share_one_null(self, monkeypatch):
        # a _dip_null-style stub around the null stream records each draw
        streams, calls = [], []
        real_stream, real_cv = dip_module._null_stream, report_module.dip_critical_value

        def stream(n, replicas, seed, bins):
            streams.append(n)
            return real_stream(n, replicas, seed, bins)

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
        # 7,300 rows per group: a pair's largest training fold (k = 5) holds
        # 2 * (7300 - 1460) = 11,680 rows, above the kernel limit of 11,585
        groups = [g for g in demo.groups() for _ in range(7300)]
        oversized = CodeMatrix(np.zeros((len(groups), 1), dtype=np.int64), groups, 64)
        with pytest.raises(ParameterError, match="11680 training rows"):
            run_audit(demo, AuditConfig(**FAST), codes=oversized)

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
