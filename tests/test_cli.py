import json

import pytest

from biasaudit.cli import main

AUDIT_FAST = ["--dip-replicas", "200"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--n-per-group", "40", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def audit_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    code = main(
        ["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(out)]
        + AUDIT_FAST
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_responses_and_codes(self, synth_dir):
        assert (synth_dir / "responses.csv").exists()
        assert (synth_dir / "codes.csv").exists()
        header = (synth_dir / "responses.csv").read_text().splitlines()[0]
        assert header == "sample_id,group,class,response"
        assert (synth_dir / "codes.csv").read_text().startswith("#K=64\n")

    def test_deterministic_output(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--n-per-group", "40", "--seed", "3"]) == 0
        assert (again / "responses.csv").read_bytes() == (
            synth_dir / "responses.csv"
        ).read_bytes()
        assert (again / "codes.csv").read_bytes() == (synth_dir / "codes.csv").read_bytes()

    def test_no_attacks_no_codes(self, tmp_path, capsys):
        out = tmp_path / "lean"
        code = main(
            [
                "synth",
                "--out",
                str(out),
                "--n-per-group",
                "10",
                "--no-attacks",
                "--no-codes",
            ]
        )
        assert code == 0
        assert not (out / "codes.csv").exists()
        text = (out / "responses.csv").read_text()
        assert ",attack," not in text


class TestAuditCommand:
    def test_writes_report_and_plots(self, audit_dir, capsys):
        assert (audit_dir / "report.json").exists()
        svgs = list(audit_dir.glob("*.svg"))
        csvs = list(audit_dir.glob("*.csv"))
        assert len(svgs) == 12  # two plots for each of six pairs
        assert len(csvs) == 12

    def test_report_content(self, audit_dir):
        blob = json.loads((audit_dir / "report.json").read_text())
        assert blob["groups"] == ["alpha", "beta", "delta", "gamma"]
        assert blob["record_counts"]["bona_fide"] == 160
        assert len(blob["chi_squared"]) == 6
        assert "operating_points" in blob
        assert "svm_auc" not in blob  # no codes passed

    def test_rerun_is_byte_identical(self, synth_dir, audit_dir, tmp_path):
        again = tmp_path / "again"
        code = main(
            ["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(again)]
            + AUDIT_FAST
        )
        assert code == 0
        assert (again / "report.json").read_bytes() == (
            audit_dir / "report.json"
        ).read_bytes()

    def test_codes_enable_svm_section(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "with_codes"
        code = main(
            [
                "audit",
                "--data",
                str(synth_dir / "responses.csv"),
                "--codes",
                str(synth_dir / "codes.csv"),
                "--out",
                str(out),
            ]
            + AUDIT_FAST
        )
        assert code == 0
        blob = json.loads((out / "report.json").read_text())
        assert len(blob["svm_auc"]) == 6
        assert "svm auc alpha|beta" in capsys.readouterr().out

    def test_summary_lines(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "log"
        main(["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(out)] + AUDIT_FAST)
        text = capsys.readouterr().out
        assert "groups: alpha, beta, delta, gamma" in text
        assert "pooled EER" in text
        assert text.count("pair ") == 6

    def test_duplicate_anchor_labels_rejected(self, synth_dir, tmp_path, capsys):
        code = main(
            ["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(tmp_path / "o")]
            + ["--quantiles", "0.1,0.10,0.2"]
            + AUDIT_FAST
        )
        assert code == 1
        assert "q=0.1, q=0.1" in capsys.readouterr().err

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["audit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_single_group_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        rows = [f"s{i},solo,bonafide,0.{i + 1}" for i in range(6)]
        data.write_text("sample_id,group,class,response\n" + "\n".join(rows) + "\n")
        code = main(["audit", "--data", str(data), "--out", str(tmp_path / "o")] + AUDIT_FAST)
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_apply(self, synth_dir, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("alpha = 0.01\ndip_replicas = 150  # fast\n")
        out = tmp_path / "out"
        code = main(
            [
                "--config",
                str(cfg),
                "audit",
                "--data",
                str(synth_dir / "responses.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        blob = json.loads((out / "report.json").read_text())
        assert blob["config"]["alpha"] == 0.01
        assert blob["config"]["dip_replicas"] == 150

    def test_explicit_flag_beats_file(self, synth_dir, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("alpha = 0.01\ndip_replicas = 150\n")
        out = tmp_path / "out"
        code = main(
            [
                "--config",
                str(cfg),
                "audit",
                "--data",
                str(synth_dir / "responses.csv"),
                "--out",
                str(out),
                "--alpha",
                "0.2",
            ]
        )
        assert code == 0
        blob = json.loads((out / "report.json").read_text())
        assert blob["config"]["alpha"] == 0.2
        assert blob["config"]["dip_replicas"] == 150

    def test_unknown_key_rejected(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("not_a_key = 5\n")
        code = main(
            [
                "--config",
                str(cfg),
                "audit",
                "--data",
                str(synth_dir / "responses.csv"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("alpha 0.01\n")
        code = main(
            [
                "--config",
                str(cfg),
                "audit",
                "--data",
                str(synth_dir / "responses.csv"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "expected key=value" in capsys.readouterr().err


class TestStatSubcommands:
    def test_chi2(self, capsys):
        code = main(
            [
                "chi2",
                "--accepted-a", "180", "--rejected-a", "20",
                "--accepted-b", "198", "--rejected-b", "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        stat = float(lines[0].split()[1])
        p = float(lines[1].split()[1])
        assert stat == pytest.approx(15.584415584415584, rel=1e-12)
        assert p == pytest.approx(3.9446e-05, rel=1e-3)
        assert lines[2] == "direction a"

    def test_chi2_tie(self, capsys):
        main(["chi2", "--accepted-a", "190", "--rejected-a", "10",
              "--accepted-b", "190", "--rejected-b", "10"])
        out = capsys.readouterr().out
        assert "p_value 1.0" in out
        assert "direction tie" in out

    def test_mwu(self, synth_dir, capsys):
        code = main(
            [
                "mwu",
                "--data", str(synth_dir / "responses.csv"),
                "--group-a", "alpha", "--group-b", "beta",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("U ")
        p = float(lines[1].split()[1])
        assert 0.0 <= p <= 1.0
        assert lines[2] == "direction beta"  # beta is the shifted group

    def test_mwu_bad_mode(self, synth_dir, capsys):
        code = main(
            [
                "mwu",
                "--data", str(synth_dir / "responses.csv"),
                "--group-a", "alpha", "--group-b", "beta",
                "--mode", "bogus",
            ]
        )
        assert code == 1
        assert "unknown mode" in capsys.readouterr().err

    def test_svm_sep_bad_feature_mode(self, synth_dir, capsys):
        code = main(
            ["svm-sep", "--codes", str(synth_dir / "codes.csv"), "--feature-mode", "bogus"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown feature mode 'bogus'" in err
        assert "scaled-indices" in err

    def test_dip(self, synth_dir, capsys):
        code = main(
            [
                "dip",
                "--data", str(synth_dir / "responses.csv"),
                "--group", "delta",
                "--bins", "0",
                "--replicas", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("dip ")
        assert "critical_value_se " in out
        assert "verdict NOT unimodal" in out  # delta is the bimodal group

    @pytest.mark.parametrize("bins", ["1", "-3"])
    def test_dip_bins_below_two_rejected(self, synth_dir, capsys, bins):
        # only --bins 0 means unbinned
        code = main(
            [
                "dip",
                "--data", str(synth_dir / "responses.csv"),
                "--group", "delta",
                "--bins", bins,
                "--replicas", "50",
            ]
        )
        assert code == 1
        assert f"bins must be >= 2, got {bins}" in capsys.readouterr().err

    def test_sw(self, synth_dir, capsys):
        code = main(
            ["sw", "--data", str(synth_dir / "responses.csv"), "--group", "alpha"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        w = float(lines[0].split()[1])
        assert 0.0 < w <= 1.0

    def test_eer(self, synth_dir, capsys):
        code = main(["eer", "--data", str(synth_dir / "responses.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("pooled threshold=")
        for g in ("alpha:", "beta:", "delta:", "gamma:"):
            assert g in out

    def test_sweep_csv_and_regions(self, synth_dir, capsys):
        code = main(
            [
                "sweep",
                "--data", str(synth_dir / "responses.csv"),
                "--group-a", "alpha", "--group-b", "beta",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert len(rows) == 80  # pooled distinct bona fide responses
        for row in rows:
            t, p = row.split(",")
            assert float(t) > 0
            assert 0.0 <= float(p) <= 1.0
        assert "significant region(s) at alpha=0.05" in captured.err

    def test_svm_sep(self, synth_dir, capsys):
        code = main(["svm-sep", "--codes", str(synth_dir / "codes.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("alpha|beta auc ")
        for line in lines:
            assert 0.0 <= float(line.rsplit(" ", 1)[1]) <= 1.0


class TestArgparseBehavior:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("biasaudit ")

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chi2", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
