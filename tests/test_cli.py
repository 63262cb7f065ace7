import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biasaudit
import biasaudit.dip as dip_module
from biasaudit.cli import _config_from_args, build_parser, main
from biasaudit.report import AuditConfig
from biasaudit.svm import FeatureMode

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

    def test_code_ids_are_the_bona_fide_ids(self, synth_dir):
        def ids(name, keep):
            rows = (synth_dir / name).read_text().splitlines()
            return sorted(ln.split(",")[0] for ln in rows if keep(ln))

        codes = ids("codes.csv", lambda ln: not ln.startswith(("#", "sample_id")))
        bona = ids("responses.csv", lambda ln: ",bonafide," in ln)
        assert codes == bona and len(codes) == 4 * 40

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

    @pytest.mark.parametrize(
        "bad", [["--codes-k", "1"], ["--codes-separability", "1.5"]], ids=["k", "separability"]
    )
    def test_bad_code_options_write_nothing(self, tmp_path, capsys, bad):
        # the codes are built before responses.csv is written, so nothing is left half done
        code = main(["synth", "--out", str(tmp_path / "out"), "--n-per-group", "10"] + bad)
        assert code == 1
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


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
        # svm-sep prints the same section, to 6 decimals
        assert main(["svm-sep", "--codes", str(synth_dir / "codes.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{key} auc {auc:.6f}" for key, auc in blob["svm_auc"].items()]

    def test_runs_without_scipy_or_hypothesis(self, tmp_path):
        # the runtime needs numpy only: a None entry in sys.modules makes the
        # import fail, so synth plus audit --codes would stop at any use of them
        script = (
            "import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "from biasaudit.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['synth', '--out', out, '--n-per-group', '20', '--seed', '4']) == 0\n"
            "sys.exit(main(['audit', '--data', out + '/responses.csv',\n"
            "               '--codes', out + '/codes.csv', '--out', out + '/audit',\n"
            "               '--dip-replicas', '50']))\n"
        )
        src = str(Path(biasaudit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "svm auc alpha|beta" in done.stdout
        assert (tmp_path / "audit" / "report.json").exists()

    def test_readme_demo_svm_auc_pinned(self, tmp_path):
        # the README demo (synth --seed 7, audit --codes); the fold assignment
        # and the SMO tie-breaks depend on row order, so exact values pin it
        demo = tmp_path / "demo"
        assert main(["synth", "--out", str(demo), "--n-per-group", "200", "--seed", "7"]) == 0
        out = tmp_path / "demo-audit"
        argv = ["audit", "--data", str(demo / "responses.csv"), "--codes", str(demo / "codes.csv")]
        assert main(argv + ["--out", str(out)] + AUDIT_FAST) == 0
        blob = json.loads((out / "report.json").read_text())
        assert {k: repr(v) for k, v in blob["svm_auc"].items()} == {
            "alpha|beta": "0.913125",
            "alpha|delta": "0.529625",
            "alpha|gamma": "0.88375",
            "beta|delta": "0.9120000000000001",
            "beta|gamma": "0.470125",
            "delta|gamma": "0.896875",
        }

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

    def test_pipe_in_group_label_rejected(self, tmp_path, capsys):
        # with these four groups two pairs would share the key "x|y|z"
        data = tmp_path / "pipes.csv"
        rows = [
            f"{g}-{i},{g},bonafide,0.{i + 1}" for g in ("x|y", "z", "x", "y|z") for i in range(6)
        ]
        data.write_text("sample_id,group,class,response\n" + "\n".join(rows) + "\n")
        code = main(["audit", "--data", str(data), "--out", str(tmp_path / "o")] + AUDIT_FAST)
        assert code == 1
        assert "'x|y'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

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
        # the keys are AuditConfig's fields, each converted with its flag's type
        cfg.write_text(
            "alpha = 0.01\ndip_replicas = 150  # fast\nquantiles = 0.05,0.2\n"
            "svm_gamma = 0.5\nfeature-mode = code-histogram\n"
        )
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
        want = AuditConfig(
            alpha=0.01, dip_replicas=150, quantiles=(0.05, 0.2), svm_gamma=0.5,
            feature_mode=FeatureMode.CODE_HISTOGRAM,
        )
        assert blob["config"] == want.to_dict()

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

    def test_svm_sep_reads_file_and_flag_wins(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "svm.cfg"
        cfg.write_text("svm_folds = 3\nsvm_gamma = 0.5\n")
        codes = ["svm-sep", "--codes", str(synth_dir / "codes.csv")]
        assert main(["--config", str(cfg)] + codes + ["--svm-gamma", "auto"]) == 0
        from_file = capsys.readouterr()
        assert main(codes + ["--svm-folds", "3"]) == 0
        assert capsys.readouterr() == from_file
        # a given flag beats the file, also where it parses to None ('auto')
        parser = build_parser()
        args = parser.parse_args(["--config", str(cfg)] + codes + ["--svm-folds", "4"])
        assert _config_from_args(args) == AuditConfig(svm_folds=4, svm_gamma=0.5)
        args = parser.parse_args(["--config", str(cfg)] + codes + ["--svm-gamma", "auto"])
        assert _config_from_args(args) == AuditConfig(svm_folds=3, svm_gamma=None)

    def test_only_audit_and_svm_sep_read_file(self, synth_dir, tmp_path, capsys):
        # any other subcommand refuses --config before it reads or writes
        # anything, even a config file that does not exist
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("seed = 7\nalpha = 0.2\n")
        data = str(synth_dir / "responses.csv")
        out = tmp_path / "synth"
        for argv in (
            ["synth", "--n-per-group", "10", "--out", str(out)],
            ["dip", "--data", data, "--group", "alpha", "--replicas", "50"],
            ["sweep", "--data", data, "--group-a", "alpha", "--group-b", "delta"],
            ["eer", "--data", data],
        ):
            for path in (cfg, tmp_path / "nope.cfg"):
                assert main(["--config", str(path)] + argv) == 1
                text = capsys.readouterr()
                assert text.out == ""
                assert text.err == (
                    f"error: --config is read only by audit and svm-sep, not by {argv[0]}\n"
                )
        assert [p.name for p in tmp_path.iterdir()] == ["audit.cfg"]

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
        cfg.write_text("alpha = abc\n")
        data = str(synth_dir / "responses.csv")
        code = main(["--config", str(cfg), "audit", "--data", data, "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{cfg}:1: bad value for alpha" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--svm-folds", "1"], "svm_folds must be >= 2, got 1"),
            (["--svm-c", "0"], "svm_c must be > 0, got 0.0"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
    )
    def test_svm_sep_values_checked_as_audit_checks_them(self, tmp_path, capsys, flag, message):
        # AuditConfig's message, given before the (missing) codes file is read
        code = main(["svm-sep", "--codes", str(tmp_path / "nope.csv")] + flag)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_dip_equals_the_audit_dip_test(self, tmp_path, capsys):
        # the README demo at the default cap: every group's dip, critical
        # value, its SE, the replicas drawn and the verdict, as the audit has them
        demo = tmp_path / "demo"
        assert main(["synth", "--out", str(demo), "--n-per-group", "200", "--seed", "7"]) == 0
        data = str(demo / "responses.csv")
        assert main(["audit", "--data", data, "--out", str(tmp_path / "audit")]) == 0
        per_group = json.loads((tmp_path / "audit" / "report.json").read_text())["per_group"]
        capsys.readouterr()
        verdicts = {}
        for g, entry in per_group.items():
            t = entry["dip_test"]
            assert main(["dip", "--data", data, "--group", g]) == 0
            assert capsys.readouterr().out == (
                f"dip {t['dip']!r}\n"
                f"critical_value {t['critical_value']!r} (n=200, alpha=0.05)\n"
                f"critical_value_se {t['critical_value_se']!r} (replicas={t['replicas']})\n"
                f"verdict {'unimodal' if t['unimodal'] else 'NOT unimodal'}\n"
            )
            assert t["replicas"] < 10000
            verdicts[g] = t["unimodal"]
        assert verdicts == {"alpha": True, "beta": True, "delta": False, "gamma": False}

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

    def test_dip_null_over_one_gib_is_validation_error(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        # the guard refuses before the null runs; the stub fails the test
        # instead of allocating should it ever be reached
        def unreachable(*args):
            raise AssertionError("the dip null ran")

        monkeypatch.setattr(dip_module, "_dip_null", unreachable)
        huge = "1000000000000"
        dip = ["dip", "--data", str(synth_dir / "responses.csv"), "--group", "delta"]
        audit = ["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(tmp_path / "o")]
        for argv in (
            dip + ["--replicas", huge],
            dip + ["--bins", huge],
            audit + ["--dip-replicas", huge],
            audit + ["--dip-bins", huge],
        ):
            assert main(argv) == 1, argv
            assert "GiB; the limit is 1 GiB" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sw(self, synth_dir, capsys):
        code = main(
            ["sw", "--data", str(synth_dir / "responses.csv"), "--group", "alpha"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        w = float(lines[0].split()[1])
        assert 0.0 < w <= 1.0

    def test_eer(self, synth_dir, tmp_path, capsys):
        code = main(["eer", "--data", str(synth_dir / "responses.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("pooled threshold=")
        assert "np.float64" not in out
        for g in ("alpha:", "beta:", "delta:", "gamma:"):
            assert g in out
        # eer prints the report's operating_points; epsilon has no attack rows
        data = tmp_path / "eps.csv"
        extra = "".join(f"eps-{i},epsilon,bonafide,0.0{i + 1}\n" for i in range(6))
        data.write_text((synth_dir / "responses.csv").read_text() + extra)
        assert main(["audit", "--data", str(data), "--out", str(tmp_path / "o")] + AUDIT_FAST) == 0
        ops = json.loads((tmp_path / "o" / "report.json").read_text())["operating_points"]
        capsys.readouterr()
        assert main(["eer", "--data", str(data)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == "epsilon: no attack rows, skipped"  # groups in sorted order
        assert "epsilon" not in ops["per_group_hter"]

        def numbers(line):
            pairs = re.findall(r"(\w+)=(\S+)", line)
            return {key: float(value) for key, value in pairs}

        assert lines[0].startswith("pooled ") and numbers(lines[0]) == ops["eer"]
        printed = {line.split(":")[0]: numbers(line) for line in lines[1:] if "=" in line}
        assert printed == {
            g: {k: v for k, v in op.items() if k != "threshold"}
            for g, op in ops["per_group_hter"].items()
        }

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
        # beta is the shifted group: the regions name it whichever flag names it
        assert "worse=beta" in captured.err and "worse=alpha" not in captured.err
        data = str(synth_dir / "responses.csv")
        assert main(["sweep", "--data", data, "--group-a", "beta", "--group-b", "alpha"]) == 0
        assert capsys.readouterr() == captured

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

    def test_audit_defaults_are_the_audit_config(self):
        args = build_parser().parse_args(["audit", "--data", "d", "--out", "o"])
        assert _config_from_args(args) == AuditConfig()
        args = build_parser().parse_args(["svm-sep", "--codes", "c"])
        assert _config_from_args(args) == AuditConfig()

    def test_package_exports_every_module_name(self):
        names = biasaudit.__all__
        assert len(names) == len(set(names))
        for name in names:
            getattr(biasaudit, name)
        assert set(PUBLIC_NAMES) <= set(names)


# the package's public names; each must stay exported from the top level
PUBLIC_NAMES = """
__version__ AuditConfig AuditError AuditReport BiasCurve BiasRegion CodeMatrix
ContingencyTable2x2 Dataset DegenerateDataError DipResult EmptyDatasetError FeatureMode
GroupPair InsufficientDataError MwuMode OperatingPoint ParameterError RocCurve RowError
SchemaError Sidedness SummaryStats SvmModel TestResult UnknownGroupError attack_responses
auc_from_scores bias_sweep bona_fide_responses chi2_survival chi_squared_one_sided
cross_validated_auc decision_score demo_dataset dip_critical_value dip_statistic
eer_operating_point featurize gen_code_vectors gen_lognormal gen_mixture group_pairs hter_at
inject_outliers load_codes_csv load_csv mann_whitney_u outcomes_at render_json render_plots
roc_curve run_audit save_codes_csv save_csv shapiro_wilk significant_regions summary_stats
threshold_for_bonafide_error train_svm_smo
""".split()
