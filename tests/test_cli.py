import csv
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import pytest

import biasaudit
import biasaudit.cli as cli_module
import biasaudit.dip as dip_module
import biasaudit.svm as svm_module
from biasaudit import synth
from biasaudit.cli import _config_from_args, build_parser, main
from biasaudit.data import load_codes_csv
from biasaudit.report import AuditConfig
from biasaudit.svm import FeatureMode
from biasaudit.synth import gen_code_vectors

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
        # in group order, each group's ids in the order of its bona fide rows
        # (the ids are "<group>-bf-<index>", so that order is sorted order)
        def ids(name, keep):
            rows = (synth_dir / name).read_text().splitlines()
            return [ln.split(",")[0] for ln in rows if keep(ln)]

        codes = ids("codes.csv", lambda ln: not ln.startswith(("#", "sample_id")))
        bona = ids("responses.csv", lambda ln: ",bonafide," in ln)
        assert codes == sorted(bona) and len(codes) == 4 * 40

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

    def test_codes_are_two_seeded_pairs(self, synth_dir):
        # synth --n-per-group 40 --seed 3: (alpha, beta) seeded 503, then
        # (delta, gamma) seeded 505
        codes = load_codes_csv(synth_dir / "codes.csv")
        parts = [
            gen_code_vectors(40, 16, 64, 0.3, 503, ("alpha", "beta")),
            gen_code_vectors(40, 16, 64, 0.3, 505, ("delta", "gamma")),
        ]
        assert codes.k == 64
        assert codes.codes.tolist() == [row for p in parts for row in p.codes.tolist()]
        assert codes.labels() == [g for p in parts for g in p.labels()]

    def test_bad_option_writes_nothing(self, tmp_path, capsys):
        # both tables are built before either is written, so nothing is left half done
        code = main(["synth", "--out", str(tmp_path / "out"), "--n-per-group", "3"])
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

    def test_inputs_freed_before_rendering(self, synth_dir, tmp_path, monkeypatch):
        """The report keeps no reference to the Dataset or the CodeMatrix,
        and neither does audit, so both are gone before the report renders."""
        inputs, alive = [], []

        def keep_ref(load):
            def loaded(*args, **kwargs):
                result = load(*args, **kwargs)
                inputs.append(weakref.ref(result))
                return result

            return loaded

        def render(report, render_json=cli_module.render_json):
            alive.extend(ref() is not None for ref in inputs)
            return render_json(report)

        monkeypatch.setattr(cli_module, "load_csv", keep_ref(cli_module.load_csv))
        monkeypatch.setattr(cli_module, "load_codes_csv", keep_ref(cli_module.load_codes_csv))
        monkeypatch.setattr(cli_module, "render_json", render)
        code = main(
            ["audit", "--data", str(synth_dir / "responses.csv"), "--codes",
             str(synth_dir / "codes.csv"), "--out", str(tmp_path)]
            + AUDIT_FAST
        )
        assert code == 0
        assert alive == [False, False]

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

    def test_control_character_in_group_label_rejected(self, tmp_path, capsys):
        data = tmp_path / "ctrl.csv"
        rows = [f"{g}-{i},{g},bonafide,0.{i + 1}" for g in ("a\x01b", "c") for i in range(6)]
        data.write_text("sample_id,group,class,response\n" + "\n".join(rows) + "\n")
        code = main(["audit", "--data", str(data), "--out", str(tmp_path / "o")] + AUDIT_FAST)
        assert code == 1
        assert capsys.readouterr().err == "error: group 'a\\x01b' contains a control character\n"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_overflow_and_infinite_svm_values_rejected_before_the_dip_null(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        def unreachable(*args):
            raise AssertionError("the dip null ran")

        monkeypatch.setattr(dip_module, "_sequential_null", unreachable)
        huge = tmp_path / "huge.csv"
        rows = [f"{g}-{i},{g},bonafide,{i + 1}e200" for g in ("a", "b") for i in range(30)]
        huge.write_text("sample_id,group,class,response\n" + "\n".join(rows) + "\n")
        demo = ["--data", str(synth_dir / "responses.csv"), "--codes", str(synth_dir / "codes.csv")]
        for args, message in (
            (["--data", str(huge)], "variance of values up to 3e+201 overflows float64"),
            (demo + ["--svm-c", "inf"], "svm_c must be finite, got inf"),
            (demo + ["--svm-gamma", "inf"], "svm_gamma must be finite, got inf"),
        ):
            assert main(["audit", "--out", str(tmp_path / "o")] + args) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "o" / "report.json").exists()
        # control: valid values do reach the null
        with pytest.raises(AssertionError, match="the dip null ran"):
            main(["audit", "--out", str(tmp_path / "o")] + demo)

    def test_oversized_code_histograms_rejected_before_any_fit(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the dip null or an SVM fit ran")

        monkeypatch.setattr(dip_module, "_sequential_null", unreachable)
        monkeypatch.setattr(svm_module, "train_svm_smo", unreachable)
        # the demo codes with a codebook of 10^12 entries: a pair's histogram
        # features would need 2^40 times the kernel's 512 MiB limit
        lines = (synth_dir / "codes.csv").read_text().split("\n", 1)
        assert lines[0] == "#K=64"
        codes = tmp_path / "codes.csv"
        codes.write_text("#K=1000000000000\n" + lines[1])
        out = tmp_path / "o"
        hist = ["--codes", str(codes), "--feature-mode", "code-histogram"]
        for argv in (
            ["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(out)] + hist,
            ["svm-sep"] + hist,
        ):
            assert main(argv) == 1, argv
            text = capsys.readouterr()
            assert text.out == ""
            assert re.fullmatch(
                r"error: code-histogram features: 80 rows by 1000000000000 columns of "
                r"float64 need [0-9.]+ MiB; the limit is 512 MiB\n",
                text.err,
            )
        assert not out.exists()
        # control: scaled indices do not grow with k, and reach the fit
        with pytest.raises(AssertionError, match="an SVM fit ran"):
            main(["svm-sep", "--codes", str(codes)])

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

    def test_blank_and_comment_lines_skipped(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("\n# folds for a small file\n   \n  # indented\nsvm_folds = 3\n\n")
        codes = str(synth_dir / "codes.csv")
        assert main(["--config", str(cfg), "svm-sep", "--codes", codes]) == 0
        from_file = capsys.readouterr()
        assert main(["svm-sep", "--codes", codes, "--svm-folds", "3"]) == 0
        assert capsys.readouterr() == from_file

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
        assert f"{cfg}: line 1: bad value for alpha" in capsys.readouterr().err

    def test_lines_numbered_as_the_csvs_are(self, synth_dir, tmp_path, capsys):
        # only \r\n, \r and \n end a line, as for csv.reader and the bad-byte
        # search: the form feed is inside line 1, and every error of a config
        # line names the file and the line in RowError's form
        data = str(synth_dir / "responses.csv")
        out = tmp_path / "o"
        for text, message in (
            ("alpha = 0.05\x0c# x\nseed = abc\n", "line 2: bad value for seed: "),
            ("alpha = 0.05\r\x0b\rnot_a_key = 5\n", "line 3: unknown config key 'not_a_key'"),
            ("\u2028\n\x85\rseed 7\n", "line 3: expected key=value, got 'seed 7'"),
        ):
            cfg = tmp_path / "ff.cfg"
            cfg.write_text(text, encoding="utf-8", newline="")
            code = main(["--config", str(cfg), "audit", "--data", data, "--out", str(out)])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {cfg}: {message}")
            assert captured.err.count("\n") == 1
            assert not out.exists()

    def test_crlf_and_bom_configs_audit_as_the_flags_do(self, synth_dir, tmp_path):
        data = str(synth_dir / "responses.csv")
        args = ["audit", "--data", data, "--dip-replicas", "150"]

        def tree(name):
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        assert main(args + ["--out", str(tmp_path / "flags"), "--seed", "3", "--alpha", "0.1"]) == 0
        want = tree("flags")
        for name, raw in (
            ("crlf", b"seed = 3\r\n# alpha\r\nalpha = 0.1\r\n"),
            ("bom", b"\xef\xbb\xbfseed = 3\nalpha = 0.1"),
        ):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(raw)
            assert main(["--config", str(cfg)] + args + ["--out", str(tmp_path / name)]) == 0
            assert tree(name) == want

    def test_byte_order_mark_skipped(self, synth_dir, tmp_path, capsys):
        # read as the CSVs are: a leading BOM is not part of the first key
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsvm_folds = 3\n")
        codes = str(synth_dir / "codes.csv")
        assert main(["--config", str(cfg), "svm-sep", "--codes", codes]) == 0
        from_file = capsys.readouterr()
        assert main(["svm-sep", "--codes", codes, "--svm-folds", "3"]) == 0
        assert capsys.readouterr() == from_file

    def test_bad_byte_names_file_and_line(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfalpha = 0.01\r\n# seed\r\nseed = \xff7\n")
        out = tmp_path / "o"
        data = str(synth_dir / "responses.csv")
        code = main(["--config", str(cfg), "audit", "--data", data, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {cfg}: line 3: not UTF-8 text (byte 0xff)\n")
        assert not out.exists()


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
        assert capsys.readouterr().err == (
            "error: --mode: expected one of auto, exact, normal-approx, got 'bogus'\n"
        )

    def test_svm_sep_bad_feature_mode(self, synth_dir, capsys):
        code = main(
            ["svm-sep", "--codes", str(synth_dir / "codes.csv"), "--feature-mode", "bogus"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--feature-mode: expected one of scaled-indices, code-histogram, got 'bogus'" in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--svm-folds", "1"], "svm_folds must be >= 2, got 1"),
            (["--svm-c", "0"], "svm_c must be > 0, got 0.0"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--svm-c", "inf"], "svm_c must be finite, got inf"),
            (["--svm-gamma", "inf"], "svm_gamma must be finite, got inf"),
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
        assert verdicts == {"alpha": True, "beta": True, "delta": False, "gamma": True}

    def test_dip_equals_the_audit_with_two_group_sizes(self, tmp_path, capsys):
        # three groups of 60 bona fide rows and one of 40 with 20 attack rows,
        # 60 rows in all: each size draws its own null, stopped on the dips
        # of the groups with as many bona fide rows, and dip must pick the
        # same peers as the audit
        samples = {
            "a": (synth.gen_lognormal(-3.6, 0.45, 60, 1), 0),
            "b": (synth.gen_mixture(((0.5, -4.3, 0.25), (0.5, -2.9, 0.25)), 60, 2), 0),
            "c": (synth.gen_lognormal(-3.6, 0.9, 60, 3), 0),
            "d": (synth.gen_lognormal(-3.25, 0.45, 40, 4), 20),
        }
        lines = ["sample_id,group,class,response"]
        for g, (bona, n_attack) in samples.items():
            lines += [f"{g}{i},{g},bonafide,{v!r}" for i, v in enumerate(bona.tolist())]
            attack = synth.gen_lognormal(-1.8, 0.35, n_attack, 5).tolist() if n_attack else []
            lines += [f"{g}x{i},{g},attack,{v!r}" for i, v in enumerate(attack)]
        data = tmp_path / "two-sizes.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "audit"
        assert main(["audit", "--data", str(data), "--out", str(out), "--dip-replicas", "2000"]) == 0
        per_group = json.loads((out / "report.json").read_text())["per_group"]
        capsys.readouterr()
        for g, entry in per_group.items():
            t = entry["dip_test"]
            assert main(["dip", "--data", str(data), "--group", g, "--replicas", "2000"]) == 0
            assert capsys.readouterr().out == (
                f"dip {t['dip']!r}\n"
                f"critical_value {t['critical_value']!r} (n={t['n']}, alpha=0.05)\n"
                f"critical_value_se {t['critical_value_se']!r} (replicas={t['replicas']})\n"
                f"verdict {'unimodal' if t['unimodal'] else 'NOT unimodal'}\n"
            )
        assert {g: e["dip_test"]["n"] for g, e in per_group.items()} == {
            "a": 60, "b": 60, "c": 60, "d": 40
        }

    def test_dip_null_over_one_gib_is_validation_error(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        # the guard refuses before the null runs; the stub fails the test
        # instead of allocating should it ever be reached
        def unreachable(*args):
            raise AssertionError("the dip null ran")

        monkeypatch.setattr(dip_module, "_sequential_null", unreachable)
        huge = "1000000000000"
        dip = ["dip", "--data", str(synth_dir / "responses.csv"), "--group", "delta"]
        audit = ["audit", "--data", str(synth_dir / "responses.csv"), "--out", str(tmp_path / "o")]
        for argv in (
            dip + ["--replicas", huge],
            audit + ["--dip-replicas", huge],
        ):
            assert main(argv) == 1, argv
            assert "GiB; the limit is 1 GiB" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # control: a null inside the limit does reach the stub
        for argv in (dip + ["--replicas", "50"], audit + ["--dip-replicas", "50"]):
            with pytest.raises(AssertionError, match="the dip null ran"):
                main(argv)

    def test_sw_overflow_is_one_error_line(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        rows = [f"{g}-{i},{g},bonafide,{i + 1}e200" for g in ("a", "b") for i in range(60)]
        huge.write_text("sample_id,group,class,response\n" + "\n".join(rows) + "\n")
        assert main(["sw", "--data", str(huge), "--group", "a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows float64" in err

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

    def test_eer_without_attack_rows_names_the_cause(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "responses.csv").read_text().splitlines(keepends=True)
        data = tmp_path / "bona.csv"
        data.write_text("".join(ln for ln in lines if ",attack," not in ln))
        assert main(["eer", "--data", str(data)]) == 1
        assert capsys.readouterr() == ("", "error: no attack rows: the EER needs both classes\n")

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

    def test_sweep_rows_are_the_pcurve_csv(self, synth_dir, audit_dir, capsys):
        # one writer forms both: the audit's p-curve CSV of each pair, header
        # aside, whichever order the groups are named in
        data = str(synth_dir / "responses.csv")
        paths = sorted(audit_dir.glob("pcurve_*.csv"))
        assert len(paths) == 6
        for path in paths:
            a, b = path.stem.split("_")[2::2]
            assert main(["sweep", "--data", data, "--group-a", b, "--group-b", a]) == 0
            header, rows = path.read_text().split("\n", 1)
            assert header == "threshold,p_value"
            assert capsys.readouterr().out == rows

    def test_svm_sep(self, synth_dir, capsys):
        code = main(["svm-sep", "--codes", str(synth_dir / "codes.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("alpha|beta auc ")
        for line in lines:
            assert 0.0 <= float(line.rsplit(" ", 1)[1]) <= 1.0


class TestInputErrors:
    """Each bad input exits 1 with one error line that names it."""

    @pytest.mark.parametrize(
        "flag, message",
        [
            (
                ["--quantiles", "0.1,,0.2"],
                "--quantiles: expected comma-separated floats, got '0.1,,0.2'",
            ),
            (["--svm-gamma", "abc"], "--svm-gamma: expected float or 'auto', got 'abc'"),
            (["--alpha", "abc"], "--alpha: expected float, got 'abc'"),
            (["--dip-replicas", "1.5"], "--dip-replicas: expected int, got '1.5'"),
            (
                ["sweep", "--data", "nope.csv", "--group-a", "a", "--group-b", "b", "--alpha", "abc"],
                "--alpha: expected float, got 'abc'",
            ),
            (
                ["chi2", "--accepted-a", "1", "--rejected-a", "x", "--accepted-b", "1",
                 "--rejected-b", "1"],
                "--rejected-a: expected int, got 'x'",
            ),
        ],
    )
    def test_bad_flag_value(self, tmp_path, capsys, flag, message):
        # a flag alone goes to audit; either way the flag is parsed before
        # the (missing) data file is read
        if flag[0].startswith("--"):
            flag = ["audit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)] + flag
        code = main(flag)
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "sample_id,group,class,response\n,a,bonafide,0.1\n",
                "{path}: line 2: empty sample_id",
            ),
            ("sample_id,group,class,response\ns1,,bonafide,0.1\n", "{path}: line 2: empty group"),
            (
                "group,sample_id,class,response\na,s1,bonafide,0.1\n",
                "{path}: bad header: column order must be sample_id,group,class,response",
            ),
        ],
        ids=["empty-sample-id", "empty-group", "columns-out-of-order"],
    )
    def test_bad_response_csv(self, tmp_path, capsys, text, message):
        path = tmp_path / "responses.csv"
        path.write_text(text)
        assert main(["eer", "--data", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")

    def test_unreadable_files(self, tmp_path, capsys):
        # not UTF-8, or a field over csv's size limit: one error line, exit 1
        data, codes = tmp_path / "responses.csv", tmp_path / "codes.csv"
        data.write_bytes(b"sample_id,group,class,response\ns\xff1,a,bonafide,0.5\n")
        assert main(["eer", "--data", str(data)]) == 1
        assert capsys.readouterr() == ("", f"error: {data}: line 2: not UTF-8 text (byte 0xff)\n")
        codes.write_text("#K=4\nsample_id,group,c0\n" + "s" * 200_000 + ",a,1\n")
        assert main(["svm-sep", "--codes", str(codes)]) == 1
        limit = csv.field_size_limit()
        assert capsys.readouterr() == (
            "", f"error: {codes}: line 3: field larger than field limit ({limit})\n"
        )

    def test_row_error_names_the_codes_file(self, tmp_path, capsys, synth_dir):
        # --data reads cleanly, so the one error line must say which input
        # holds the bad row: the codes file, with a 0xff byte on line 3
        data = synth_dir / "responses.csv"
        lines = (synth_dir / "codes.csv").read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        codes = tmp_path / "bad-codes.csv"
        codes.write_bytes(b"\n".join(lines))
        out = tmp_path / "audit"
        assert main(["audit", "--data", str(data), "--codes", str(codes), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {codes}: line 3: not UTF-8 text (byte 0xff)\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "size_line, message",
        [
            ("#K=x", "{path}: bad #K= line: '#K=x'"),
            ("#K=1", "{path}: codebook size must be >= 2, got 1"),
            ("#K=4", "need at least two groups in {path}"),
        ],
    )
    def test_bad_codes_csv(self, tmp_path, capsys, size_line, message):
        path = tmp_path / "codes.csv"
        rows = "".join(f"s{i},solo,{i % 4}\n" for i in range(6))
        path.write_text(f"{size_line}\nsample_id,group,c0\n{rows}")
        assert main(["svm-sep", "--codes", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")

    def test_sweep_of_one_group_with_itself(self, synth_dir, capsys):
        data = str(synth_dir / "responses.csv")
        assert main(["sweep", "--data", data, "--group-a", "beta", "--group-b", "beta"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: a pair needs two distinct groups, got 'beta' twice\n",
        )


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

    def test_flag_table_is_the_audit_config_in_field_order(self):
        assert list(cli_module._FLAGS) == [f.name for f in fields(AuditConfig)]

    @pytest.mark.parametrize(
        "command, options",
        [
            (
                "audit",
                "-h --data --codes --out --alpha --quantiles --dip-replicas "
                "--codes-k --seed --svm-c --svm-gamma --svm-folds --feature-mode",
            ),
            (
                "svm-sep",
                "-h --codes --codes-k --seed --svm-c --svm-gamma --svm-folds --feature-mode",
            ),
        ],
        ids=["audit", "svm-sep"],
    )
    def test_subcommand_options_in_order(self, capsys, command, options):
        # the usage block of --help lists every option string once, in order
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage) == options.split()

    def test_package_exports_every_module_name(self):
        names = biasaudit.__all__
        assert len(names) == len(set(names))
        for name in names:
            getattr(biasaudit, name)
        assert set(PUBLIC_NAMES) <= set(names)


# the package's public names; each must stay exported from the top level
PUBLIC_NAMES = """
__version__ AuditConfig AuditError AuditReport BiasCurve BiasRegion CodeMatrix
Dataset DegenerateDataError DipResult EmptyDatasetError FeatureMode
GroupPair InsufficientDataError MwuMode OperatingPoint ParameterError RocCurve RowError
SchemaError Sidedness SummaryStats SvmModel TestResult UnknownGroupError attack_responses
auc_from_scores bias_sweep bona_fide_responses chi2_survival chi_squared_one_sided
cross_validated_auc decision_score demo_dataset dip_critical_value dip_statistic
eer_operating_point featurize gen_code_vectors gen_lognormal gen_mixture group_pairs hter_at
inject_outliers load_codes_csv load_csv mann_whitney_u outcomes_at render_json render_plots
roc_curve run_audit save_codes_csv save_csv shapiro_wilk significant_regions summary_stats
threshold_for_bonafide_error train_svm_smo
""".split()
