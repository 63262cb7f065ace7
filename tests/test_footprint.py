"""What a fresh ``biasaudit`` process loads: an audit imports none of
``numpy.ma``, ``logging``, ``statistics`` or ``decimal``, and the commands that
need ``logging`` or ``statistics`` import them themselves."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biasaudit
from biasaudit.cli import main
from biasaudit.data import load_csv

SRC = str(Path(biasaudit.__file__).parents[1])


def _python(script, *args):
    """Runs ``script`` in a fresh interpreter with the package on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["synth", "--out", str(out), "--n-per-group", "200", "--seed", "7"]) == 0
    return out


# runs one command in this process, then prints which of the modules it holds
LOADED = (
    "import json, sys\n"
    "from biasaudit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "mods = ['numpy.ma', 'logging', 'statistics', 'decimal']\n"
    "print(json.dumps([code, [m for m in mods if m in sys.modules]]))\n"
)


def _loaded(*argv):
    done = _python(LOADED, *argv)
    return json.loads(done.stdout.splitlines()[-1]), done


def test_audit_imports_no_unused_module(demo, tmp_path):
    argv = ["audit", "--data", demo / "responses.csv", "--codes", demo / "codes.csv"]
    (code, mods), _ = _loaded(*argv, "--out", tmp_path / "audit")
    assert (code, mods) == (0, [])
    assert (tmp_path / "audit" / "report.json").exists()


def test_sw_imports_statistics_itself(demo):
    (code, mods), done = _loaded("sw", "--data", demo / "responses.csv", "--group", "alpha")
    assert code == 0 and "statistics" in mods
    assert done.stdout.splitlines()[0].startswith("W 0.93")


def test_duplicate_sample_id_warns_in_a_fresh_process(tmp_path):
    rows = [f"s{i % 9},{g},bonafide,{0.1 + i / 100}" for g in "ab" for i in range(10)]
    data = tmp_path / "dupes.csv"
    data.write_text("\n".join(["sample_id,group,class,response"] + rows) + "\n")
    (code, mods), done = _loaded("mwu", "--data", data, "--group-a", "a", "--group-b", "b")
    assert code == 0 and "logging" in mods
    assert "dataset contains 9 duplicated sample_id value(s), e.g. 's0'" in done.stderr


def test_duplicate_sample_id_warning_names_its_logger(write_csv, caplog):
    path = write_csv("sample_id,group,class,response\nx,a,bonafide,0.1\nx,b,bonafide,0.2\n")
    with caplog.at_level("WARNING"):
        load_csv(path)
    assert [(r.name, r.levelname) for r in caplog.records] == [("biasaudit.data", "WARNING")]
    assert caplog.messages == ["dataset contains 1 duplicated sample_id value(s), e.g. 'x'"]
