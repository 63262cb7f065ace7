"""Self-tests of the benchmark: ``python3 -m pytest bench -q`` from the
repository root."""
import contextlib
import copy
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from biasaudit.cli import main  # noqa: E402


@pytest.mark.parametrize("name", ["quickstart", "large-10k"])
def test_inputs_are_deterministic_in_the_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    _, _, first = workloads.write_inputs(w, 3, tmp_path / "a")
    _, _, again = workloads.write_inputs(w, 3, tmp_path / "b")
    _, _, other = workloads.write_inputs(w, 4, tmp_path / "c")
    assert first == again
    assert set(first) == set(other)
    assert all(first[f] != other[f] for f in first)


def test_large_inputs_have_the_advertised_shape():
    w = workloads.WORKLOADS["large-10k"]
    data = workloads.generate(w, 1)
    sizes = {g: len(v) for g, v in data["bona"].items()}
    assert sizes == {"alpha": 10000, "beta": 10000, "gamma": 10000, "delta": 10000, "epsilon": 2500}
    assert len(data["attack"]["epsilon"]) == 0
    assert data["codes"] is None


def test_self_times_on_a_nested_call_tree():
    spans = [
        tracing.Span("main", 0.0, 10.0, None, "toy"),
        tracing.Span("run_audit", 1.0, 4.0, 0, "toy"),
        tracing.Span("bias_sweep", 2.0, 3.0, 1, "toy"),
        tracing.Span("render_json", 5.0, 9.0, 0, "toy"),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == spans[0].end - spans[0].start


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


TINY = workloads.Workload("tiny", workloads._four(200), dip_replicas=300, codes=False)


@pytest.fixture(scope="module")
def audited(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    data, paths, _ = workloads.write_inputs(TINY, 5, tmp / "inputs")
    argv = ["audit", "--data", str(paths["responses.csv"]), "--out", str(tmp / "out"),
            "--dip-replicas", str(TINY.dip_replicas)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return json.loads((tmp / "out" / "report.json").read_text()), data


def test_checks_pass_on_a_real_report(audited):
    report, data = audited
    assert checks.check_report(report, data, TINY.bimodal_groups) == []


def _corrupt_mwu_p(r):
    r["mann_whitney"]["alpha|beta"]["p_value"] *= 1.01


def _corrupt_mwu_u(r):
    r["mann_whitney"]["beta|gamma"]["statistic"] += 1


def _corrupt_sweep_p(r):
    p = r["bias_sweeps"]["alpha|delta"]["p_values"]
    p[int(np.argmin(p))] *= 1.5


def _corrupt_sweep_grid(r):
    r["bias_sweeps"]["alpha|gamma"]["grid"].pop()


def _corrupt_anchor_table(r):
    r["chi_squared"]["delta|gamma"]["q=0.05"]["table"]["accepted_a"] += 1


def _corrupt_anchor_threshold(r):
    r["anchor_thresholds"][0]["threshold"] *= 1.001


def _corrupt_eer(r):
    r["operating_points"]["eer"]["threshold"] *= 1.001


def _corrupt_bimodal(r):
    r["per_group"]["delta"]["dip_test"]["unimodal"] = True


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (_corrupt_mwu_p, lambda r, d: checks.check_mann_whitney(r, d["bona"])),
        (_corrupt_mwu_u, lambda r, d: checks.check_mann_whitney(r, d["bona"])),
        (_corrupt_sweep_p, lambda r, d: checks.check_sweeps(r, d["bona"])),
        (_corrupt_sweep_grid, lambda r, d: checks.check_sweeps(r, d["bona"])),
        (_corrupt_anchor_table, lambda r, d: checks.check_anchors(r, d["bona"])),
        (_corrupt_anchor_threshold, lambda r, d: checks.check_anchors(r, d["bona"])),
        (_corrupt_eer, lambda r, d: checks.check_eer(r, d["bona"], d["attack"])),
        (_corrupt_bimodal, lambda r, d: checks.check_bimodal(r, TINY.bimodal_groups)),
    ],
)
def test_each_content_check_fails_on_a_corrupted_report(audited, corrupt, check):
    report, data = audited
    assert check(report, data) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert check(bad, data) != []


def test_run_level_checks_fail_on_bad_runs():
    assert checks.check_exit_codes([0, 0]) == []
    assert checks.check_exit_codes([0, 1]) != []
    assert checks.check_identical([{"report.json": "x"}, {"report.json": "x"}]) == []
    assert checks.check_identical([{"report.json": "x"}, {"report.json": "y"}]) != []
    assert checks.check_identical([{"report.json": "x"}, {}]) != []
