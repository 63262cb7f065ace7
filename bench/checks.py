"""Output checks against independent oracles.

Each check takes the parsed ``report.json`` and the generated input arrays
and returns a list of problems (empty when it passes). Nothing here compares
against a stored digest of an earlier report: the Monte Carlo streams of the
dip null may legitimately change, and these checks must survive that.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2_contingency, mannwhitneyu

SWEEP_SAMPLE = 64  # sweep thresholds re-checked per pair, plus the min-p one
REL_TOL = 1e-6


def _close(x: float, ref: float) -> bool:
    return math.isclose(x, ref, rel_tol=REL_TOL, abs_tol=1e-300)


def _pairs(report: dict) -> list[tuple[str, str, str]]:
    groups = sorted(report["groups"])
    return [(f"{a}|{b}", a, b) for i, a in enumerate(groups) for b in groups[i + 1 :]]


def _one_sided_chi2(acc_a: int, rej_a: int, acc_b: int, rej_b: int) -> float:
    """Halved Pearson p without continuity correction; 1 when rates tie."""
    if rej_a * (acc_b + rej_b) == rej_b * (acc_a + rej_a):
        return 1.0
    table = np.array([[acc_a, rej_a], [acc_b, rej_b]])
    return chi2_contingency(table, correction=False)[1] / 2.0


def _counts(sorted_values: np.ndarray, t: float) -> tuple[int, int]:
    accepted = int(np.searchsorted(sorted_values, t, side="right"))
    return accepted, len(sorted_values) - accepted


def check_exit_codes(codes: list[int]) -> list[str]:
    return [f"audit {i} exited {c}" for i, c in enumerate(codes) if c != 0]


def check_identical(digests: list[dict[str, str]]) -> list[str]:
    """Every repetition wrote the same files with the same bytes."""
    return [f"repetition {i} output differs from repetition 0" for i, d in enumerate(digests) if d != digests[0]]


def check_mann_whitney(report: dict, bona: dict) -> list[str]:
    problems = []
    for key, a, b in _pairs(report):
        got = report["mann_whitney"].get(key)
        ref = mannwhitneyu(bona[a], bona[b], use_continuity=True, alternative="two-sided", method="asymptotic")
        if got is None or got["statistic"] != ref.statistic or not _close(got["p_value"], ref.pvalue):
            problems.append(f"mann_whitney {key}: {got} vs scipy U={ref.statistic} p={ref.pvalue}")
    return problems


def check_sweeps(report: dict, bona: dict) -> list[str]:
    problems = []
    for key, a, b in _pairs(report):
        sweep = report["bias_sweeps"].get(key)
        a_s, b_s = np.sort(bona[a]), np.sort(bona[b])
        grid = np.unique(np.concatenate([a_s, b_s]))
        if sweep is None or not np.array_equal(np.asarray(sweep["grid"]), grid):
            problems.append(f"bias_sweeps {key}: grid is not the distinct pooled responses")
            continue
        p = sweep["p_values"]
        sample = set(np.linspace(0, len(grid) - 1, SWEEP_SAMPLE).astype(int).tolist())
        sample.add(int(np.argmin(p)))
        for i in sorted(sample):
            ref = _one_sided_chi2(*_counts(a_s, grid[i]), *_counts(b_s, grid[i]))
            if not _close(p[i], ref):
                problems.append(f"bias_sweeps {key}[{i}] t={grid[i]!r}: p {p[i]!r} vs {ref!r}")
    return problems


def check_anchors(report: dict, bona: dict) -> list[str]:
    problems = []
    pooled = np.sort(np.concatenate(list(bona.values())))
    n = len(pooled)
    distinct = np.unique(pooled)
    rejected = n - np.searchsorted(pooled, distinct, side="right")
    thresholds = {}
    for anchor in report["anchor_thresholds"]:
        t = anchor["threshold"]
        if anchor["kind"] == "quantile":
            # smallest observed threshold rejecting at most a fraction q
            ref = float(distinct[np.flatnonzero(rejected <= anchor["quantile"] * n + 1e-9)[0]])
            if t != ref:
                problems.append(f"anchor {anchor['label']}: threshold {t!r} vs {ref!r}")
        thresholds[anchor["label"]] = t
    for key, a, b in _pairs(report):
        a_s, b_s = np.sort(bona[a]), np.sort(bona[b])
        tests = report["chi_squared"].get(key, {})
        if set(tests) != set(thresholds):
            problems.append(f"chi_squared {key}: anchors {sorted(tests)} vs {sorted(thresholds)}")
            continue
        for label, t in thresholds.items():
            table = tests[label]["table"]
            counts = (*_counts(a_s, t), *_counts(b_s, t))
            got = (table["accepted_a"], table["rejected_a"], table["accepted_b"], table["rejected_b"])
            ref = _one_sided_chi2(*counts)
            if got != counts or not _close(tests[label]["p_value"], ref):
                problems.append(f"chi_squared {key} {label}: {got} p={tests[label]['p_value']!r} vs {counts} p={ref!r}")
    return problems


def check_eer(report: dict, bona: dict, attack: dict) -> list[str]:
    bona_s = np.sort(np.concatenate(list(bona.values())))
    att_s = np.sort(np.concatenate(list(attack.values())))
    pooled = np.unique(np.concatenate([bona_s, att_s]))
    grid = np.concatenate([[np.nextafter(pooled[0], -np.inf)], pooled, [np.nextafter(pooled[-1], np.inf)]])
    far = np.searchsorted(att_s, grid, side="right") / len(att_s)
    frr = (len(bona_s) - np.searchsorted(bona_s, grid, side="right")) / len(bona_s)
    # smallest |far - frr|, then smallest max(far, frr), then smallest threshold
    best = np.lexsort((grid, np.maximum(far, frr), np.abs(far - frr)))[0]
    got = report.get("operating_points", {}).get("eer", {})
    if got.get("threshold") != grid[best] or got.get("far") != far[best] or got.get("frr") != frr[best]:
        return [f"eer: {got} vs threshold={grid[best]!r} far={far[best]!r} frr={frr[best]!r}"]
    return []


def check_bimodal(report: dict, bimodal: list[str]) -> list[str]:
    return [
        f"group {g}: bimodal but reported unimodal"
        for g in bimodal
        if report["per_group"][g]["dip_test"]["unimodal"] is not False
    ]


def check_report(report: dict, data: dict, bimodal: list[str]) -> list[str]:
    """Every content check of one report; the inputs are the arrays written
    to the response CSV."""
    bona, attack = data["bona"], {g: v for g, v in data["attack"].items() if len(v)}
    return (
        check_mann_whitney(report, bona)
        + check_sweeps(report, bona)
        + check_anchors(report, bona)
        + check_eer(report, bona, attack)
        + check_bimodal(report, bimodal)
    )
