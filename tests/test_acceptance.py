"""Acceptance checks: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to see them). Every oracle here is
independent of the library code under test: exact enumeration for rank
statistics, conditional mid-p enumeration for rate tests, brute-force
counting for operating points, and closed-form constructions for the dip.
"""
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from biasaudit.cli import main
from biasaudit.dip import dip_critical_value, dip_statistic
from biasaudit.stats import (
    MwuMode,
    chi_squared_one_sided,
    mann_whitney_u,
    shapiro_wilk,
)
from biasaudit.svm import auc_from_scores, cross_validated_auc
from biasaudit.synth import (
    gen_code_vectors,
    gen_lognormal,
    gen_mixture,
    inject_outliers,
)
from biasaudit.thresholds import (
    bias_sweep,
    eer_operating_point,
    hter_at,
    roc_curve,
    significant_regions,
)


def enum_mwu_p(a, b):
    """Two-sided permutation p by full enumeration (doubled midranks)."""
    pooled = sorted(list(a) + list(b))
    n, n_a, n_b = len(pooled), len(a), len(b)
    doubled = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1] == pooled[i]:
            j += 1
        for k in range(i, j + 1):
            doubled[k] = i + j + 2
        i = j + 1
    du_obs = sum(2 * (x > y) + (x == y) for x in a for y in b)
    dev_obs = abs(2 * du_obs - 2 * n_a * n_b)
    hits = total = 0
    for pos in itertools.combinations(range(n), n_a):
        du = sum(doubled[p] for p in pos) - n_a * (n_a + 1)
        hits += abs(2 * du - 2 * n_a * n_b) >= dev_obs
        total += 1
    return hits / total


def midp_oracle(acc_a, rej_a, acc_b, rej_b):
    """One-sided conditional mid-p for the higher-rejection-rate group:
    hypergeometric weight strictly beyond the observed table plus half the
    observed weight, in exact rational arithmetic."""
    row_a, row_b = acc_a + rej_a, acc_b + rej_b
    if rej_a * row_b < rej_b * row_a:  # orient so group a is the worse one
        acc_a, rej_a, acc_b, rej_b = acc_b, rej_b, acc_a, rej_a
        row_a, row_b = row_b, row_a
    n = row_a + row_b
    col_rej = rej_a + rej_b
    ge = 0
    eq = 0
    for k in range(max(0, col_rej - row_b), min(col_rej, row_a) + 1):
        w = math.comb(row_a, k) * math.comb(row_b, col_rej - k)
        if k > rej_a:
            ge += w
        elif k == rej_a:
            eq = w
    return float(Fraction(2 * ge + eq, 2 * math.comb(n, col_rej)))


def test_criterion_1_dip_critical_value_calibration():
    t0 = time.perf_counter()
    cv = dip_critical_value(200, 0.05, 10000, seed=7007)
    elapsed = time.perf_counter() - t0
    assert 0.033 <= cv <= 0.041
    assert elapsed < 60.0
    print(f"criterion 1: PASS (cv(200, 0.05, 10000)={cv:.5f} in {elapsed:.1f}s)")


def test_criterion_2_mwu_exact_against_enumeration():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(200):
        n_a = int(rng.integers(2, 9))
        n_b = int(rng.integers(2, 9))
        a = list(rng.normal(size=n_a))
        b = list(rng.normal(size=n_b))
        p = mann_whitney_u(a, b, MwuMode.EXACT).p_value
        worst = max(worst, abs(p - enum_mwu_p(a, b)))
    assert worst <= 1e-12

    gap = 0.0
    for _ in range(100):
        a = list(rng.normal(size=10))
        b = list(rng.normal(0.4, 1.0, size=10))
        p_e = mann_whitney_u(a, b, MwuMode.EXACT).p_value
        p_n = mann_whitney_u(a, b, MwuMode.NORMAL_APPROX).p_value
        gap = max(gap, abs(p_e - p_n))
    assert gap < 0.02
    print(
        f"criterion 2: PASS (200 exact vs enumeration, max err {worst:.2e}; "
        f"100 exact vs approx, max gap {gap:.4f})"
    )


def test_criterion_3_chi2_against_conditional_midp():
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    while checked < 200:
        row_a, row_b = (int(v) for v in rng.integers(250, 601, 2))
        p0 = float(rng.uniform(0.15, 0.5))
        rej_a = int(rng.binomial(row_a, p0))
        rej_b = int(rng.binomial(row_b, p0))
        acc_a, acc_b = row_a - rej_a, row_b - rej_b
        if min(row_a, row_b, rej_a + rej_b, acc_a + acc_b) < 20:
            continue
        if rej_a * row_b == rej_b * row_a:
            continue
        mine = chi_squared_one_sided(acc_a, rej_a, acc_b, rej_b).p_value
        if mine < 0.004:  # asymptotics are only claimed for moderate tails
            continue
        want = midp_oracle(acc_a, rej_a, acc_b, rej_b)
        worst = max(worst, abs(mine - want) / want)
        checked += 1
    assert worst < 0.10

    tie = chi_squared_one_sided(27, 3, 45, 5)
    assert tie.p_value == 1.0
    print(f"criterion 3: PASS (200 tables, worst mid-p rel err {worst:.3f})")


def test_criterion_4_dip_exact_families_and_bounds():
    # closed forms: k equal atoms -> 1/(2k); unequal two-atom -> min/(2n);
    # constant and evenly spaced -> the 1/(2n) floor
    for k in (2, 3, 4, 5):
        x = [float(j) for j in range(k) for _ in range(25)]
        assert dip_statistic(x) == pytest.approx(1 / (2 * k), abs=1e-12)
    for m_low, m_high in ((150, 50), (10, 190), (77, 123)):
        x = [0.0] * m_low + [1.0] * m_high
        want = min(m_low, m_high) / (2 * (m_low + m_high))
        assert dip_statistic(x) == pytest.approx(want, abs=1e-12)
    assert dip_statistic([7.0] * 40) == 1 / 80
    assert dip_statistic(list(np.arange(200.0))) == pytest.approx(1 / 400, abs=1e-12)

    rng = np.random.default_rng(4004)
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        kind = int(rng.integers(3))
        if kind == 0:
            x = rng.normal(size=n)
        elif kind == 1:
            x = rng.integers(0, 8, n).astype(float)
        else:
            x = np.concatenate(
                [rng.normal(0, 1, n // 2), rng.normal(6, 1, n - n // 2)]
            )
        d = dip_statistic(list(x))
        assert 1 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12
    print("criterion 4: PASS (exact families bitwise, 1000 samples in bounds)")


def test_criterion_5_operating_points_match_counting_oracle():
    rng = np.random.default_rng(5005)
    for _ in range(100):
        n_b = int(rng.integers(4, 51))
        n_a = int(rng.integers(4, 51))
        bona = list(rng.integers(0, 30, n_b).astype(float))
        attack = list(rng.integers(10, 40, n_a).astype(float))

        curve = roc_curve(bona, attack)
        pooled = sorted(set(bona) | set(attack))
        cands = (
            [math.nextafter(pooled[0], -math.inf)]
            + pooled
            + [math.nextafter(pooled[-1], math.inf)]
        )
        assert curve.thresholds.tolist() == cands
        best = None
        for t in cands:
            far = sum(1 for v in attack if v <= t) / n_a
            frr = sum(1 for v in bona if v > t) / n_b
            key = (abs(far - frr), max(far, frr), t)
            if best is None or key < best[0]:
                best = (key, t, far, frr)
        for t, far, frr in zip(curve.thresholds, curve.far, curve.frr):
            assert far == sum(1 for v in attack if v <= t) / n_a
            assert frr == sum(1 for v in bona if v > t) / n_b

        op = eer_operating_point(curve)
        assert (op.threshold, op.far, op.frr) == (best[1], best[2], best[3])
        assert op.hter == (best[2] + best[3]) / 2

        t = float(rng.integers(0, 40))
        h = hter_at(bona, attack, t)
        assert h.far == sum(1 for v in attack if v <= t) / n_a
        assert h.frr == sum(1 for v in bona if v > t) / n_b
    print("criterion 5: PASS (100 ROC/EER/HTER cases equal the counting oracle)")


def test_criterion_6_mechanism_detection():
    t0 = time.perf_counter()

    # (a) location shift: Mann-Whitney catches it, sweep localizes it
    a = list(gen_lognormal(-3.6, 0.45, 200, seed=101))
    b = list(gen_lognormal(-3.25, 0.45, 200, seed=102))
    mwu_shift = mann_whitney_u(a, b)
    regions_shift = significant_regions(bias_sweep(a, b))
    assert mwu_shift.p_value < 1e-6
    assert len(regions_shift) >= 1

    # (b) dispersion shift: rank test is blind, both tails light up
    a = list(gen_lognormal(-3.6, 0.45, 200, seed=201))
    b = list(gen_lognormal(-3.6, 0.90, 200, seed=202))
    mwu_disp = mann_whitney_u(a, b)
    regions_disp = significant_regions(bias_sweep(a, b))
    assert mwu_disp.p_value > 0.05
    assert len(regions_disp) >= 2

    # (c) bimodality: the dip rejects unimodality, sweep agrees
    a = list(gen_lognormal(-3.6, 0.25, 200, seed=301))
    mix = ((0.5, -4.3, 0.25), (0.5, -2.9, 0.25))
    b = list(gen_mixture(mix, n=200, seed=302))
    dip = dip_statistic(b)
    cv = dip_critical_value(200, 0.05, 10000, seed=12345)
    regions_mix = significant_regions(bias_sweep(a, b))
    assert dip > cv
    assert len(regions_mix) >= 2

    # (d) contaminated tail: significance persists beyond the clean maximum,
    # where only the tainted group still has rejections
    clean = list(gen_lognormal(-3.6, 0.45, 200, seed=401))
    base = gen_lognormal(-3.6, 0.45, 200, seed=402)
    tainted = list(inject_outliers(base, 0.05, 8.0, seed=403))
    regions_out = significant_regions(bias_sweep(clean, tainted))
    assert any(r.hi > max(clean) and r.worse_group == "b" for r in regions_out)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "criterion 6: PASS (shift p="
        f"{mwu_shift.p_value:.2e}; dispersion p={mwu_disp.p_value:.2f} with "
        f"{len(regions_disp)} regions; dip {dip:.4f} > cv {cv:.4f}; "
        f"tail region above clean max; {elapsed:.1f}s)"
    )


def test_criterion_7_code_separability_auc():
    null_codes = gen_code_vectors(100, d=16, k=64, separability=0.0, seed=11)
    auc_null = cross_validated_auc(null_codes, folds=5, seed=0)
    assert 0.45 <= auc_null <= 0.55

    split_codes = gen_code_vectors(100, d=16, k=64, separability=1.0, seed=11)
    auc_split = cross_validated_auc(split_codes, folds=5, seed=0)
    assert auc_split >= 0.99

    rng = np.random.default_rng(707)
    for _ in range(100):
        pos = list(rng.integers(0, 15, int(rng.integers(1, 30))).astype(float))
        neg = list(rng.integers(0, 15, int(rng.integers(1, 30))).astype(float))
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        assert auc_from_scores(pos, neg) == wins / (len(pos) * len(neg))
    print(
        f"criterion 7: PASS (null auc {auc_null:.4f}, split auc {auc_split:.4f}, "
        "100 AUC cases equal pair counting)"
    )


def test_criterion_8_shapiro_wilk_reference_and_power():
    x = [0.139, 0.157, 0.175, 0.256, 0.344, 0.413, 0.503, 0.577, 0.614,
         0.655, 0.954, 1.392, 1.557, 1.648, 1.690, 1.994, 2.174, 2.206,
         3.245, 3.510, 3.571, 4.354, 4.980, 6.084, 8.351]
    res = shapiro_wilk(x)
    assert res.statistic == pytest.approx(0.83467, abs=1e-3)
    assert res.p_value == pytest.approx(0.000914, abs=1e-3)

    rng = np.random.default_rng(42)
    skewed = list(np.exp(-3.6 + 0.45 * rng.standard_normal(500)))
    p_skew = shapiro_wilk(skewed).p_value
    assert p_skew < 0.01
    print(
        f"criterion 8: PASS (reference W={res.statistic:.5f} p={res.p_value:.6f}; "
        f"lognormal n=500 p={p_skew:.2e})"
    )


def test_criterion_9_cli_end_to_end_determinism(tmp_path):
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--n-per-group", "60", "--seed", "9"]) == 0
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(
            [
                "audit",
                "--data", str(synth / "responses.csv"),
                "--codes", str(synth / "codes.csv"),
                "--out", str(out),
                "--dip-replicas", "1500",
            ]
        )
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]

    report = json.loads(blobs[0])
    for section in ("chi_squared", "mann_whitney", "bias_sweeps", "svm_auc"):
        assert len(report[section]) == 6, section
    print(
        "criterion 9: PASS (synth->audit byte-identical, "
        f"{len(blobs[0])} bytes, 6 entries per pair section)"
    )
