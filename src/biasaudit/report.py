"""End-to-end audit: per-group distribution summaries, pairwise error-rate
tests at anchor thresholds, threshold sweeps with significance regions, and
optional latent-code separability.

Reports serialize to canonical JSON: keys sorted, floats at shortest
round-trip precision, no timestamps. Two runs with the same inputs and seed
produce byte-identical bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import __version__
from .data import (
    Dataset,
    GroupPair,
    _read_only,
    attack_responses,
    bona_fide_responses,
    group_pairs,
)
from .dip import DipResult, dip_critical_value, dip_statistic
from .errors import InsufficientDataError, ParameterError
from .stats import (
    ContingencyTable2x2,
    SummaryStats,
    TestResult,
    chi_squared_one_sided,
    mann_whitney_u,
    summary_stats,
)
from .svm import CodeMatrix, FeatureMode, _pair_rows, _pairwise_aucs
from .thresholds import (
    BiasCurve,
    BiasRegion,
    OperatingPoint,
    bias_sweep,
    eer_operating_point,
    hter_at,
    outcomes_at,
    roc_curve,
    significant_regions,
    threshold_for_bonafide_error,
)

__all__ = ["AuditConfig", "AuditReport", "run_audit", "render_json"]


def _anchor_label(q: float) -> str:
    """The anchor's key in ``chi_squared``, so it must be unique."""
    return f"q={q:g}"


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for one audit run; everything downstream is deterministic in
    these plus the input data."""

    alpha: float = 0.05
    quantiles: tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.20)
    dip_bins: int = 50
    dip_replicas: int = 10000
    seed: int = 12345
    svm_c: float = 1.0
    svm_gamma: float | None = None  # None = auto (1 / (d * var))
    svm_folds: int = 5
    feature_mode: FeatureMode = FeatureMode.SCALED_INDICES

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.quantiles:
            raise ParameterError("need at least one anchor quantile")
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise ParameterError(f"quantiles must be in [0, 1], got {q}")
        labels = [_anchor_label(q) for q in self.quantiles]
        if len(set(labels)) < len(labels):
            raise ParameterError(f"duplicate anchor labels: {', '.join(labels)}")
        if self.dip_bins < 2:
            raise ParameterError(f"dip_bins must be >= 2, got {self.dip_bins}")
        if self.dip_replicas < 1:
            raise ParameterError(f"dip_replicas must be >= 1, got {self.dip_replicas}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not self.svm_c > 0:
            raise ParameterError(f"svm_c must be > 0, got {self.svm_c}")
        if self.svm_gamma is not None and not self.svm_gamma > 0:
            raise ParameterError(f"svm_gamma must be > 0, got {self.svm_gamma}")
        if self.svm_folds < 2:
            raise ParameterError(f"svm_folds must be >= 2, got {self.svm_folds}")

    def to_dict(self) -> dict:
        d = _fields(self)
        if self.svm_gamma is None:
            d["svm_gamma"] = "auto"
        return d


@dataclass(frozen=True, eq=False)
class PairAnalysis:
    """Everything computed for one group pair. ``mann_whitney.direction``
    names the stochastically larger group, not "a" or "b". ``hist_edges``
    (bins + 1 floats) and ``hist_counts`` (rows a and b, bins ints each) hold
    the overlaid bona fide histogram behind the pair's plot; not serialized."""

    pair: GroupPair
    chi_squared: dict[str, tuple[ContingencyTable2x2, TestResult]]
    mann_whitney: TestResult
    curve: BiasCurve
    regions: tuple[BiasRegion, ...]
    hist_edges: np.ndarray
    hist_counts: np.ndarray


@dataclass(frozen=True)
class AuditReport:
    version: str
    config: AuditConfig
    groups: tuple[str, ...]
    n_bona_fide: int
    n_attack: int
    per_group_summary: dict[str, SummaryStats]
    per_group_dip: dict[str, DipResult]
    anchors: tuple[dict, ...]
    eer: OperatingPoint | None
    per_group_hter: dict[str, OperatingPoint] | None
    pairs: tuple[PairAnalysis, ...]
    svm_auc: dict[str, float] | None

    def to_dict(self) -> dict:
        d: dict = {
            "toolkit_version": self.version,
            "config": self.config.to_dict(),
            "groups": list(self.groups),
            "record_counts": {
                "bona_fide": self.n_bona_fide,
                "attack": self.n_attack,
                "total": self.n_bona_fide + self.n_attack,
            },
            "per_group": {
                g: {
                    "summary": _fields(self.per_group_summary[g]),
                    "dip_test": _fields(self.per_group_dip[g]),
                }
                for g in self.groups
            },
            "anchor_thresholds": [dict(a) for a in self.anchors],
            "chi_squared": {
                pa.pair.key: {
                    label: {**_fields(res), "table": _counts(table)}
                    for label, (table, res) in pa.chi_squared.items()
                }
                for pa in self.pairs
            },
            "mann_whitney": {pa.pair.key: _fields(pa.mann_whitney) for pa in self.pairs},
            "bias_sweeps": {
                pa.pair.key: {
                    "alpha": pa.curve.alpha,
                    "grid": pa.curve.grid.tolist(),
                    "p_values": pa.curve.p_values.tolist(),
                    "regions": [_fields(r) for r in pa.regions],
                }
                for pa in self.pairs
            },
        }
        if self.eer is not None:
            ops: dict = {"eer": _fields(self.eer)}
            if self.per_group_hter:
                ops["per_group_hter"] = {
                    g: _fields(p) for g, p in self.per_group_hter.items()
                }
            d["operating_points"] = ops
        if self.svm_auc is not None:
            d["svm_auc"] = dict(self.svm_auc)
        return d


def _fields(obj) -> dict:
    """A result dataclass as its fields by name, with enums as their values
    and tuples as lists, so the dict holds JSON types only."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = v.value if isinstance(v, Enum) else list(v) if isinstance(v, tuple) else v
    return out


def _counts(table: ContingencyTable2x2) -> dict:
    """The table's four counts by name; the group names stay out."""
    return {k: getattr(table, k) for k in ("accepted_a", "rejected_a", "accepted_b", "rejected_b")}


def _analyze_pair(
    pair: GroupPair,
    bona: dict[str, np.ndarray],
    anchors: Sequence[dict],
    alpha: float,
    bins: int,
) -> PairAnalysis:
    a_s, b_s = bona[pair.a], bona[pair.b]
    chi2 = {}
    for anchor in anchors:
        t = anchor["threshold"]
        acc_a, rej_a = outcomes_at(a_s, t)
        acc_b, rej_b = outcomes_at(b_s, t)
        table = ContingencyTable2x2(acc_a, rej_a, acc_b, rej_b, pair.a, pair.b)
        chi2[anchor["label"]] = (table, chi_squared_one_sided(table))
    mwu = mann_whitney_u(a_s, b_s)
    mwu = replace(mwu, direction={"a": pair.a, "b": pair.b}.get(mwu.direction))
    curve = bias_sweep(a_s, b_s, alpha=alpha, pair=pair)
    regions = tuple(significant_regions(curve))
    lo, hi = min(a_s[0], b_s[0]), max(a_s[-1], b_s[-1])
    if lo == hi:  # degenerate: a single response value
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.stack([np.histogram(a_s, edges)[0], np.histogram(b_s, edges)[0]])
    return PairAnalysis(
        pair=pair,
        chi_squared=chi2,
        mann_whitney=mwu,
        curve=curve,
        regions=regions,
        hist_edges=_read_only(edges),
        hist_counts=_read_only(counts),
    )


def _operating_points(ds: Dataset) -> tuple[OperatingPoint, dict[str, OperatingPoint]]:
    """The pooled EER point, and the HTER at its threshold of each group that
    has attack rows. Raises InsufficientDataError without attack rows."""
    eer = eer_operating_point(roc_curve(bona_fide_responses(ds), attack_responses(ds)))
    per_group_hter = {}
    for g in ds.groups():
        att_g = attack_responses(ds, g)
        if len(att_g):
            per_group_hter[g] = hter_at(bona_fide_responses(ds, g), att_g, eer.threshold)
    return eer, per_group_hter


def _separability(codes: CodeMatrix, groups: Sequence[str], cfg: AuditConfig) -> dict[str, float]:
    """Cross-validated SVM AUC of every pair of ``groups`` on ``codes``, with
    the SVM values of ``cfg``."""
    return _pairwise_aucs(
        codes, groups, cfg.feature_mode, cfg.svm_c, cfg.svm_gamma, cfg.svm_folds, cfg.seed
    )


def _dip_tests(
    samples: dict[str, np.ndarray],
    alpha: float,
    replicas: int,
    seed: int,
    bins: int | None,
) -> dict[str, DipResult]:
    """The dip test of each sample. The null depends only on the sample
    size, so the samples of one size share one sequential null, drawn until
    every one of their dips is settled (at most ``replicas``)."""
    dips = {g: dip_statistic(v, bins=bins) for g, v in samples.items()}
    by_n: dict[int, list[str]] = {}
    for g, v in samples.items():
        by_n.setdefault(len(v), []).append(g)
    out = {}
    for n, names in by_n.items():
        cv = dip_critical_value(
            n, alpha, replicas, seed, bins=bins, observed=[dips[g] for g in names]
        )
        for g in names:
            out[g] = DipResult(
                dip=dips[g],
                n=n,
                bins=bins,
                critical_value=float(cv),
                alpha=alpha,
                unimodal=dips[g] < cv,
                replicas=cv.replicas,
                critical_value_se=cv.se,
            )
    return {g: out[g] for g in samples}


def run_audit(
    ds: Dataset,
    cfg: AuditConfig = AuditConfig(),
    codes: CodeMatrix | None = None,
) -> AuditReport:
    """Run the full audit over every group pair.

    Needs >= 2 groups and >= 4 bona fide rows per group. Attack rows are
    optional; without them the EER/HTER section is omitted and anchor
    thresholds come from bona fide quantiles alone. ``codes`` enables the
    per-pair SVM separability section; when given, every dataset group must
    appear among the code vectors with at least ``cfg.svm_folds`` samples,
    and every pair's training folds must fit the SVM kernel limit. These
    checks run before any statistic is computed.
    """
    pairs = group_pairs(ds)  # also enforces >= 2 groups
    groups = tuple(ds.groups())

    bona: dict[str, np.ndarray] = {}
    for g in groups:
        vals = bona_fide_responses(ds, g)
        if len(vals) < 4:
            raise InsufficientDataError(
                f"group {g!r} has {len(vals)} bona fide rows; the audit needs >= 4"
            )
        bona[g] = vals
    if codes is not None:
        # fail before the dip null, not after
        _pair_rows(codes, groups, cfg.svm_folds)
    pooled_bona = bona_fide_responses(ds)
    pooled_attack = attack_responses(ds)

    per_group_summary = {g: summary_stats(bona[g]) for g in groups}
    per_group_dip = _dip_tests(bona, cfg.alpha, cfg.dip_replicas, cfg.seed, cfg.dip_bins)

    # Anchor thresholds: pooled bona fide error quantiles, plus the pooled
    # EER threshold when attack rows exist.
    anchors = [
        {
            "label": _anchor_label(q),
            "kind": "quantile",
            "quantile": q,
            "threshold": threshold_for_bonafide_error(pooled_bona, q),
        }
        for q in cfg.quantiles
    ]
    eer = per_group_hter = None
    if len(pooled_attack):
        eer, per_group_hter = _operating_points(ds)
        anchors.append({"label": "eer", "kind": "eer", "threshold": eer.threshold})

    analyses = tuple(
        _analyze_pair(p, bona, anchors, cfg.alpha, cfg.dip_bins) for p in pairs
    )

    svm_auc = None if codes is None else _separability(codes, groups, cfg)

    return AuditReport(
        version=__version__,
        config=cfg,
        groups=groups,
        n_bona_fide=len(pooled_bona),
        n_attack=len(pooled_attack),
        per_group_summary=per_group_summary,
        per_group_dip=per_group_dip,
        anchors=tuple(anchors),
        eer=eer,
        per_group_hter=per_group_hter,
        pairs=analyses,
        svm_auc=svm_auc,
    )


def render_json(report: AuditReport) -> bytes:
    """Canonical JSON bytes: sorted keys, 2-space indent, trailing newline.

    Floats use Python's shortest round-trip repr (up to 17 significant
    digits), so equal reports render to identical bytes.
    """
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")
