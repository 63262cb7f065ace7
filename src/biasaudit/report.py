"""End-to-end audit: per-group distribution summaries, pairwise error-rate
tests at anchor thresholds, threshold sweeps with significance regions, and
optional latent-code separability.

Reports serialize to canonical JSON: keys sorted, floats at shortest
round-trip precision, no timestamps. Two runs with the same inputs and seed
produce byte-identical bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .data import (
    CodeMatrix,
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
    _COUNTS,
    SummaryStats,
    TestResult,
    _distinct,
    chi_squared_one_sided,
    mann_whitney_u,
    summary_stats,
)
from .svm import FeatureMode, _pair_rows, cross_validated_auc
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


def _is_real(v) -> bool:
    """An int or a float, numpy's float64 included, but not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _anchor_label(q: float) -> str:
    """The anchor's key in ``chi_squared``, so it must be unique. AuditConfig
    stores a quantile of -0.0 as 0.0, so a zero given with both signs is
    refused as a duplicate."""
    return f"q={q:g}"


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for one audit run; everything downstream is deterministic in
    these plus the input data."""

    alpha: float = 0.05
    quantiles: tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.20)
    dip_replicas: int = 10000
    seed: int = 12345
    svm_c: float = 1.0
    svm_gamma: float | None = None  # None = auto (1 / (d * var))
    svm_folds: int = 5
    feature_mode: FeatureMode = FeatureMode.SCALED_INDICES

    def __post_init__(self):
        for name in ("alpha", "svm_c", "svm_gamma"):
            v = getattr(self, name)
            if not _is_real(v) and not (name == "svm_gamma" and v is None):
                raise ParameterError(f"{name} must be a float, got {v!r}")
        if not isinstance(self.quantiles, tuple) or not all(map(_is_real, self.quantiles)):
            raise ParameterError(f"quantiles must be a tuple of floats, got {self.quantiles!r}")
        # -0.0 + 0 is 0.0, and every other value, an int too, stays itself
        object.__setattr__(self, "quantiles", tuple(q + 0 for q in self.quantiles))
        if not isinstance(self.feature_mode, FeatureMode):
            raise ParameterError(f"feature_mode must be a FeatureMode, got {self.feature_mode!r}")
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
        for name in ("dip_replicas", "seed", "svm_folds"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParameterError(f"{name} must be an int, got {v!r}")
        if self.dip_replicas < 1:
            raise ParameterError(f"dip_replicas must be >= 1, got {self.dip_replicas}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not self.svm_c > 0:
            raise ParameterError(f"svm_c must be > 0, got {self.svm_c}")
        if self.svm_gamma is not None and not self.svm_gamma > 0:
            raise ParameterError(f"svm_gamma must be > 0, got {self.svm_gamma}")
        if not math.isfinite(self.svm_c):
            raise ParameterError(f"svm_c must be finite, got {self.svm_c}")
        if self.svm_gamma is not None and not math.isfinite(self.svm_gamma):
            raise ParameterError(f"svm_gamma must be finite, got {self.svm_gamma}")
        if self.svm_folds < 2:
            raise ParameterError(f"svm_folds must be >= 2, got {self.svm_folds}")

    def to_dict(self) -> dict:
        d = _fields(self)
        if self.svm_gamma is None:
            d["svm_gamma"] = "auto"
        return d


_HIST_BINS = 50  # the bins of each pair's plot histogram

# the separator of report.json's sweep list items, 8 spaces in; no float
# repr holds it, so splitting a series text gives back its reprs
_SERIES_SEP = ",\n        "


@dataclass(frozen=True, eq=False)
class PairAnalysis:
    """Everything computed for one group pair. ``chi_squared`` maps each
    anchor label to its four counts and the rate test on them; every
    ``direction`` names a group, not "a" or "b". ``hist_edges``
    (51 floats) and ``hist_counts`` (shape (2, 50): rows a and b) hold the
    overlaid bona fide histogram behind the pair's plot; not serialized."""

    pair: GroupPair
    chi_squared: dict[str, tuple[tuple[int, int, int, int], TestResult]]
    mann_whitney: TestResult
    curve: BiasCurve
    regions: tuple[BiasRegion, ...]
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def _series_join(reprs: Iterable[str]) -> bytes:
    return _SERIES_SEP.join(reprs).encode()


def _grid_texts(grids: list[np.ndarray]) -> list[bytes]:
    """Each grid's series text, formatting each distinct threshold among
    them once: a group's responses are in the grid of each of its pairs."""
    values = _distinct(np.concatenate(grids))
    reprs = list(map(float.__repr__, values.tolist()))
    texts = []
    for grid in grids:
        items = list(map(reprs.__getitem__, np.searchsorted(values, grid).tolist()))
        # 0.0 and -0.0 share one entry of the table; each grid writes its own
        for i in np.flatnonzero(grid == 0.0).tolist():
            items[i] = repr(float(grid[i]))
        texts.append(_series_join(items))
    return texts


def _series_texts(curves: Sequence[BiasCurve]) -> list[tuple[bytes, bytes]]:
    """Each curve's grid and p-values, each as the shortest round-trip reprs
    of its floats joined by ``_SERIES_SEP``, in ASCII bytes: the items of
    report.json's lists and the columns of the p-curve CSV. The grids go
    through ``_grid_texts``, whose table is freed before the p-values are
    formatted. A curve holds finite floats only."""
    grids = _grid_texts([c.grid for c in curves])
    return [
        (grid, _series_join(map(float.__repr__, c.p_values.tolist())))
        for c, grid in zip(curves, grids)
    ]


def _pcurve_rows(texts: tuple[bytes, bytes]) -> bytes:
    """The p-curve CSV's rows, ``threshold,p_value`` each, split out of a
    curve's series texts and joined by newlines, with no header and no final
    newline. A float repr never needs CSV quoting, so one join writes
    csv.writer's bytes."""
    grid, p_values = (text.split(_SERIES_SEP.encode()) for text in texts)
    return b"\n".join(map(b",".join, zip(grid, p_values)))


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

    @cached_property
    def _series(self) -> tuple[tuple[bytes, bytes], ...]:
        """Each pair's ``_series_texts``, in pair order, formed in one batch
        on first use, by render_json or render_plots, and held for both."""
        return tuple(_series_texts([pa.curve for pa in self.pairs]))

    def to_dict(self) -> dict:
        return self._dict(np.ndarray.tolist)

    def _dict(self, series) -> dict:
        """``to_dict()``, with each sweep's grid and p-values given as
        ``series`` of the curve's array."""
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
                    label: {**_fields(res), "table": dict(zip(_COUNTS, counts))}
                    for label, (counts, res) in pa.chi_squared.items()
                }
                for pa in self.pairs
            },
            "mann_whitney": {pa.pair.key: _fields(pa.mann_whitney) for pa in self.pairs},
            "bias_sweeps": {
                pa.pair.key: {
                    "alpha": pa.curve.alpha,
                    "grid": series(pa.curve.grid),
                    "p_values": series(pa.curve.p_values),
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


def _name_sides(res: TestResult, a: str, b: str) -> TestResult:
    """``res`` with its direction "a" or "b" replaced by the group name
    ``a`` or ``b``; a tie stays None."""
    return replace(res, direction={"a": a, "b": b}.get(res.direction))


def _analyze_pair(
    pair: GroupPair,
    bona: dict[str, np.ndarray],
    anchors: Sequence[dict],
    alpha: float,
) -> PairAnalysis:
    a_s, b_s = bona[pair.a], bona[pair.b]
    chi2 = {}
    for anchor in anchors:
        t = anchor["threshold"]
        counts = (*outcomes_at(a_s, t), *outcomes_at(b_s, t))
        chi2[anchor["label"]] = counts, _name_sides(chi_squared_one_sided(*counts), pair.a, pair.b)
    mwu = _name_sides(mann_whitney_u(a_s, b_s), pair.a, pair.b)
    curve = bias_sweep(a_s, b_s, alpha=alpha, pair=pair)
    regions = tuple(significant_regions(curve))
    lo, hi = min(a_s[0], b_s[0]), max(a_s[-1], b_s[-1])
    edges = np.linspace(lo, hi, _HIST_BINS + 1)
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
    attack = attack_responses(ds)
    if not len(attack):
        raise InsufficientDataError("no attack rows: the EER needs both classes")
    eer = eer_operating_point(roc_curve(bona_fide_responses(ds), attack))
    per_group_hter = {}
    for g in ds.groups():
        att_g = attack_responses(ds, g)
        if len(att_g):
            per_group_hter[g] = hter_at(bona_fide_responses(ds, g), att_g, eer.threshold)
    return eer, per_group_hter


def _separability(
    codes: CodeMatrix, groups: Sequence[str], cfg: AuditConfig
) -> dict[str, float]:
    """Cross-validated SVM AUC of every pair of ``groups``, in their order,
    keyed like GroupPair.key, with the SVM values of ``cfg``. Every pair is
    checked by ``_pair_rows`` before any fit; each then trains on group a's
    rows of ``codes`` then group b's."""
    rows = _pair_rows(codes, groups, cfg.svm_folds, cfg.feature_mode)
    return {
        GroupPair(a, b).key: cross_validated_auc(
            codes.take(np.concatenate([rows[a], rows[b]])),
            cfg.feature_mode, cfg.svm_c, cfg.svm_gamma, cfg.svm_folds, cfg.seed,
        )
        for a, b in combinations(groups, 2)
    }


def _dip_tests(
    samples: dict[str, np.ndarray], alpha: float, replicas: int, seed: int
) -> dict[str, DipResult]:
    """The dip test of each sample. The null depends only on the sample
    size, so the samples of one size share one sequential null, drawn until
    every one of their dips is settled (at most ``replicas``)."""
    dips = {g: dip_statistic(v) for g, v in samples.items()}
    by_n: dict[int, list[str]] = {}
    for g, v in samples.items():
        by_n.setdefault(len(v), []).append(g)
    out = {}
    for n, names in by_n.items():
        cv = dip_critical_value(n, alpha, replicas, seed, observed=[dips[g] for g in names])
        for g in names:
            out[g] = DipResult(
                dip=dips[g],
                n=n,
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
    and every pair's kernel and features must fit the SVM's 512 MiB limit.
    These checks and the SVM fits run before any other statistic.
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
    svm_auc = None if codes is None else _separability(codes, groups, cfg)
    pooled_bona = bona_fide_responses(ds)
    pooled_attack = attack_responses(ds)

    per_group_summary = {g: summary_stats(bona[g]) for g in groups}
    per_group_dip = _dip_tests(bona, cfg.alpha, cfg.dip_replicas, cfg.seed)

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

    analyses = tuple(_analyze_pair(p, bona, anchors, cfg.alpha) for p in pairs)

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


# While the rest of the report is encoded, each sweep series stands in as
# this string. A Dataset's group labels hold no control character; a
# hand-built GroupPair's label may be this string, and render_json refuses it
_SERIES_HOLE = "\x01"


def render_json(report: AuditReport) -> bytes:
    """Canonical JSON bytes: sorted keys, 2-space indent, trailing newline.

    Floats use Python's shortest round-trip repr (up to 17 significant
    digits), so equal reports render to identical bytes. The sweep series
    are the report's ``_series``, the bytes ``json.dumps`` would give them,
    spliced into the encoded rest of the report by one join, the only
    report-sized buffer made here.
    """
    encoded = json.dumps(
        report._dict(lambda _: _SERIES_HOLE), sort_keys=True, indent=2, allow_nan=False
    ).encode()
    parts = encoded.split(json.dumps(_SERIES_HOLE).encode())
    if len(parts) != 2 * len(report.pairs) + 1:
        raise ValueError(f"a group label is {_SERIES_HOLE!r}, which render_json reserves")
    pieces = [parts[0]]
    holes = iter(parts[1:])
    # sort_keys lays the holes out by pair key, then grid before p_values
    # (the count check above makes the keys unique)
    for _, texts in sorted(zip([pa.pair.key for pa in report.pairs], report._series)):
        for text in texts:
            # a list at bias_sweeps.A|B.name: items 8 spaces in, the bracket
            # 6; the text goes in as its own piece, so it is copied once
            pieces += [b"[\n        ", text, b"\n      ]", next(holes)]
    pieces.append(b"\n")
    return b"".join(pieces)
