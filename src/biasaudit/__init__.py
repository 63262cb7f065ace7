"""Bias auditing toolkit for threshold-based binary classifiers.

Given per-sample scalar responses (accept iff response <= threshold) labeled
with demographic groups, the toolkit tests whether bona fide error rates
differ between groups across the whole threshold range, screens per-group
response distributions for non-normality and multimodality, and optionally
probes whether a classifier's discrete latent codes separate the groups.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    GroupPair,
    attack_responses,
    bona_fide_responses,
    group_pairs,
    load_csv,
    save_csv,
)
from .dip import DipResult, dip_critical_value, dip_statistic
from .errors import (
    AuditError,
    DegenerateDataError,
    EmptyDatasetError,
    InsufficientDataError,
    ParameterError,
    RowError,
    SchemaError,
    UnknownGroupError,
)
from .report import AuditConfig, AuditReport, render_json, run_audit
from .plots import render_plots
from .stats import (
    ContingencyTable2x2,
    MwuMode,
    Sidedness,
    SummaryStats,
    TestResult,
    chi2_survival,
    chi_squared_one_sided,
    mann_whitney_u,
    shapiro_wilk,
    summary_stats,
)
from .svm import (
    CodeMatrix,
    FeatureMode,
    FoldSpec,
    SvmModel,
    auc_from_scores,
    cross_validated_auc,
    decision_score,
    featurize,
    load_codes_csv,
    save_codes_csv,
    train_svm_smo,
)
from .synth import (
    LognormalSpec,
    MixtureSpec,
    OutlierSpec,
    demo_dataset,
    gen_code_vectors,
    gen_lognormal,
    gen_mixture,
    inject_outliers,
)
from .thresholds import (
    BiasCurve,
    BiasRegion,
    OperatingPoint,
    RocCurve,
    bias_sweep,
    eer_operating_point,
    hter_at,
    outcomes_at,
    roc_curve,
    significant_regions,
    threshold_for_bonafide_error,
)

__all__ = [
    "__version__",
    "AuditConfig",
    "AuditError",
    "AuditReport",
    "BiasCurve",
    "BiasRegion",
    "CodeMatrix",
    "ContingencyTable2x2",
    "Dataset",
    "DegenerateDataError",
    "DipResult",
    "EmptyDatasetError",
    "FeatureMode",
    "FoldSpec",
    "GroupPair",
    "InsufficientDataError",
    "LognormalSpec",
    "MixtureSpec",
    "MwuMode",
    "OperatingPoint",
    "OutlierSpec",
    "ParameterError",
    "RocCurve",
    "RowError",
    "SchemaError",
    "Sidedness",
    "SummaryStats",
    "SvmModel",
    "TestResult",
    "UnknownGroupError",
    "attack_responses",
    "auc_from_scores",
    "bias_sweep",
    "bona_fide_responses",
    "chi2_survival",
    "chi_squared_one_sided",
    "cross_validated_auc",
    "decision_score",
    "demo_dataset",
    "dip_critical_value",
    "dip_statistic",
    "eer_operating_point",
    "featurize",
    "gen_code_vectors",
    "gen_lognormal",
    "gen_mixture",
    "group_pairs",
    "hter_at",
    "inject_outliers",
    "load_codes_csv",
    "load_csv",
    "mann_whitney_u",
    "outcomes_at",
    "render_json",
    "render_plots",
    "roc_curve",
    "run_audit",
    "save_codes_csv",
    "save_csv",
    "shapiro_wilk",
    "significant_regions",
    "summary_stats",
    "threshold_for_bonafide_error",
    "train_svm_smo",
]
