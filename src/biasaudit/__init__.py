"""Bias auditing toolkit for threshold-based binary classifiers.

Given per-sample scalar responses (accept iff response <= threshold) labeled
with demographic groups, the toolkit tests whether bona fide error rates
differ between groups across the whole threshold range, screens per-group
response distributions for non-normality and multimodality, and optionally
probes whether a classifier's discrete latent codes separate the groups.
"""

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package re-exports them all.
from . import data, dip, errors, plots, report, stats, svm, synth, thresholds
from .data import *
from .dip import *
from .errors import *
from .plots import *
from .report import *
from .stats import *
from .svm import *
from .synth import *
from .thresholds import *

__all__ = ["__version__"] + [
    name
    for module in (data, dip, errors, plots, report, stats, svm, synth, thresholds)
    for name in module.__all__
]
