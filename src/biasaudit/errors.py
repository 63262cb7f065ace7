"""Exception types shared across the toolkit.

Every error raised on bad user input derives from :class:`AuditError`, so the
CLI can map the whole family to a single exit code and library callers can
catch one type.
"""
from __future__ import annotations

import os

__all__ = [
    "AuditError",
    "SchemaError",
    "RowError",
    "EmptyDatasetError",
    "UnknownGroupError",
    "InsufficientDataError",
    "DegenerateDataError",
    "ParameterError",
]


class AuditError(Exception):
    """Base class for all toolkit validation errors."""


class SchemaError(AuditError):
    """A CSV file does not have the expected column layout."""


class RowError(AuditError):
    """A row of an input file failed validation: a CSV record, a config
    line, or any line that is not UTF-8 text.

    Carries the file's ``path`` and the 1-based ``line`` number of the
    offending row, and names both: ``{path}: line {line}: {message}``.
    """

    def __init__(self, path: str | os.PathLike[str], line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.path = path
        self.line = line


class EmptyDatasetError(AuditError):
    """A dataset contains no records."""


class UnknownGroupError(AuditError):
    """A group label was requested that the dataset does not contain."""


class InsufficientDataError(AuditError):
    """Not enough samples (or groups) for the requested computation."""


class DegenerateDataError(AuditError):
    """Input is structurally valid but degenerate for the computation.

    Examples: a contingency table row with zero total, a constant sample
    handed to a normality test, single-class SVM training data.
    """


class ParameterError(AuditError):
    """A parameter is outside its documented domain."""
