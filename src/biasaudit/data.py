"""Response dataset schema, CSV ingestion, and group partitioning.

A dataset is a table of classifier responses, one row per presented
sample: who was presented (``sample_id``), which demographic group the
sample belongs to, whether it was a bona fide presentation or an attack,
and the classifier's scalar response. Responses are non-negative; lower
means more likely to be accepted (accept iff response <= threshold).
"""
from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    InsufficientDataError,
    ParameterError,
    RowError,
    SchemaError,
    UnknownGroupError,
)

__all__ = [
    "EXPECTED_HEADER",
    "Dataset",
    "GroupPair",
    "load_csv",
    "save_csv",
    "bona_fide_responses",
    "attack_responses",
    "group_pairs",
]

log = logging.getLogger(__name__)

EXPECTED_HEADER = ("sample_id", "group", "class", "response")

# accepted spellings for the class column, case-insensitive
_BONA_FIDE_NAMES = frozenset({"bonafide", "bona_fide", "bona-fide", "bona fide"})
_ATTACK_NAMES = frozenset({"attack"})


@dataclass(frozen=True)
class GroupPair:
    """Unordered pair of group labels in canonical (lexicographic) order."""

    a: str
    b: str

    def __post_init__(self):
        if self.a >= self.b:
            raise ParameterError(
                f"pair must be in strict lexicographic order, got ({self.a!r}, {self.b!r})"
            )

    @classmethod
    def of(cls, x: str, y: str) -> "GroupPair":
        if x == y:
            raise ParameterError(f"a pair needs two distinct groups, got {x!r} twice")
        return cls(x, y) if x < y else cls(y, x)

    @property
    def key(self) -> str:
        return f"{self.a}|{self.b}"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _encode_groups(labels: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct group labels, and each row's index into them."""
    if not all(labels):
        raise ParameterError("group must be non-empty")
    groups = tuple(sorted(set(labels)))
    for g in groups:
        if "|" in g:  # GroupPair.key joins two labels with it
            raise ParameterError(f"group {g!r} contains '|', which pair keys reserve")
    code_of = {g: i for i, g in enumerate(groups)}
    return groups, _read_only(np.array([code_of[g] for g in labels], dtype=np.int64))


def _numbered_rows(reader):
    """(physical line where the record starts, fields) for each non-blank
    record left in a csv.reader; a quoted field may span lines."""
    end = reader.line_num
    for row in reader:
        start, end = end + 1, reader.line_num
        if row:
            yield start, row


class Dataset:
    """Immutable columns, one entry per row: ``sample_ids``, ``group_codes``
    (indices into the sorted ``groups()``, built from group labels), the
    ``bona_fide`` mask and float64 ``responses``. Each group's bona fide and
    attack responses are sorted once, stably (ties keep input order)."""

    def __init__(
        self,
        sample_ids: Sequence[str],
        groups: Sequence[str],
        bona_fide: Sequence[bool],
        responses: Sequence[float],
    ):
        self.sample_ids = ids = tuple(sample_ids)
        labels = list(groups)
        mask = _read_only(np.array(bona_fide))
        resp = _read_only(np.array(responses, dtype=np.float64))
        n = len(ids)
        if n == 0:
            raise EmptyDatasetError("dataset has no records")
        if len(labels) != n or mask.shape != (n,) or resp.shape != (n,):
            raise ParameterError("the four columns must have equal lengths")
        if not all(ids):
            raise ParameterError("sample_id must be non-empty")
        self._groups, self.group_codes = _encode_groups(labels)
        if mask.dtype != bool:
            raise ParameterError(f"bona_fide must be a bool column, got {mask.dtype}")
        bad = resp[~(np.isfinite(resp) & (resp >= 0.0))]
        if bad.size:
            raise ParameterError(f"response must be a finite float >= 0, got {bad[0]}")

        self.bona_fide = mask
        self.responses = resp
        # (group, or None for pooled; is bona fide) -> ascending responses
        self._sorted: dict[tuple[str | None, bool], np.ndarray] = {}
        for cls in (True, False):
            in_cls = mask == cls
            self._sorted[None, cls] = _read_only(np.sort(resp[in_cls], kind="stable"))
            for code, g in enumerate(self._groups):
                rows = in_cls & (self.group_codes == code)
                self._sorted[g, cls] = _read_only(np.sort(resp[rows], kind="stable"))

        dupes = {sid: c for sid, c in Counter(ids).items() if c > 1}
        if dupes:
            log.warning(
                "dataset contains %d duplicated sample_id value(s), e.g. %r",
                len(dupes),
                next(iter(sorted(dupes))),
            )

    def groups(self) -> list[str]:
        return list(self._groups)

    def __len__(self) -> int:
        return len(self.sample_ids)


def load_csv(path: str | Path) -> Dataset:
    """Load a response dataset from CSV.

    Expects the exact header ``sample_id,group,class,response`` (UTF-8 with
    or without a byte-order mark, ``.`` decimal separator, LF or CRLF).
    Class values are case-insensitive. Raises SchemaError / RowError /
    EmptyDatasetError accordingly.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        normalized = [h.strip().lower() for h in header]
        if normalized != list(EXPECTED_HEADER):
            missing = [c for c in EXPECTED_HEADER if c not in normalized]
            extra = [c for c in normalized if c not in EXPECTED_HEADER]
            detail = []
            if missing:
                detail.append(f"missing column(s): {', '.join(missing)}")
            if extra:
                detail.append(f"unexpected column(s): {', '.join(extra)}")
            if not detail:
                detail.append(f"column order must be {','.join(EXPECTED_HEADER)}")
            raise SchemaError(f"{path}: bad header: {'; '.join(detail)}")

        ids, groups, bona_fide, responses = [], [], [], []
        for line_no, row in _numbered_rows(reader):  # blank lines tolerated
            if len(row) != 4:
                raise RowError(line_no, f"expected 4 fields, got {len(row)}")
            sid, group, cls_text, resp_text = (f.strip() for f in row)
            if not sid:
                raise RowError(line_no, "empty sample_id")
            if not group:
                raise RowError(line_no, "empty group")
            cls_norm = cls_text.lower()
            if cls_norm in _BONA_FIDE_NAMES:
                is_bona = True
            elif cls_norm in _ATTACK_NAMES:
                is_bona = False
            else:
                raise RowError(line_no, f"unknown class {cls_text!r}")
            try:
                resp = float(resp_text)
            except ValueError:
                raise RowError(line_no, f"bad response {resp_text!r}") from None
            if not math.isfinite(resp) or resp < 0.0:
                raise RowError(
                    line_no, f"response must be finite and >= 0, got {resp_text!r}"
                )
            ids.append(sid)
            groups.append(group)
            bona_fide.append(is_bona)
            responses.append(resp)

    if not ids:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(ids, groups, bona_fide, responses)


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV; responses as shortest round-trip decimals."""
    path = Path(path)
    groups = ds.groups()
    class_text = {True: "bonafide", False: "attack"}
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EXPECTED_HEADER)
        for sid, code, is_bona, resp in zip(
            ds.sample_ids,
            ds.group_codes.tolist(),
            ds.bona_fide.tolist(),
            ds.responses.tolist(),
        ):
            writer.writerow([sid, groups[code], class_text[is_bona], repr(resp)])


def _responses(ds: Dataset, bona_fide: bool, group: str | None) -> np.ndarray:
    out = ds._sorted.get((group, bona_fide))
    if out is None:
        known = ", ".join(ds.groups())
        raise UnknownGroupError(f"no such group {group!r} (have: {known})")
    return out


def bona_fide_responses(ds: Dataset, group: str | None = None) -> np.ndarray:
    """Ascending read-only bona fide responses for one group (pooled when None)."""
    return _responses(ds, True, group)


def attack_responses(ds: Dataset, group: str | None = None) -> np.ndarray:
    """Ascending read-only attack responses for one group (pooled when None)."""
    return _responses(ds, False, group)


def group_pairs(ds: Dataset) -> list[GroupPair]:
    """All unordered group pairs in canonical order; needs >= 2 groups."""
    groups = ds.groups()
    if len(groups) < 2:
        raise InsufficientDataError(
            f"need at least two groups for pairwise analysis, got {len(groups)}"
        )
    return [
        GroupPair(groups[i], groups[j])
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
    ]
