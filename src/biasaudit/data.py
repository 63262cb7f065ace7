"""The audit's two input tables, their CSV files, and group partitioning.

A dataset is a table of classifier responses, one row per presented
sample: who was presented (``sample_id``), which demographic group the
sample belongs to, whether it was a bona fide presentation or an attack,
and the classifier's scalar response. Responses are non-negative; lower
means more likely to be accepted (accept iff response <= threshold).

A code matrix holds the classifier's discrete latent codes, one row per
sample: ``sample_id``, group and d indices into a codebook of size k. Both
tables are read, checked and held here; ``svm`` probes the codes.
"""
from __future__ import annotations

import csv
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations, repeat
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
    "CodeMatrix",
    "GroupPair",
    "load_csv",
    "save_csv",
    "load_codes_csv",
    "save_codes_csv",
    "bona_fide_responses",
    "attack_responses",
    "group_pairs",
]


EXPECTED_HEADER = ("sample_id", "group", "class", "response")

# accepted spellings for the class column, case-insensitive
_BONA_FIDE_NAMES = frozenset({"bonafide", "bona_fide", "bona-fide", "bona fide"})
_ATTACK_NAMES = frozenset({"attack"})

# Unicode category Cc, all 65 of its code points
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


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
        if _CONTROL.search(g):  # no SVG title may hold one
            raise ParameterError(f"group {g!r} contains a control character")
    code_of = {g: i for i, g in enumerate(groups)}
    codes = np.fromiter(map(code_of.__getitem__, labels), np.int64, len(labels))
    return groups, _read_only(codes)


@contextmanager
def _csv_reader(path: Path):
    """A csv.reader over the UTF-8 text of ``path``, a leading byte-order
    mark skipped. The whole file is decoded once before the reader is made,
    so a byte that is not UTF-8 raises RowError at its physical line before
    any header or row fault; a csv error, such as a field over csv's size
    limit, raises RowError at its physical line."""
    try:
        with path.open(encoding="utf-8") as fh:
            while fh.read(_BLOCK):
                pass
    except UnicodeDecodeError:
        _utf8_text(path)  # raises at the first bad byte's line
        raise
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise RowError(path, reader.line_num, str(exc)) from None


def _utf8_text(path: Path) -> str:
    """The UTF-8 text of ``path``, a leading byte-order mark dropped. A byte
    that is not UTF-8 raises RowError at its physical line."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")  # the BOM is valid UTF-8, so it counts
    except UnicodeDecodeError as exc:
        line = len(_lines(raw[: exc.start].decode("utf-8")))
        raise RowError(path, line, f"not UTF-8 text (byte 0x{raw[exc.start]:02x})") from None
    return text.removeprefix("\ufeff")


def _lines(text: str) -> list[str]:
    """The physical lines of ``text``, as csv.reader counts them: each ends
    at \\r\\n, \\r or \\n and at nothing else."""
    return re.split("\r\n|\r|\n", text)


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

        counts = Counter(ids)
        if len(counts) < n:  # only then look for the repeated ids
            # logging is imported only here, as a clean table never needs it
            import logging

            dupes = {sid: c for sid, c in counts.items() if c > 1}
            logging.getLogger(__name__).warning(
                "dataset contains %d duplicated sample_id value(s), e.g. %r",
                len(dupes),
                next(iter(sorted(dupes))),
            )

    def groups(self) -> list[str]:
        return list(self._groups)

    def __len__(self) -> int:
        return len(self.sample_ids)


class CodeMatrix:
    """Immutable discrete latent codes, one row per sample: a read-only int64
    ``codes`` array of shape (n, d) holding indices into a codebook of size
    ``k``, ``group_codes`` (indices into the sorted ``groups()``, built from
    group labels) and ``sample_ids`` (``code-00000``, ``code-00001``, ...
    when none are given)."""

    def __init__(
        self,
        codes: np.ndarray | Sequence[Sequence[int]],
        groups: Sequence[str],
        k: int,
        sample_ids: Sequence[str] | None = None,
    ):
        if k < 2:
            raise ParameterError(f"codebook size must be >= 2, got {k}")
        labels = list(groups)
        try:
            arr = np.array(codes)
        except ValueError:
            raise ParameterError("code vectors must all have the same length") from None
        if arr.ndim != 2 or arr.size == 0 or len(arr) != len(labels):
            raise ParameterError(
                f"codes must be a non-empty (n, d) matrix with n group labels, "
                f"got shape {arr.shape} and {len(labels)} labels"
            )
        if sample_ids is None:
            sample_ids = [f"code-{i:05d}" for i in range(len(labels))]
        ids = tuple(sample_ids)
        if len(ids) != len(labels) or not all(ids):
            raise ParameterError(f"need {len(labels)} non-empty sample ids, got {len(ids)}")
        self._groups, self.group_codes = _encode_groups(labels)
        if arr.dtype.kind not in "iu":
            raise ParameterError(f"code indices must be ints, got {arr.dtype}")
        bad = arr[(arr < 0) | (arr >= k)]
        if bad.size:
            raise ParameterError(f"code indices must be ints in [0, {k - 1}], got {bad[0]}")
        self.codes = _read_only(arr.astype(np.int64, copy=False))
        self.k = k
        self.sample_ids = ids

    def groups(self) -> list[str]:
        return list(self._groups)

    def labels(self) -> list[str]:
        """Each row's group label."""
        return [self._groups[c] for c in self.group_codes.tolist()]

    def take(self, rows: Sequence[int]) -> "CodeMatrix":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        labels = [self._groups[c] for c in self.group_codes[rows].tolist()]
        ids = [self.sample_ids[i] for i in rows.tolist()]
        return CodeMatrix(self.codes[rows], labels, self.k, ids)

    def __len__(self) -> int:
        return self.codes.shape[0]


def load_csv(path: str | Path) -> Dataset:
    """Load a response dataset from CSV.

    Expects the exact header ``sample_id,group,class,response`` (UTF-8 with
    or without a byte-order mark, ``.`` decimal separator, LF or CRLF).
    Class values are case-insensitive. Raises SchemaError / RowError /
    EmptyDatasetError accordingly.

    A plain file, one with no ``"``, CR or NUL, is read block by block; any
    other file, and any file the block reader finds a fault in, is read by
    ``csv.reader`` row by row, the one reader that raises. Both give the
    same columns.
    """
    path = Path(path)
    return Dataset(*(_plain_columns(path) or _reader_columns(path)))


# characters of a plain response CSV, or of a file checked for UTF-8,
# read at a time
_BLOCK = 1 << 15


def _plain_columns(path: Path) -> tuple[list, list, list, list] | None:
    """The four Dataset columns of a plain response CSV: every row four
    fields, none quoted, valid as ``_reader_columns`` checks it. Each block
    of whole lines is split once into fields, and each column is converted
    with C-level maps, through a table of its distinct values where there
    are few. None for any other file, and for a file holding a fault, so
    that ``_reader_columns`` reads it and names the fault; nothing here
    raises on a bad file."""
    limit = csv.field_size_limit()  # csv.reader refuses a longer field
    ids: list[str] = []
    groups: list[str] = []
    bona_fide: list[bool] = []
    responses: list[float] = []
    label_of: dict[str, str] = {}  # raw group field -> its label
    is_bona: dict[str, bool] = {}  # raw class field -> bona fide or attack
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            header = fh.readline()
            if header.rstrip("\n").lower().split(",") != list(EXPECTED_HEADER):
                return None  # spaces around a name, a quote, a CR: csv.reader's
            rest = ""
            while True:
                block = fh.read(_BLOCK)
                text = rest + block
                if block:  # keep the last, maybe partial, line for the next block
                    cut = text.rfind("\n") + 1
                    text, rest = text[:cut], text[cut:]
                    # a line over the limit is csv.reader's to judge; carried
                    # on, it would be copied again with every block
                    if len(rest) > limit:
                        return None
                if '"' in text or "\r" in text or "\x00" in text:
                    return None
                lines = list(filter(None, text.split("\n")))  # blank lines tolerated
                if lines:
                    if max(map(len, lines)) > limit:
                        return None
                    if set(map(str.count, lines, repeat(","))) != {3}:
                        return None
                    fields = ",".join(lines).split(",")
                    for raw in set(fields[1::4]) - label_of.keys():
                        label_of[raw] = raw.strip()
                    for raw in set(fields[2::4]) - is_bona.keys():
                        name = raw.strip().lower()
                        if name not in _BONA_FIDE_NAMES | _ATTACK_NAMES:
                            return None
                        is_bona[raw] = name in _BONA_FIDE_NAMES
                    ids += map(str.strip, fields[0::4])
                    groups += map(label_of.__getitem__, fields[1::4])
                    bona_fide += map(is_bona.__getitem__, fields[2::4])
                    responses += map(float, map(str.strip, fields[3::4]))
                if not block:
                    break
    except ValueError:  # a byte that is not UTF-8, or a response not a float
        return None
    if not (ids and all(ids) and all(label_of.values())):
        return None
    values = np.array(responses)
    if not (np.isfinite(values) & (values >= 0.0)).all():
        return None
    # each id was split out between three fields that are freed; scattered
    # ids pin that memory and slow later allocations, so make them anew,
    # side by side
    ids = "\n".join(ids).split("\n")
    return ids, groups, bona_fide, values


def _reader_columns(path: Path) -> tuple[list, list, list, list]:
    """The four Dataset columns of any response CSV, read row by row by
    csv.reader; a bad header, row or file raises, naming the fault and,
    for a row, its physical line."""
    with _csv_reader(path) as reader:
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
        labels: dict[str, str] = {}  # one str per distinct label, not per row
        for line_no, row in _numbered_rows(reader):  # blank lines tolerated
            if len(row) != 4:
                raise RowError(path, line_no, f"expected 4 fields, got {len(row)}")
            sid, group, cls_text, resp_text = (f.strip() for f in row)
            if not sid:
                raise RowError(path, line_no, "empty sample_id")
            if not group:
                raise RowError(path, line_no, "empty group")
            cls_norm = cls_text.lower()
            if cls_norm in _BONA_FIDE_NAMES:
                is_bona = True
            elif cls_norm in _ATTACK_NAMES:
                is_bona = False
            else:
                raise RowError(path, line_no, f"unknown class {cls_text!r}")
            try:
                resp = float(resp_text)
            except ValueError:
                raise RowError(path, line_no, f"bad response {resp_text!r}") from None
            if not math.isfinite(resp) or resp < 0.0:
                raise RowError(
                    path, line_no, f"response must be finite and >= 0, got {resp_text!r}"
                )
            ids.append(sid)
            groups.append(labels.setdefault(group, group))
            bona_fide.append(is_bona)
            responses.append(resp)

    if not ids:
        raise EmptyDatasetError(f"{path}: no data rows")
    return ids, groups, bona_fide, responses


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


_CODES_K_PREFIX = "#k="


def load_codes_csv(path: str | Path, k: int | None = None) -> CodeMatrix:
    """Load code vectors from CSV: ``sample_id,group,c0,...,c{d-1}``.

    The codebook size comes from a ``#K=<int>`` comment line above the
    header, or from the ``k`` argument (the argument wins if both given).
    UTF-8 with or without a byte-order mark; row errors name the physical
    line where the record starts.
    """
    path = Path(path)
    with _csv_reader(path) as reader:
        # the header is checked as csv.reader parsed it, like the rows
        fields = next(reader, [])
        line = ",".join(fields)
        file_k: int | None = None
        if line.lower().startswith(_CODES_K_PREFIX):
            try:
                file_k = int(line[len(_CODES_K_PREFIX):].strip())
            except ValueError:
                raise SchemaError(f"{path}: bad #K= line: {line.strip()!r}") from None
            fields = next(reader, [])
        k_eff = k if k is not None else file_k
        if k_eff is None:
            raise SchemaError(f"{path}: codebook size not given (no #K= line and no k argument)")
        if k_eff < 2:
            raise SchemaError(f"{path}: codebook size must be >= 2, got {k_eff}")
        header = [h.strip().lower() for h in fields]
        if len(header) < 3 or header[:2] != ["sample_id", "group"]:
            got = ",".join(fields).strip()
            raise SchemaError(f"{path}: bad header: expected sample_id,group,c0,...  got {got!r}")
        d = len(header) - 2
        if header[2:] != [f"c{i}" for i in range(d)]:
            raise SchemaError(f"{path}: code columns must be named c0..c{d - 1}")

        ids, groups, rows = [], [], []
        labels: dict[str, str] = {}  # one str per distinct label, not per row
        for line_no, row in _numbered_rows(reader):
            if len(row) != d + 2:
                raise RowError(path, line_no, f"expected {d + 2} fields, got {len(row)}")
            sid, group = row[0].strip(), row[1].strip()
            if not sid or not group:
                raise RowError(path, line_no, "empty sample_id or group")
            try:
                codes = [int(v) for v in row[2:]]
            except ValueError:
                raise RowError(path, line_no, "code entries must be integers") from None
            bad = [v for v in codes if not 0 <= v < k_eff]
            if bad:
                raise RowError(
                    path, line_no, f"code indices must be in [0, {k_eff - 1}], got {bad[0]}"
                )
            ids.append(sid)
            groups.append(labels.setdefault(group, group))
            rows.append(codes)
    if not rows:
        raise SchemaError(f"{path}: no code rows")
    return CodeMatrix(rows, groups, k_eff, ids)


def save_codes_csv(m: CodeMatrix, path: str | Path) -> None:
    """Write code vectors with a ``#K=`` size line; inverse of load_codes_csv,
    so a file this writes loads and saves back to the same bytes."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"#K={m.k}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "group"] + [f"c{i}" for i in range(m.codes.shape[1])])
        for sid, group, codes in zip(m.sample_ids, m.labels(), m.codes.tolist()):
            writer.writerow([sid, group, *codes])


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
    return [GroupPair(a, b) for a, b in combinations(groups, 2)]
