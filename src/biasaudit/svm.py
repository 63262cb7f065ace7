"""Latent-code separability probe: RBF-kernel SVM trained with SMO, scored
by cross-validated AUC.

If a classifier's internal discrete representation encodes group membership,
a kernel SVM can tell the groups apart from codes alone; held-out AUC near
0.5 means the codes carry no group signal, AUC near 1.0 means full
separability. Training uses sequential minimal optimization on the soft
margin dual, always updating the most-violating pair, so runs are exactly
reproducible.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import GroupPair, _encode_groups, _numbered_rows, _read_only
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    RowError,
    SchemaError,
)
from .stats import _midranks

__all__ = [
    "CodeMatrix",
    "FeatureMode",
    "SvmModel",
    "featurize",
    "train_svm_smo",
    "decision_score",
    "auc_from_scores",
    "cross_validated_auc",
    "load_codes_csv",
    "save_codes_csv",
]


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


class FeatureMode(enum.Enum):
    # raw index positions scaled to [0, 1]
    SCALED_INDICES = "scaled-indices"
    # relative frequency of each codebook entry (length-k, sums to 1)
    CODE_HISTOGRAM = "code-histogram"


def featurize(m: CodeMatrix, mode: FeatureMode = FeatureMode.SCALED_INDICES) -> np.ndarray:
    """Real-valued features, one row per code vector: (n, d) scaled indices
    or (n, k) code histograms."""
    if mode is FeatureMode.SCALED_INDICES:
        return m.codes / (m.k - 1)
    n, d = m.codes.shape
    # row i's codes land in bins [i * k, (i + 1) * k)
    flat = (m.codes + m.k * np.arange(n)[:, None]).ravel()
    return np.bincount(flat, minlength=n * m.k).reshape(n, m.k) / d


@dataclass(frozen=True)
class SvmModel:
    """Trained soft-margin RBF SVM.

    ``alphas`` are the signed dual coefficients (alpha_i * y_i) of the
    support vectors only, each with |alpha| <= regularization_c. ``converged``
    reports whether the largest KKT violation fell to tol or below within
    the pass budget.
    """

    support_vectors: np.ndarray
    alphas: np.ndarray
    bias: float
    gamma: float
    regularization_c: float
    converged: bool
    passes: int

    def __post_init__(self):
        if self.support_vectors.shape[0] != self.alphas.shape[0]:
            raise ParameterError(
                "support_vectors and alphas must have matching lengths"
            )


def _resolve_gamma(x: np.ndarray, gamma: float | None) -> float:
    """Auto gamma = 1 / (d * var), var = mean per-coordinate variance."""
    if gamma is not None:
        if not gamma > 0:
            raise ParameterError(f"gamma must be > 0, got {gamma}")
        return float(gamma)
    var = float(np.mean(np.var(x, axis=0)))
    if var <= 0.0:
        return 1.0  # constant features; any scale works
    return 1.0 / (x.shape[1] * var)


# train_svm_smo holds a dense n x n float64 kernel (and temporaries of that
# size), so it refuses training sets above 11,585 rows
_MAX_KERNEL_BYTES = 1 << 30


def _check_kernel_rows(n: int) -> None:
    if n * n * 8 > _MAX_KERNEL_BYTES:
        raise ParameterError(
            f"{n} training rows need a {n * n * 8 / 2**30:.2f} GiB kernel; "
            f"the limit is 1 GiB ({math.isqrt(_MAX_KERNEL_BYTES // 8)} rows)"
        )


def _rbf_matrix(x: np.ndarray, z: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(z * z, axis=1)[None, :]
        - 2.0 * (x @ z.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def train_svm_smo(
    features: np.ndarray,
    labels: Sequence[int],
    c: float = 1.0,
    gamma: float | None = None,
    tol: float = 1e-3,
    max_passes: int = 200,
) -> SvmModel:
    """Train a soft-margin RBF SVM by sequential minimal optimization.

    ``labels`` must be +1/-1 with both classes present. Each step updates the
    most-violating pair: the ascent-eligible point with the largest KKT
    residual against the descent-eligible point with the smallest, which is
    deterministic (ties resolve to the lowest index). Training stops once the
    spread between those residuals is within tol, i.e. no KKT violation
    exceeds tol; one pass covers up to n pair updates.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError(f"features must be a 2-D matrix with >= 2 rows, got {x.shape}")
    y = np.asarray(labels, dtype=float)
    if y.shape != (x.shape[0],) or not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ParameterError("labels must be +1/-1, one per feature row")
    if len(np.unique(y)) < 2:
        raise DegenerateDataError("training data contains a single class")
    if not c > 0:
        raise ParameterError(f"c must be > 0, got {c}")
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if max_passes < 1:
        raise ParameterError(f"max_passes must be >= 1, got {max_passes}")
    n = x.shape[0]
    _check_kernel_rows(n)

    gamma = _resolve_gamma(x, gamma)
    kmat = _rbf_matrix(x, x, gamma)
    alpha = np.zeros(n)
    # u[i] = kernel part of the decision value at x_i (no bias); the KKT
    # residual y_i - u_i of every free support vector equals the bias at
    # the optimum, so the spread of residuals measures convergence
    u = np.zeros(n)
    neg_inf = -np.inf
    pos_inf = np.inf

    def residual_extremes() -> tuple[int, int]:
        resid = y - u
        can_up = ((y > 0.0) & (alpha < c)) | ((y < 0.0) & (alpha > 0.0))
        can_dn = ((y > 0.0) & (alpha > 0.0)) | ((y < 0.0) & (alpha < c))
        i = int(np.argmax(np.where(can_up, resid, neg_inf)))
        j = int(np.argmin(np.where(can_dn, resid, pos_inf)))
        return i, j

    converged = False
    passes = 0
    while passes < max_passes and not converged:
        passes += 1
        for _ in range(n):
            i, j = residual_extremes()
            gap = (y[i] - u[i]) - (y[j] - u[j])
            if gap <= tol:
                converged = True
                break
            # curvature along the feasible direction; indices ordered so the
            # value is identical however the pair roles were assigned
            p, q = (i, j) if i < j else (j, i)
            eta = kmat[p, p] + kmat[q, q] - 2.0 * kmat[p, q]
            step = gap / max(eta, 1e-12)
            # alpha_i moves by +y_i*t, alpha_j by -y_j*t; both rooms are
            # strictly positive by the eligibility masks
            room_i = c - alpha[i] if y[i] > 0.0 else alpha[i]
            room_j = alpha[j] if y[j] > 0.0 else c - alpha[j]
            t = min(step, room_i, room_j)
            alpha[i] = min(max(alpha[i] + y[i] * t, 0.0), c)
            alpha[j] = min(max(alpha[j] - y[j] * t, 0.0), c)
            u += t * (kmat[i] - kmat[j])

    i, j = residual_extremes()
    b = ((y[i] - u[i]) + (y[j] - u[j])) / 2.0

    sv = alpha > 1e-10
    return SvmModel(
        support_vectors=x[sv].copy(),
        alphas=(alpha * y)[sv].copy(),
        bias=float(b),
        gamma=gamma,
        regularization_c=float(c),
        converged=converged,
        passes=passes,
    )


def _decision_scores(model: SvmModel, x: np.ndarray) -> np.ndarray:
    kmat = _rbf_matrix(x, model.support_vectors, model.gamma)
    return kmat @ model.alphas + model.bias


def decision_score(model: SvmModel, x: Sequence[float]) -> float:
    """Kernel expansion score for one feature vector."""
    arr = np.asarray(x, dtype=float)
    d = model.support_vectors.shape[1]
    if arr.shape != (d,):
        raise ParameterError(f"expected a vector of length {d}, got shape {arr.shape}")
    return float(_decision_scores(model, arr[None, :])[0])


def auc_from_scores(pos: Sequence[float], neg: Sequence[float]) -> float:
    """Rank-based AUC: P(pos > neg) with half credit for ties.

    Computed from midranks; exactly equals the pairwise count
    (#{p > n} + 0.5 #{p == n}) / (|pos| * |neg|).
    """
    n_p, n_n = len(pos), len(neg)
    if n_p == 0 or n_n == 0:
        raise InsufficientDataError("auc needs non-empty score sets")
    doubled, _ = _midranks(pos, neg)
    du = int(doubled[:n_p].sum()) - n_p * (n_p + 1)  # 2 * U
    return du / (2 * n_p * n_n)


def cross_validated_auc(
    m: CodeMatrix,
    mode: FeatureMode = FeatureMode.SCALED_INDICES,
    c: float = 1.0,
    gamma: float | None = None,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Mean held-out AUC over stratified ``folds``-fold cross-validation for
    a two-group sample: each group is shuffled by an RNG seeded with
    ``seed``, then dealt round-robin so every fold sees every group.

    The lexicographically first group plays the positive class. Each group
    must have at least ``folds`` members. Deterministic given seed and the
    row order.
    """
    if folds < 2:
        raise ParameterError(f"folds must be >= 2, got {folds}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    names = m.groups()
    if len(names) != 2:
        raise ParameterError(f"need exactly two groups, got {names}")
    x = featurize(m, mode)
    y = np.where(m.group_codes == 0, 1.0, -1.0)

    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(m), dtype=int)
    for code, name in enumerate(names):
        idx = np.flatnonzero(m.group_codes == code)
        if len(idx) < folds:
            raise InsufficientDataError(
                f"group {name!r} has {len(idx)} samples; {folds} folds need "
                f"at least {folds}"
            )
        perm = rng.permutation(len(idx))
        fold_of[idx[perm]] = np.arange(len(idx)) % folds

    aucs = []
    for fold in range(folds):
        test = fold_of == fold
        model = train_svm_smo(x[~test], y[~test], c=c, gamma=gamma)
        scores = _decision_scores(model, x[test])
        y_test = y[test]
        aucs.append(auc_from_scores(scores[y_test > 0], scores[y_test < 0]))
    return float(np.mean(aucs))


def _pair_rows(m: CodeMatrix, groups: Sequence[str], folds: int) -> dict[str, np.ndarray]:
    """Each of ``groups``' row indices in ``m``, in input order, once every
    group is checked to have at least ``folds`` rows and every pair's
    largest training set (the last fold holds out floor(n/k) rows of each
    group, the fewest) to fit the kernel limit; so inputs the pairwise SVM
    would refuse fail before anything is trained."""
    code_of = {g: i for i, g in enumerate(m.groups())}
    rows = {g: np.flatnonzero(m.group_codes == code_of.get(g, -1)) for g in groups}
    for g, idx in rows.items():
        if len(idx) < folds:
            raise InsufficientDataError(
                f"code vectors for group {g!r}: have {len(idx)}, need >= {folds}"
            )
    train = {g: len(idx) - len(idx) // folds for g, idx in rows.items()}
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            _check_kernel_rows(train[a] + train[b])
    return rows


def _pairwise_aucs(
    m: CodeMatrix,
    groups: Sequence[str],
    mode: FeatureMode,
    c: float,
    gamma: float | None,
    folds: int,
    seed: int,
) -> dict[str, float]:
    """cross_validated_auc for every pair of ``groups`` (ascending), keyed
    like GroupPair.key, on group a's rows then group b's, each in input
    order. Rows of other groups are ignored; the inputs are checked by
    ``_pair_rows``."""
    rows = _pair_rows(m, groups, folds)
    return {
        GroupPair(a, b).key: cross_validated_auc(
            m.take(np.concatenate([rows[a], rows[b]])), mode, c, gamma, folds, seed
        )
        for i, a in enumerate(groups)
        for b in groups[i + 1 :]
    }


_CODES_K_PREFIX = "#k="


def load_codes_csv(path: str | Path, k: int | None = None) -> CodeMatrix:
    """Load code vectors from CSV: ``sample_id,group,c0,...,c{d-1}``.

    The codebook size comes from a ``#K=<int>`` comment line above the
    header, or from the ``k`` argument (the argument wins if both given).
    UTF-8 with or without a byte-order mark; row errors name the physical
    line where the record starts.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = ",".join(next(reader, []))
        file_k: int | None = None
        if line.lower().startswith(_CODES_K_PREFIX):
            try:
                file_k = int(line[len(_CODES_K_PREFIX):].strip())
            except ValueError:
                raise SchemaError(f"{path}: bad #K= line: {line.strip()!r}") from None
            line = ",".join(next(reader, []))
        k_eff = k if k is not None else file_k
        if k_eff is None:
            raise SchemaError(f"{path}: codebook size not given (no #K= line and no k argument)")
        if k_eff < 2:
            raise SchemaError(f"{path}: codebook size must be >= 2, got {k_eff}")
        header = [h.strip().lower() for h in line.split(",")]
        if len(header) < 3 or header[:2] != ["sample_id", "group"]:
            raise SchemaError(
                f"{path}: bad header: expected sample_id,group,c0,...  got {line.strip()!r}"
            )
        d = len(header) - 2
        if header[2:] != [f"c{i}" for i in range(d)]:
            raise SchemaError(f"{path}: code columns must be named c0..c{d - 1}")

        ids, groups, rows = [], [], []
        for line_no, row in _numbered_rows(reader):
            if len(row) != d + 2:
                raise RowError(line_no, f"expected {d + 2} fields, got {len(row)}")
            sid, group = row[0].strip(), row[1].strip()
            if not sid or not group:
                raise RowError(line_no, "empty sample_id or group")
            try:
                codes = [int(v) for v in row[2:]]
            except ValueError:
                raise RowError(line_no, "code entries must be integers") from None
            bad = [v for v in codes if not 0 <= v < k_eff]
            if bad:
                raise RowError(line_no, f"code indices must be in [0, {k_eff - 1}], got {bad[0]}")
            ids.append(sid)
            groups.append(group)
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
