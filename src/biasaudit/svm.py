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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import GroupPair
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    RowError,
    SchemaError,
)
from .stats import _midranks

__all__ = [
    "CodeVector",
    "FeatureMode",
    "FoldSpec",
    "SvmModel",
    "featurize",
    "train_svm_smo",
    "decision_score",
    "auc_from_scores",
    "cross_validated_auc",
    "load_codes_csv",
    "save_codes_csv",
]


@dataclass(frozen=True)
class CodeVector:
    """A sample's discrete latent code: integer indices into a codebook of
    size k, plus the sample's group label."""

    codes: tuple[int, ...]
    k: int
    group: str

    def __post_init__(self):
        if self.k < 2:
            raise ParameterError(f"codebook size must be >= 2, got {self.k}")
        if len(self.codes) == 0:
            raise ParameterError("empty code vector")
        if not self.group:
            raise ParameterError("group must be non-empty")
        for c in self.codes:
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < self.k:
                raise ParameterError(
                    f"code indices must be ints in [0, {self.k - 1}], got {c!r}"
                )


class FeatureMode(enum.Enum):
    # raw index positions scaled to [0, 1]
    SCALED_INDICES = "scaled-indices"
    # relative frequency of each codebook entry (length-k, sums to 1)
    CODE_HISTOGRAM = "code-histogram"


def featurize(v: CodeVector, mode: FeatureMode = FeatureMode.SCALED_INDICES) -> np.ndarray:
    """Turn one code vector into a real-valued feature vector."""
    if mode is FeatureMode.SCALED_INDICES:
        return np.asarray(v.codes, dtype=float) / (v.k - 1)
    counts = np.bincount(np.asarray(v.codes, dtype=np.int64), minlength=v.k)
    return counts / len(v.codes)


def _featurize_all(
    vectors: Sequence[CodeVector], mode: FeatureMode
) -> tuple[np.ndarray, list[str]]:
    if not vectors:
        raise InsufficientDataError("no code vectors")
    d = len(vectors[0].codes)
    k = vectors[0].k
    for i, v in enumerate(vectors):
        if len(v.codes) != d:
            raise ParameterError(
                f"vector {i} has length {len(v.codes)}, expected {d}: "
                "all vectors in one analysis must share their length"
            )
        if v.k != k:
            raise ParameterError(
                f"vector {i} has codebook size {v.k}, expected {k}"
            )
    x = np.stack([featurize(v, mode) for v in vectors])
    return x, [v.group for v in vectors]


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
    if model.support_vectors.shape[0] == 0:
        return np.full(x.shape[0], model.bias)
    kmat = _rbf_matrix(x, model.support_vectors, model.gamma)
    return kmat @ model.alphas + model.bias


def decision_score(model: SvmModel, x: Sequence[float]) -> float:
    """Kernel expansion score for one feature vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or (
        model.support_vectors.shape[0] > 0
        and arr.shape[0] != model.support_vectors.shape[1]
    ):
        raise ParameterError(
            f"expected a vector of length {model.support_vectors.shape[1]}, "
            f"got shape {arr.shape}"
        )
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


@dataclass(frozen=True)
class FoldSpec:
    """Stratified k-fold assignment: shuffle within each group by a seeded
    RNG, then deal round-robin so every fold sees every group."""

    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


def cross_validated_auc(
    vectors: Sequence[CodeVector],
    mode: FeatureMode = FeatureMode.SCALED_INDICES,
    c: float = 1.0,
    gamma: float | None = None,
    folds: FoldSpec = FoldSpec(),
) -> float:
    """Mean held-out AUC over stratified k folds for a two-group sample.

    The lexicographically first group plays the positive class. Each group
    must have at least k members. Deterministic given folds.seed.
    """
    x, groups = _featurize_all(vectors, mode)
    names = sorted(set(groups))
    if len(names) != 2:
        raise ParameterError(f"need exactly two groups, got {names}")
    pos_name, neg_name = names
    y = np.where(np.asarray(groups) == pos_name, 1.0, -1.0)

    rng = np.random.default_rng(folds.seed)
    fold_of = np.empty(len(vectors), dtype=int)
    for name in names:
        idx = np.flatnonzero(np.asarray(groups) == name)
        if len(idx) < folds.k:
            raise InsufficientDataError(
                f"group {name!r} has {len(idx)} samples; k={folds.k} folds need "
                f"at least {folds.k}"
            )
        perm = rng.permutation(len(idx))
        fold_of[idx[perm]] = np.arange(len(idx)) % folds.k

    aucs = []
    for fold in range(folds.k):
        test = fold_of == fold
        model = train_svm_smo(x[~test], y[~test], c=c, gamma=gamma)
        scores = _decision_scores(model, x[test])
        y_test = y[test]
        aucs.append(auc_from_scores(scores[y_test > 0], scores[y_test < 0]))
    return float(np.mean(aucs))


def _pairwise_aucs(
    vectors: Sequence[CodeVector],
    groups: Sequence[str],
    mode: FeatureMode,
    c: float,
    gamma: float | None,
    folds: FoldSpec,
) -> dict[str, float]:
    """cross_validated_auc for every pair of ``groups`` (ascending), keyed
    like GroupPair.key. Vectors of other groups are ignored; every listed
    group needs at least ``folds.k`` vectors."""
    by_group: dict[str, list[CodeVector]] = {g: [] for g in groups}
    for v in vectors:
        if v.group in by_group:
            by_group[v.group].append(v)
    for g, members in by_group.items():
        if len(members) < folds.k:
            raise InsufficientDataError(
                f"code vectors for group {g!r}: have {len(members)}, need >= {folds.k}"
            )
    return {
        GroupPair(a, b).key: cross_validated_auc(
            by_group[a] + by_group[b], mode=mode, c=c, gamma=gamma, folds=folds
        )
        for i, a in enumerate(groups)
        for b in groups[i + 1 :]
    }


_CODES_K_PREFIX = "#k="


def load_codes_csv(path: str | Path, k: int | None = None) -> list[CodeVector]:
    """Load code vectors from CSV: ``sample_id,group,c0,...,c{d-1}``.

    The codebook size comes from a ``#K=<int>`` comment line above the
    header, or from the ``k`` argument (the argument wins if both given).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        first = fh.readline()
        file_k: int | None = None
        if first.lower().startswith(_CODES_K_PREFIX):
            try:
                file_k = int(first[len(_CODES_K_PREFIX):].strip())
            except ValueError:
                raise SchemaError(f"{path}: bad #K= line: {first.strip()!r}") from None
            header_line = fh.readline()
        else:
            header_line = first
        k_eff = k if k is not None else file_k
        if k_eff is None:
            raise SchemaError(
                f"{path}: codebook size not given (no #K= line and no k argument)"
            )
        header = [h.strip().lower() for h in header_line.strip().split(",")]
        if len(header) < 3 or header[:2] != ["sample_id", "group"]:
            raise SchemaError(
                f"{path}: bad header: expected sample_id,group,c0,...  got {header_line.strip()!r}"
            )
        d = len(header) - 2
        if header[2:] != [f"c{i}" for i in range(d)]:
            raise SchemaError(f"{path}: code columns must be named c0..c{d - 1}")

        vectors = []
        reader = csv.reader(fh)
        line_no = 2 if file_k is None else 3
        for row in reader:
            if not row:
                line_no += 1
                continue
            if len(row) != d + 2:
                raise RowError(line_no, f"expected {d + 2} fields, got {len(row)}")
            sid, group = row[0].strip(), row[1].strip()
            if not sid or not group:
                raise RowError(line_no, "empty sample_id or group")
            try:
                codes = tuple(int(v) for v in row[2:])
            except ValueError:
                raise RowError(line_no, "code entries must be integers") from None
            try:
                vectors.append(CodeVector(codes=codes, k=k_eff, group=group))
            except ParameterError as exc:
                raise RowError(line_no, str(exc)) from None
            line_no += 1
    if not vectors:
        raise SchemaError(f"{path}: no code rows")
    return vectors


def save_codes_csv(vectors: Sequence[CodeVector], path: str | Path) -> None:
    """Write code vectors with a ``#K=`` size line; inverse of load_codes_csv."""
    if not vectors:
        raise InsufficientDataError("no code vectors to save")
    d = len(vectors[0].codes)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"#K={vectors[0].k}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "group"] + [f"c{i}" for i in range(d)])
        for i, v in enumerate(vectors):
            writer.writerow([f"code-{i:05d}", v.group, *v.codes])
