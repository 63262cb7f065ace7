"""Latent-code separability probe: RBF-kernel SVM trained with SMO, scored
by cross-validated AUC.

If a classifier's internal discrete representation encodes group membership,
a kernel SVM can tell the groups apart from codes alone; held-out AUC near
0.5 means the codes carry no group signal, AUC near 1.0 means full
separability. Training uses sequential minimal optimization on the soft
margin dual, always updating the most-violating pair, so runs are exactly
reproducible. The codes arrive as a ``data.CodeMatrix``; this module holds
the probe alone.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .data import CodeMatrix
from .errors import DegenerateDataError, InsufficientDataError, ParameterError
from .stats import _midranks, _sample

__all__ = [
    "FeatureMode",
    "SvmModel",
    "featurize",
    "train_svm_smo",
    "decision_score",
    "auc_from_scores",
    "cross_validated_auc",
]


class FeatureMode(enum.Enum):
    # raw index positions scaled to [0, 1]
    SCALED_INDICES = "scaled-indices"
    # relative frequency of each codebook entry (length-k, sums to 1)
    CODE_HISTOGRAM = "code-histogram"


def featurize(m: CodeMatrix, mode: FeatureMode = FeatureMode.SCALED_INDICES) -> np.ndarray:
    """Real-valued features, one row per code vector: (n, d) scaled indices
    or (n, k) code histograms, the latter held to 512 MiB."""
    if not isinstance(mode, FeatureMode):
        raise ParameterError(f"mode must be a FeatureMode, got {mode!r}")
    if mode is FeatureMode.SCALED_INDICES:
        return m.codes / (m.k - 1)
    n, d = m.codes.shape
    _check_matrix("code-histogram features", n, m.k)
    # row i's codes land in bins [i * k, (i + 1) * k)
    flat = (m.codes + m.k * np.arange(n)[:, None]).ravel()
    # the counts as float64 (exact integers), divided in place: one matrix
    counts = np.bincount(flat, weights=np.ones(flat.size), minlength=n * m.k)
    counts /= d
    return counts.reshape(n, m.k)


@dataclass(frozen=True)
class SvmModel:
    """Trained soft-margin RBF SVM.

    ``alphas`` are the signed dual s_i = y_i * alpha_i of the support
    vectors only, each inside its box [min(0, y_i c), max(0, y_i c)] for
    c = regularization_c. ``converged`` reports whether the largest KKT
    violation fell to tol or below within the pass budget.
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
        if not math.isfinite(gamma):
            raise ParameterError(f"gamma must be finite, got {gamma}")
        return float(gamma)
    var = float(np.mean(np.var(x, axis=0)))
    if var <= 0.0:
        return 1.0  # constant features; any scale works
    return 1.0 / (x.shape[1] * var)


# every float64 matrix of a fit, the n x n kernel of train_svm_smo and the
# n x k code histograms of featurize, is held to 512 MiB
_MAX_MATRIX_BYTES = 1 << 29
# rows of the kernel _rbf_matrix forms at a time beside the result
_BLOCK_ROWS = 64


def _check_matrix(what: str, rows: int, cols: int) -> None:
    """Refuse a ``rows`` x ``cols`` float64 ``what`` over _MAX_MATRIX_BYTES,
    before it is allocated."""
    need = rows * cols * 8
    if need > _MAX_MATRIX_BYTES:
        raise ParameterError(
            f"{what}: {rows} rows by {cols} columns of float64 need "
            f"{need / 2**20:.1f} MiB; the limit is {_MAX_MATRIX_BYTES >> 20} MiB"
        )


def _rbf_matrix(x: np.ndarray, z: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * |x_i - z_j|^2) in one len(x) x len(z) float64 array:
    2 x.z^T is written there first, and each block of _BLOCK_ROWS rows is
    then replaced by its kernel values, formed in a block-sized scratch."""
    xx = np.sum(x * x, axis=1)
    zz = np.sum(z * z, axis=1)
    kmat = x @ z.T
    kmat *= 2.0
    scratch = np.empty((min(_BLOCK_ROWS, len(x)), len(z)))
    for r in range(0, len(x), _BLOCK_ROWS):
        rows = kmat[r : r + _BLOCK_ROWS]
        sq = scratch[: len(rows)]
        np.add(xx[r : r + _BLOCK_ROWS, None], zz, out=sq)
        sq -= rows
        np.maximum(sq, 0.0, out=sq)
        sq *= -gamma
        np.exp(sq, out=rows)
    return kmat


def train_svm_smo(
    features: np.ndarray,
    labels: Sequence[int],
    c: float = 1.0,
    gamma: float | None = None,
    tol: float = 1e-3,
    max_passes: int = 200,
) -> SvmModel:
    """Train a soft-margin RBF SVM by sequential minimal optimization.

    ``labels`` must be +1/-1 with both classes present. Each step updates
    the most-violating pair of the signed dual s = y * alpha: the point with
    room to rise and the largest KKT residual against the point with room to
    fall and the smallest (ties resolve to the lowest index). Training stops
    once the spread between those residuals is within tol, i.e. no KKT
    violation exceeds tol; one pass covers up to n pair updates.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError(f"features must be a 2-D matrix with >= 2 rows, got {x.shape}")
    y = np.asarray(labels, dtype=float)
    if y.shape != (x.shape[0],):
        raise ParameterError("labels must be +1/-1, one per feature row")
    classes = set(y.tolist())
    if not classes <= {-1.0, 1.0}:
        raise ParameterError("labels must be +1/-1, one per feature row")
    if len(classes) < 2:
        raise DegenerateDataError("training data contains a single class")
    if not c > 0:
        raise ParameterError(f"c must be > 0, got {c}")
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if max_passes < 1:
        raise ParameterError(f"max_passes must be >= 1, got {max_passes}")
    n = x.shape[0]
    _check_matrix("SVM kernel", n, n)
    c = float(c)

    gamma = _resolve_gamma(x, gamma)
    kmat = _rbf_matrix(x, x, gamma)
    diag = kmat.diagonal().tolist()
    # the signed dual s = y * alpha, each entry in its own box [lo, hi],
    # held as Python floats since each step changes two entries; lo is
    # written out, not hi - c, which is NaN at c = inf
    ys = y.tolist()
    s = [0.0] * n
    hi = [c if v > 0.0 else 0.0 for v in ys]
    lo = [0.0 if v > 0.0 else -c for v in ys]
    # y_up is y where s can rise and -inf where it cannot, y_dn is y where s
    # can fall and +inf where it cannot, so y_up - u and y_dn - u are the
    # KKT residuals y - u bit for bit wherever each is eligible. u[i] is the
    # kernel part of the decision value at x_i (no bias); the residual of
    # every free support vector equals the bias at the optimum, so the
    # spread of residuals measures convergence
    y_up = y.copy()
    y_up[y < 0.0] = -np.inf
    y_dn = y.copy()
    y_dn[y > 0.0] = np.inf
    u = np.zeros(n)
    r_up = np.empty(n)
    r_dn = np.empty(n)
    du = np.empty(n)

    def residual_extremes() -> tuple[int, int]:
        np.subtract(y_up, u, out=r_up)
        np.subtract(y_dn, u, out=r_dn)
        return int(r_up.argmax()), int(r_dn.argmin())

    converged = False
    passes = 0
    while passes < max_passes and not converged:
        passes += 1
        for _ in range(n):
            i, j = residual_extremes()
            gap = r_up.item(i) - r_dn.item(j)
            if gap <= tol:
                converged = True
                break
            # curvature along the feasible direction; indices ordered so the
            # value is identical however the pair roles were assigned
            p, q = (i, j) if i < j else (j, i)
            eta = diag[p] + diag[q] - 2.0 * kmat.item(p, q)
            # s_i rises and s_j falls by t; both rooms are strictly positive
            # by the eligibility masks
            t = min(gap / max(eta, 1e-12), hi[i] - s[i], s[j] - lo[j])
            s[i] = s_i = min(s[i] + t, hi[i])
            s[j] = s_j = max(s[j] - t, lo[j])
            y_up[i] = ys[i] if s_i < hi[i] else -np.inf
            y_dn[i] = ys[i] if s_i > lo[i] else np.inf
            y_up[j] = ys[j] if s_j < hi[j] else -np.inf
            y_dn[j] = ys[j] if s_j > lo[j] else np.inf
            np.subtract(kmat[i], kmat[j], out=du)
            du *= t
            u += du

    i, j = residual_extremes()
    s = np.array(s)
    sv = np.abs(s) > 1e-10
    return SvmModel(
        support_vectors=x[sv],
        alphas=s[sv],
        bias=(r_up.item(i) + r_dn.item(j)) / 2.0,
        gamma=gamma,
        regularization_c=c,
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
    pos, neg = (_sample(s, 1, "auc_from_scores") for s in (pos, neg))
    n_p, n_n = len(pos), len(neg)
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


def _pair_rows(
    m: CodeMatrix,
    groups: Sequence[str],
    folds: int,
    mode: FeatureMode = FeatureMode.SCALED_INDICES,
) -> dict[str, np.ndarray]:
    """Each of ``groups``' row indices in ``m``, in input order, once every
    group is checked to have at least ``folds`` rows, every pair's largest
    training set (the last fold holds out floor(n/k) rows of each group, the
    fewest) to fit the kernel limit, and every pair's ``mode`` features to
    fit the same limit; so inputs the pairwise SVM would refuse fail before
    anything is trained."""
    code_of = {g: i for i, g in enumerate(m.groups())}
    rows = {g: np.flatnonzero(m.group_codes == code_of.get(g, -1)) for g in groups}
    for g, idx in rows.items():
        if len(idx) < folds:
            raise InsufficientDataError(
                f"code vectors for group {g!r}: have {len(idx)}, need >= {folds}"
            )
    train = {g: len(idx) - len(idx) // folds for g, idx in rows.items()}
    for a, b in combinations(groups, 2):
        n = train[a] + train[b]
        _check_matrix("SVM kernel", n, n)
        if mode is FeatureMode.CODE_HISTOGRAM:
            _check_matrix("code-histogram features", len(rows[a]) + len(rows[b]), m.k)
    return rows
