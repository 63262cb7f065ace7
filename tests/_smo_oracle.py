"""``train_svm_smo`` as it was before the SMO loop was rewritten on the
signed dual: ``alpha`` >= 0 with sign-dependent eligibility masks, rooms and
clips, and the RBF kernel as it was built before it was formed in one array,
from two n x n arrays. Kept verbatim as the references that
``biasaudit.svm.train_svm_smo`` and ``_rbf_matrix`` must match bit for bit;
not used by the package."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from biasaudit.errors import DegenerateDataError, ParameterError
from biasaudit.svm import (
    SvmModel,
    _check_matrix,
    _resolve_gamma,
)


def rbf_matrix(x: np.ndarray, z: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * |x_i - z_j|^2), built in place: at most two len(x) x
    len(z) float64 arrays are alive at once."""
    g = x @ z.T
    sq = np.sum(x * x, axis=1)[:, None] + np.sum(z * z, axis=1)[None, :]
    g *= 2.0
    sq -= g
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    np.exp(sq, out=sq)
    return sq


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
    _check_matrix("SVM kernel", n, n)

    gamma = _resolve_gamma(x, gamma)
    kmat = rbf_matrix(x, x, gamma)
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
