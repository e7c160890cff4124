"""Independent brute-force QP oracle for the soft-margin SVM dual.

Maximizes  W(a) = sum(a) - 0.5 * a' Q a,  Q_ij = y_i y_j K_ij,
subject to  0 <= a_i <= C  and  y' a = 0,
by projected gradient ascent with an exact box-and-hyperplane projection,
followed by an active-set polish (an equality-constrained linear solve on
the free set, accepted only when the full KKT system verifies).  Written
against the textbook dual, sharing no code with the package's solver.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist


def rbf_matrix(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-sigma * cdist(a, b, "sqeuclidean"))


def zscore(X: np.ndarray) -> np.ndarray:
    """Drop constant columns, then z-score by column mean/sd (ddof 0)."""
    X = np.asarray(X, dtype=np.float64)
    sd = X.std(axis=0)
    keep = sd > 0.0
    return (X[:, keep] - X[:, keep].mean(axis=0)) / sd[keep]


def dual_objective(K: np.ndarray, y: np.ndarray, a: np.ndarray) -> float:
    v = a * y
    return float(a.sum() - 0.5 * v @ K @ v)


def project(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection of v onto {0 <= a <= C, y'a = 0}.

    The projection is clip(v - t*y, 0, C) where t solves y'a(t) = 0;
    y'a(t) is nonincreasing in t, so bisection applies.  The clip is written
    as minimum(maximum(.)): the same values at about half of np.clip's fixed
    cost per call on these small arrays.
    """

    def h(t: float) -> float:
        return float(y @ np.minimum(np.maximum(v - t * y, 0.0), C))

    span = float(np.abs(v).max(initial=0.0) + C + 1.0)
    lo, hi = -span, span
    assert h(lo) >= 0.0 >= h(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        settled = mid == lo or mid == hi
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if settled:
            break  # (lo, hi) is now a fixed point: further steps change nothing
    return np.minimum(np.maximum(v - 0.5 * (lo + hi) * y, 0.0), C)


def _kkt_verified(
    Q: np.ndarray, y: np.ndarray, C: float, a: np.ndarray, slack: float
) -> bool:
    if a.min() < -slack or a.max() > C + slack or abs(y @ a) > slack:
        return False
    grad = 1.0 - Q @ a
    free = (a > slack) & (a < C - slack)
    if free.any():
        nus = grad[free] / y[free]
        nu = float(nus.mean())
        if np.abs(nus - nu).max() > slack:
            return False
    else:
        # nu must fall in the interval forced by the bound rows.
        resid = grad / y  # stationarity residual per row if it were free
        lo_rows = ((a <= slack) & (y > 0)) | ((a >= C - slack) & (y < 0))
        hi_rows = ((a <= slack) & (y < 0)) | ((a >= C - slack) & (y > 0))
        lo = resid[lo_rows].max() if lo_rows.any() else -np.inf
        hi = resid[hi_rows].min() if hi_rows.any() else np.inf
        if lo > hi + slack:
            return False
        if np.isfinite(lo) and np.isfinite(hi):
            nu = 0.5 * (lo + hi)
        elif np.isfinite(lo):
            nu = float(lo)
        elif np.isfinite(hi):
            nu = float(hi)
        else:
            nu = 0.0
    lagr = grad - nu * y
    bad_lo = (a <= slack) & (lagr > slack)
    bad_hi = (a >= C - slack) & (lagr < -slack)
    return not (bad_lo.any() or bad_hi.any())


def _polish(
    Q: np.ndarray, y: np.ndarray, C: float, a: np.ndarray
) -> np.ndarray | None:
    """Exact solve on the active set suggested by a; None unless KKT-clean."""
    tau = 1e-7 * C
    lo = a <= tau
    up = a >= C - tau
    free = ~(lo | up)
    out = np.where(up, C, 0.0)
    if free.any():
        f = np.nonzero(free)[0]
        rhs = np.concatenate([1.0 - Q[f][:, up].sum(axis=1) * C, [-(y[up].sum()) * C]])
        mat = np.zeros((f.size + 1, f.size + 1))
        mat[: f.size, : f.size] = Q[np.ix_(f, f)]
        mat[: f.size, -1] = y[f]
        mat[-1, : f.size] = y[f]
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        af = sol[: f.size]
        if af.min() < -1e-9 * C or af.max() > C * (1.0 + 1e-9):
            return None
        out[f] = np.clip(af, 0.0, C)
    if _kkt_verified(Q, y, C, out, slack=1e-8 * max(1.0, C)):
        return out
    return None


def qp_solve(
    K: np.ndarray, y: np.ndarray, C: float, max_iters: int = 60_000
) -> np.ndarray:
    """Optimal dual variables for the boxed, equality-constrained SVM dual."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K
    lam_max = float(np.linalg.eigvalsh(Q).max())
    step = 1.0 / max(lam_max, 1e-12)
    a = project(np.zeros(n), y, C)
    best = a
    best_obj = dual_objective(K, y, a)
    for it in range(1, max_iters + 1):
        a = project(a + step * (1.0 - Q @ a), y, C)
        if it % 50 == 0 or it == max_iters:
            obj = dual_objective(K, y, a)
            if obj > best_obj:
                best, best_obj = a, obj
            polished = _polish(Q, y, C, a)
            if polished is not None:
                pobj = dual_objective(K, y, polished)
                return polished if pobj >= best_obj else best
    return best


def bias_for(K: np.ndarray, y: np.ndarray, a: np.ndarray, C: float) -> float:
    """Optimal intercept: mean margin residual over free rows, else the
    midpoint of the interval the bound rows leave for it."""
    resid = y - K @ (a * y)
    tau = 1e-7 * C
    free = (a > tau) & (a < C - tau)
    if free.any():
        return float(resid[free].mean())
    lowers = resid[((a <= tau) & (y > 0)) | ((a >= C - tau) & (y < 0))]
    uppers = resid[((a <= tau) & (y < 0)) | ((a >= C - tau) & (y > 0))]
    if lowers.size and uppers.size:
        return float((lowers.max() + uppers.min()) / 2.0)
    if lowers.size:
        return float(lowers.max())
    if uppers.size:
        return float(uppers.min())
    return 0.0


def oracle_fit(X: np.ndarray, y_pm: np.ndarray, C: float, sigma: float):
    """Full reference fit: z-scored features, RBF kernel, QP, bias.

    Returns (Xs, alpha, bias) with alpha indexed like the input rows.
    """
    Xs = zscore(X)
    K = rbf_matrix(Xs, Xs, sigma)
    alpha = qp_solve(K, y_pm.astype(np.float64), C)
    bias = bias_for(K, y_pm.astype(np.float64), alpha, C)
    return Xs, alpha, bias


def oracle_decision(
    Xs_train: np.ndarray,
    y_pm: np.ndarray,
    alpha: np.ndarray,
    bias: float,
    sigma: float,
    Xs_query: np.ndarray,
) -> np.ndarray:
    K = rbf_matrix(Xs_query, Xs_train, sigma)
    return K @ (alpha * y_pm) + bias
