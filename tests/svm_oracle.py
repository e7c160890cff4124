"""Reference for the SVM solver: WSS2 SMO as first written, one whole-array
pass per iteration.

``solve`` is the package's earlier ``svm._solve``, kept verbatim, so tests
can require the package's dual coefficients and convergence errors to match
it bit for bit.
"""

from __future__ import annotations

import numpy as np

from plastiscan.classifiers.svm import SVMHyperParams
from plastiscan.errors import ConvergenceError


def solve(K: np.ndarray, y: np.ndarray, hp: SVMHyperParams) -> np.ndarray:
    C, n = float(hp.C), len(y)
    limit = hp.max_passes * n
    pos = y > 0
    diag = np.diag(K)
    alpha = np.zeros(n)
    F = y.copy()  # grad = -1 at alpha = 0
    for it in range(limit + 1):
        up = np.where(pos, alpha < C, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < C)
        i = int(np.argmax(np.where(up, F, -np.inf)))
        gap = F[i] - F[low].min()
        if gap < hp.tolerance:
            return alpha
        if it == limit:
            break
        b = F[i] - F
        a = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        j = int(np.argmin(np.where(low & (b > 0.0), -b * b / a, np.inf)))
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        alpha[i] = (C if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == room_j else alpha[j] - y[j] * t
        F -= t * (K[i] - K[j])  # K is exactly symmetric: row == column
    raise ConvergenceError(
        f"SMO stopped after {limit} iterations (max_passes {hp.max_passes} "
        f"x n {n}) with KKT gap {gap:.3g} >= tolerance {hp.tolerance:g}"
    )
