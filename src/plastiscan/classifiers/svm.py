"""RBF-kernel support vector machine trained by sequential minimal optimisation.

Features are z-scored with training-set statistics (zero-variance columns are
dropped with a warning).  The kernel is ``k(x, y) = exp(-sigma * ||x - y||^2)``
with ``sigma`` used directly as the exponential gain; the textbook
``exp(-||x - y||^2 / (2 s^2))`` form is the reparameterisation
``sigma = 1 / (2 s^2)``.  Internally plastic maps to +1 and water to -1; the
decision function is ``f(x) = sum_i dual_coef_i k(sv_i, x) + bias`` and a
pixel is plastic when ``f(x) >= 0``.  Prediction evaluates it in fixed blocks
of rows through the same kernel function as training, so a scene never holds
a whole pixels x support-vectors kernel and each row's value is the same
whatever block it falls in.  That function runs the kernel expression in
place, one operation after another in the order written, in one buffer that
every block of a call reuses, and a call squares the support vectors' norms
once; the values are bit for bit those of the expression with a new array per
operation.

The solver is SMO with LIBSVM's second-order working-set selection (WSS2;
Fan, Chen & Lin, JMLR 2005): each iteration updates the maximal violating row
and the partner with the largest second-order gain, so training draws no
randomness and is deterministic by construction.  The bias is recomputed at
the end as the mean over free support vectors (0 < alpha < C).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from ..dataset import SampleTable, _training_matrix
from ..errors import (
    ConvergenceError,
    EmptyFeaturesError,
    EmptyInputError,
    LengthMismatchError,
    SpecMismatchError,
    _outside_stacklevel,
)
from ..spectra import FeatureSetSpec, FeatureVector, PLASTIC, WATER

__all__ = [
    "SVMHyperParams",
    "Scaler",
    "SVMModel",
    "rbf_kernel",
    "train_svm",
    "decision_function",
    "predict_svm",
    "predict_svm_batch",
]

_BOUND_EPS = 1e-10  # relative margin for "at bound" tests


@dataclass(frozen=True)
class SVMHyperParams:
    """Soft-margin and kernel controls."""

    C: float = 10.0
    sigma: float = 0.09  # RBF exponential gain
    tolerance: float = 1e-3  # bound on the maximal violating pair's KKT gap
    max_passes: int = 1000  # caps the solver at max_passes * n iterations
    seed: int = 0  # kept for saved models and callers; the solver does not read it

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("max_passes", "seed") and type(value) is not int:
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if isinstance(value, bool):  # C, sigma and tolerance
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("C", "sigma", "tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):  # NaN fails both
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score statistics from the training set."""

    mean: np.ndarray
    sd: np.ndarray
    kept: np.ndarray  # bool; False marks dropped zero-variance columns

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X[:, self.kept] - self.mean[self.kept]) / self.sd[self.kept]


def rbf_kernel(x, y, sigma: float) -> float:
    """exp(-sigma * ||x - y||^2) for two equal-length vectors."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    ya = np.asarray(y, dtype=np.float64).reshape(-1)
    if xa.shape != ya.shape:
        raise LengthMismatchError(f"vector lengths differ: {xa.size} vs {ya.size}")
    diff = xa - ya
    return math.exp(-sigma * float(diff @ diff))


def _rbf_matrix(a: np.ndarray, b: np.ndarray, sigma: float, b_sq=None, out=None) -> np.ndarray:
    """``exp(-sigma * max(|a_i|^2 + |b_j|^2 - 2 a_i . b_j, 0))`` for every pair
    of rows, each operation in the order written, evaluated in place in
    ``out`` (a new (len(a), len(b)) array when None).  ``b_sq`` is ``b``'s
    squared row norms, for a caller that uses one ``b`` many times."""
    if b_sq is None:
        b_sq = np.sum(b * b, axis=1)
    sq = np.add(np.sum(a * a, axis=1)[:, None], b_sq, out=out)
    gram = a @ b.T
    gram *= 2.0
    sq -= gram
    np.maximum(sq, 0.0, out=sq)
    sq *= -sigma
    return np.exp(sq, out=sq)


@dataclass(eq=False)
class SVMModel:
    """Trained SVM: scaled support vectors, dual coefficients, bias."""

    spec: FeatureSetSpec
    hyperparams: SVMHyperParams
    scaler: Scaler
    support_vectors: np.ndarray  # (m, kept features), already scaled
    dual_coefs: np.ndarray  # alpha_i * y_i, length m
    bias: float
    n_train: int

    @property
    def n_support(self) -> int:
        return len(self.dual_coefs)


def _curvature(K: np.ndarray) -> np.ndarray:
    """``max(K_ii + K_jj - 2 K_ij, 1e-12)`` for every pair (i, j): the
    second-order term of an SMO step on the pair, clamped where it is 0."""
    diag = np.diag(K)
    return np.maximum(diag[:, None] + diag - K * 2.0, 1e-12)


def _solve(K: np.ndarray, curvature: np.ndarray, y: np.ndarray, hp: SVMHyperParams) -> np.ndarray:
    """Dual coefficients by SMO with second-order working-set selection.

    Minimises ``a'Qa / 2 - sum(a)`` over ``0 <= a <= C``, ``y'a = 0`` with
    ``Q = yy' * K`` (LIBSVM's WSS2; Fan, Chen & Lin, JMLR 2005).  ``F`` holds
    ``-y * grad``.  Each iteration takes the maximal violator ``i`` in I_up,
    pairs it with the ``j`` in I_low of largest second-order gain (with
    ``curvature`` from :func:`_curvature`), and moves ``alpha_i`` by ``+y_i t``
    and ``alpha_j`` by ``-y_j t``.  It stops when the pair gap ``max F[I_up] -
    min F[I_low]`` is below ``hp.tolerance``.

    An iteration is a fixed run of whole-array operations into buffers made
    once.  The sets are kept as offsets added to ``F`` (0 inside, -inf
    outside I_up, +inf outside I_low), and only the two rows an iteration
    moves are tested again.  ``alpha`` is a list: it is only ever read and
    written one entry at a time.
    """
    C, n = float(hp.C), len(y)
    limit = hp.max_passes * n
    pos, sign = (y > 0).tolist(), y.tolist()
    alpha = [0.0] * n
    F = y.copy()  # grad = -1 at alpha = 0
    off_up = np.where(y > 0, 0.0, -np.inf)  # alpha = 0: I_up holds y > 0, I_low y < 0
    off_low = np.where(y > 0, np.inf, 0.0)
    score, b, work = np.empty(n), np.empty(n), np.empty(n)
    skip = np.empty(n, dtype=bool)
    for it in range(limit + 1):
        i = int(np.add(F, off_up, out=score).argmax())
        gap = F[i] - np.minimum.reduce(np.add(F, off_low, out=work))
        if gap < hp.tolerance:
            return np.array(alpha)
        if it == limit:
            break
        K_i, a = K[i], curvature[i]
        np.subtract(F[i], F, out=b)
        np.negative(b, out=score)  # -b * b / a over the rows of I_low with b > 0
        np.multiply(score, b, out=score)
        np.divide(score, a, out=score)
        np.add(score, off_low, out=score)
        np.copyto(score, np.inf, where=np.less_equal(b, 0.0, out=skip))
        j = int(score.argmin())
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(float(b[j] / a[j]), room_i, room_j)
        alpha[i] = (C if pos[i] else 0.0) if t == room_i else alpha[i] + sign[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == room_j else alpha[j] - sign[j] * t
        for k in (i, j):
            in_up = alpha[k] < C if pos[k] else alpha[k] > 0.0
            in_low = alpha[k] > 0.0 if pos[k] else alpha[k] < C
            off_up[k] = 0.0 if in_up else -np.inf
            off_low[k] = 0.0 if in_low else np.inf
        # t * (K_i - K_j); K is exactly symmetric: row == column
        F -= np.multiply(np.subtract(K_i, K[j], out=work), t, out=work)
    raise ConvergenceError(
        f"SMO stopped after {limit} iterations (max_passes {hp.max_passes} "
        f"x n {n}) with KKT gap {gap:.3g} >= tolerance {hp.tolerance:g}"
    )


def _final_bias(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Mean bias over free rows; KKT-interval midpoint if none are free."""
    g = K @ (alpha * y)
    residual = y - g  # the bias that would put each row exactly on its margin
    lo_bound = alpha <= _BOUND_EPS * C
    hi_bound = alpha >= C * (1.0 - _BOUND_EPS)
    free = ~lo_bound & ~hi_bound
    if free.any():
        return float(np.mean(residual[free]))
    lowers = residual[(lo_bound & (y > 0)) | (hi_bound & (y < 0))]
    uppers = residual[(lo_bound & (y < 0)) | (hi_bound & (y > 0))]
    if lowers.size and uppers.size:
        return float((lowers.max() + uppers.min()) / 2.0)
    if lowers.size:
        return float(lowers.max())
    if uppers.size:
        return float(uppers.min())
    return 0.0


def train_svm(table: SampleTable, spec: FeatureSetSpec, hp: SVMHyperParams) -> SVMModel:
    """Fit an RBF SVM on ``table`` under ``spec``.

    Rows are canonically sorted before the solver runs, so training is
    invariant to input row order.  Raises
    :class:`~plastiscan.errors.ConvergenceError` if the solver exhausts
    ``hp.max_passes * n`` iterations.
    """
    return _fit_svm(*_training_matrix(table, spec), spec, hp)


def _fit_svm(X, labels, spec: FeatureSetSpec, hp: SVMHyperParams) -> SVMModel:
    """:func:`train_svm` on checked two-class features of canonically sorted rows."""
    return _svm_solve(_svm_problem(X, labels, spec, hp.sigma), spec, hp)


def _svm_problem(X, labels, spec: FeatureSetSpec, sigma: float) -> tuple:
    """``(scaler, scaled rows, labels as +-1, kernel, curvature)`` of a fit:
    its part that C and the solver settings do not change."""
    y = np.where(labels == PLASTIC, 1.0, -1.0)

    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    kept = sd > 0.0
    if not kept.any():
        raise EmptyFeaturesError("every feature is constant; nothing to train on")
    if not kept.all():
        dropped = [spec.members[i] for i in np.nonzero(~kept)[0]]
        warnings.warn(
            f"dropping zero-variance feature(s): {', '.join(dropped)}",
            stacklevel=_outside_stacklevel(),
        )
    scaler = Scaler(mean=mean, sd=sd, kept=kept)
    Xs = scaler.transform(X)

    K = _rbf_matrix(Xs, Xs, sigma)
    K = (K + K.T) / 2.0  # exact symmetry for the solver
    return scaler, Xs, y, K, _curvature(K)


def _svm_solve(problem: tuple, spec: FeatureSetSpec, hp: SVMHyperParams) -> SVMModel:
    """The model of a :func:`_svm_problem` built with ``hp.sigma``."""
    scaler, Xs, y, K, curvature = problem
    alpha = _solve(K, curvature, y, hp)
    bias = _final_bias(K, y, alpha, hp.C)

    support = alpha > _BOUND_EPS * hp.C
    if not support.any():
        raise ConvergenceError("SMO ended with no support vectors")
    return SVMModel(
        spec=spec,
        hyperparams=hp,
        scaler=scaler,
        support_vectors=Xs[support],
        dual_coefs=(alpha * y)[support],
        bias=bias,
        n_train=len(y),
    )


# Rows per kernel block in prediction: a block's kernel matrix and its
# temporaries stay cache-sized, where one for a whole scene would be tens of MB.
_BLOCK_ROWS = 1024


def _decision_batch(model: SVMModel, X: np.ndarray) -> np.ndarray:
    sv, sigma = model.support_vectors, model.hyperparams.sigma
    sv_sq = np.sum(sv * sv, axis=1)
    block = np.empty((min(len(X), _BLOCK_ROWS), len(sv)))  # every block's kernel, in turn
    out = np.empty(len(X))
    for at in range(0, len(X), _BLOCK_ROWS):
        Xs = model.scaler.transform(X[at:at + _BLOCK_ROWS])
        K = _rbf_matrix(Xs, sv, sigma, sv_sq, block[:len(Xs)])
        out[at:at + _BLOCK_ROWS] = K @ model.dual_coefs + model.bias
    return out


def decision_function(model: SVMModel, fv: FeatureVector) -> float:
    """Signed margin f(x); plastic when f(x) >= 0."""
    if fv.spec_id != model.spec.spec_id:
        raise SpecMismatchError(
            f"feature vector is for {fv.spec_id}, model is for {model.spec.spec_id}"
        )
    return float(_decision_batch(model, np.asarray(fv.values)[None, :])[0])


def predict_svm_batch(model: SVMModel, X: np.ndarray) -> np.ndarray:
    """Class labels for rows of X (plastic on the non-negative side)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.n_features:
        raise SpecMismatchError(
            f"expected shape (n, {model.spec.n_features}) for {model.spec.spec_id}, "
            f"got {X.shape}"
        )
    if len(X) == 0:
        raise EmptyInputError("no rows to predict")
    return np.where(_decision_batch(model, X) >= 0.0, PLASTIC, WATER)


def predict_svm(model: SVMModel, fv: FeatureVector) -> int:
    """Class label for one feature vector."""
    return PLASTIC if decision_function(model, fv) >= 0.0 else WATER
