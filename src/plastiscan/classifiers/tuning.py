"""Stratified k-fold grid search for both classifier families.

The table is sorted canonically and featurised once; folds are a fold-id array
over that one feature matrix, assigned per class: seeded shuffle, round-robin.
Each fit takes the other folds' rows, already in canonical order; a matrix
cell runs the same search on its training rows, as arrays.  The forests of
an RF search grow together, whole forests in one lockstep
(``forest._grow_forests``); an SVM search builds the scaled rows and kernel
of each (fold, sigma) pair once and solves them for every C.  The winner
maximises mean fold accuracy; exact ties resolve toward the smaller C then
smaller sigma (SVM) or the smaller mtry (RF), preferring the simpler model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Mapping

import numpy as np

from ..dataset import SampleTable, _class_ranks, _labels, feature_matrix
from ..errors import FoldTooSmallError
from ..rng import derive_seed
from ..spectra import FeatureSetSpec, PLASTIC, WATER
from .forest import (
    RFHyperParams,
    RFModel,
    _check_mtry,
    _fit_rf,
    _grow_forests,
    predict_rf_batch,
)
from .svm import SVMHyperParams, _fit_svm, _svm_problem, _svm_solve, predict_svm_batch

__all__ = [
    "DEFAULT_SIGMA_GRID",
    "DEFAULT_C_GRID",
    "GridSpec",
    "CVEntry",
    "GridSearchResult",
    "grid_search",
]

DEFAULT_SIGMA_GRID: tuple[float, ...] = (0.01, 0.03, 0.05, 0.07, 0.09)
DEFAULT_C_GRID: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class GridSpec:
    """Search space; ``mtry_grid=None`` means 1..n_features at search time."""

    mtry_grid: tuple[int, ...] | None = None
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    cv_folds: int = 5

    def __post_init__(self) -> None:
        if type(self.cv_folds) is not int or self.cv_folds < 2:
            raise ValueError(f"cv_folds must be an int >= 2, got {self.cv_folds!r}")
        if self.mtry_grid is not None and (
            not self.mtry_grid or any(type(m) is not int or m < 1 for m in self.mtry_grid)
        ):
            raise ValueError(f"mtry_grid must be non-empty positive ints, got {self.mtry_grid!r}")
        for name in ("sigma_grid", "c_grid"):
            values = getattr(self, name)
            if not values or any(  # NaN fails both tests
                isinstance(v, bool) or not (math.isfinite(v) and v > 0) for v in values
            ):
                raise ValueError(
                    f"{name} must be non-empty finite positive numbers, got {values!r}"
                )


@dataclass(frozen=True)
class CVEntry:
    """Cross-validation record for one grid point."""

    params: Mapping[str, float]
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float


@dataclass(frozen=True)
class GridSearchResult:
    best: RFHyperParams | SVMHyperParams
    cv_table: tuple[CVEntry, ...]


# Trees grown in one lockstep at most: every forest of a reduced grid, or one
# 500-tree forest of a default one.  It bounds the growth state and the
# forests held until scored: two 500-tree forests at once cut a default RF
# cell's time by about 6% but doubled its peak of traced memory.
_LOCKSTEP_TREES = 500


def _fold_ids(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Fold of each row, for rows in canonical order: per class, a seeded
    permutation of its rows dealt round-robin over the ``k`` folds."""
    for label in (PLASTIC, WATER):
        n = int(np.count_nonzero(y == label))
        if n < k:
            raise FoldTooSmallError(f"class {label} has {n} samples, fewer than cv_folds={k}")
    return _class_ranks(y, seed, "cv-folds") % k


def grid_search(
    train: SampleTable,
    spec: FeatureSetSpec,
    algo: Literal["svm", "rf"],
    grid: GridSpec,
    seed: int,
    rf_base: RFHyperParams | None = None,
    svm_base: SVMHyperParams | None = None,
) -> GridSearchResult:
    """Pick hyperparameters by stratified CV mean accuracy.

    ``rf_base`` / ``svm_base`` supply the non-searched fields (tree count,
    tolerance, ...); the searched fields are overridden per grid point.
    """
    train = train.canonical()
    search = _searcher(_labels(train.rows), spec, algo, grid, seed, rf_base, svm_base)[0]
    return search(feature_matrix(train, spec)[0])


def _searcher(y, spec: FeatureSetSpec, algo: str, grid: GridSpec, seed: int, rf_base, svm_base):
    """:func:`grid_search` of canonical rows labelled ``y``, raising fold errors,
    then argument errors.  Returns the search, which takes the rows' feature
    matrix, and the fit and predict functions of ``algo``."""
    fold = _fold_ids(y, grid.cv_folds, seed)
    folds = range(grid.cv_folds)
    if algo == "rf":
        base = rf_base if rf_base is not None else RFHyperParams()
        mtry_grid = grid.mtry_grid or tuple(range(1, spec.n_features + 1))
        for mtry in mtry_grid:  # before any fit: growth would clamp it
            _check_mtry(mtry, spec)
        points = [{"mtry": mtry} for mtry in mtry_grid]
        fit, predict = _fit_rf, predict_rf_batch
    elif algo == "svm":
        base = svm_base if svm_base is not None else SVMHyperParams()
        points = [{"C": C, "sigma": sigma} for C in grid.c_grid for sigma in grid.sigma_grid]
        fit, predict = _fit_svm, predict_svm_batch
    else:
        raise ValueError(f"algo must be 'svm' or 'rf', got {algo!r}")

    def search(X: np.ndarray) -> GridSearchResult:
        accs = []  # per fit, in (point, fold) order

        def score(model, held: int) -> None:
            out = fold == held
            accs.append(float(np.mean(predict(model, X[out]) == y[out])))

        if algo == "rf":  # whole forests grown in lockstep, up to _LOCKSTEP_TREES trees at once
            fits = [(held, replace(base, **params,
                                   seed=derive_seed(seed, "cv-fit", params["mtry"], held)))
                    for params in points for held in folds]
            step = max(1, _LOCKSTEP_TREES // base.n_trees)
            for at in range(0, len(fits), step):
                jobs = [(np.flatnonzero(fold != held), hp) for held, hp in fits[at:at + step]]
                forests = _grow_forests(X, y == PLASTIC, jobs)
                for (held, _), (rows, hp), trees in zip(fits[at:at + step], jobs, forests):
                    score(RFModel(spec=spec, hyperparams=hp, trees=trees, n_train=len(rows)), held)
        else:  # the problem of a (fold, sigma) pair serves every C
            problems = {}
            for params in points:
                hp = replace(base, **params)
                for held in folds:
                    if (held, hp.sigma) not in problems:
                        rows = fold != held
                        problems[held, hp.sigma] = _svm_problem(X[rows], y[rows], spec, hp.sigma)
                    score(_svm_solve(problems[held, hp.sigma], spec, hp), held)
        k = len(folds)
        entries = [CVEntry(params, tuple(accs[at:at + k]), float(np.mean(accs[at:at + k])))
                   for params, at in zip(points, range(0, len(accs), k))]
        best = min(entries, key=lambda e: (-e.mean_accuracy, *e.params.values()))
        return GridSearchResult(best=replace(base, **best.params), cv_table=tuple(entries))

    return search, fit, predict
