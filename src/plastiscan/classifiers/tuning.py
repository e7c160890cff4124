"""Stratified k-fold grid search for both classifier families.

Folds are assigned per class: canonical order, seeded shuffle, round-robin.
The winner maximises mean fold accuracy; exact ties resolve toward the
smaller C then smaller sigma (SVM) or the smaller mtry (RF), preferring the
simpler model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Mapping

import numpy as np

from ..dataset import SampleTable, Sample, feature_matrix
from ..errors import FoldTooSmallError
from ..rng import derive_seed, seeded_rng
from ..spectra import FeatureSetSpec, PLASTIC, WATER
from .forest import RFHyperParams, predict_rf_batch, train_rf
from .svm import SVMHyperParams, predict_svm_batch, train_svm

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


def _fold_assignment(table: SampleTable, k: int, seed: int) -> list[list[Sample]]:
    """Round-robin per-class fold membership over the canonical order."""
    folds: list[list[Sample]] = [[] for _ in range(k)]
    for label in (PLASTIC, WATER):
        rows = table.only(label).canonical().rows
        if len(rows) < k:
            raise FoldTooSmallError(
                f"class {label} has {len(rows)} samples, fewer than cv_folds={k}"
            )
        order = seeded_rng(seed, "cv-folds", label).permutation(len(rows))
        for i, pos in enumerate(order):
            folds[i % k].append(rows[pos])
    return folds


def _cv_accuracy(folds, spec, fit, predict) -> tuple[float, ...]:
    accs = []
    for held in range(len(folds)):
        train_rows = [s for f, fold in enumerate(folds) if f != held for s in fold]
        model = fit(SampleTable(tuple(train_rows)), held)
        X, y = feature_matrix(SampleTable(tuple(folds[held])), spec)
        accs.append(float(np.mean(predict(model, X) == y)))
    return tuple(accs)


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
    folds = _fold_assignment(train, grid.cv_folds, seed)
    entries: list[CVEntry] = []
    candidates: list[tuple[tuple, RFHyperParams | SVMHyperParams]] = []

    if algo == "rf":
        base = rf_base if rf_base is not None else RFHyperParams()
        mtry_grid = grid.mtry_grid or tuple(range(1, spec.n_features + 1))
        for mtry in mtry_grid:
            def fit(sub, fold, _mtry=mtry):
                hp = replace(base, mtry=_mtry, seed=derive_seed(seed, "cv-fit", _mtry, fold))
                return train_rf(sub, spec, hp)

            accs = _cv_accuracy(folds, spec, fit, predict_rf_batch)
            mean = float(np.mean(accs))
            entries.append(CVEntry({"mtry": mtry}, accs, mean))
            candidates.append(((-mean, mtry), replace(base, mtry=mtry)))
    elif algo == "svm":
        base = svm_base if svm_base is not None else SVMHyperParams()
        for C in grid.c_grid:
            for sigma in grid.sigma_grid:
                hp = replace(base, C=C, sigma=sigma)

                def fit(sub, fold, _hp=hp):  # the SVM solver draws no randomness
                    return train_svm(sub, spec, _hp)

                accs = _cv_accuracy(folds, spec, fit, predict_svm_batch)
                mean = float(np.mean(accs))
                entries.append(CVEntry({"C": C, "sigma": sigma}, accs, mean))
                candidates.append(((-mean, C, sigma), hp))
    else:
        raise ValueError(f"algo must be 'svm' or 'rf', got {algo!r}")

    best = min(candidates, key=lambda item: item[0])[1]
    return GridSearchResult(best=best, cv_table=tuple(entries))
