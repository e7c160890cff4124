"""Reference for the grid search: stratified k-fold CV over per-fold tables.

``fold_assignment`` and ``grid_search`` are the package's earlier table-based
search, kept as it was: each fold fit builds its own ``SampleTable`` and goes
through the public ``train_rf`` / ``train_svm``, which sort it canonically and
featurise it again, and each held-out fold is featurised on its own.  Tests
require ``tuning.grid_search`` to return the same winner and an equal CV table.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from plastiscan.classifiers.forest import RFHyperParams, predict_rf_batch, train_rf
from plastiscan.classifiers.svm import SVMHyperParams, predict_svm_batch, train_svm
from plastiscan.classifiers.tuning import CVEntry, GridSearchResult
from plastiscan.dataset import SampleTable, feature_matrix
from plastiscan.errors import FoldTooSmallError
from plastiscan.rng import derive_seed, seeded_rng
from plastiscan.spectra import PLASTIC, WATER


def fold_assignment(table: SampleTable, k: int, seed: int) -> list[list]:
    """Round-robin per-class fold membership over the canonical order."""
    folds: list[list] = [[] for _ in range(k)]
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


def grid_search(train, spec, algo, grid, seed, rf_base=None, svm_base=None):
    folds = fold_assignment(train, grid.cv_folds, seed)
    entries = []
    candidates = []

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
