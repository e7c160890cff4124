"""Stratified k-fold grid search: fold mechanics, selection, tie-breaking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from plastiscan import PLASTIC, RFHyperParams, SVMHyperParams, WATER
from plastiscan.classifiers.tuning import (
    DEFAULT_C_GRID,
    DEFAULT_SIGMA_GRID,
    GridSpec,
    _fold_assignment,
    grid_search,
)
from plastiscan.errors import FoldTooSmallError

from conftest import band_spec, table_from_features


def separable_table(seed=0, n=16, d=2, spread=0.02):
    rng = np.random.default_rng(seed)
    y = np.array([PLASTIC, WATER] * (n // 2))
    X = np.where(y[:, None] == PLASTIC, 0.9, 0.1) + rng.normal(0, spread, (n, d))
    return table_from_features(X, y), y


def planted_redundancy(seed, n=80, p_strong=0.80, p_weak=0.78, jitter=0.01):
    """Three noisy label-voters; the strongest one duplicated across columns.

    Depth-1 stumps with every feature visible keep picking the strongest
    voter, so the forest collapses to a single ~p_strong classifier.  With
    one random feature per split the stumps diversify and majority voting
    beats any individual voter.
    """
    rng = np.random.default_rng(seed)
    y = np.array([PLASTIC, WATER] * (n // 2))
    sign = np.where(y == PLASTIC, 1.0, -1.0)

    def voter(p):
        agree = rng.uniform(size=n) < p
        return np.where(agree, sign, -sign)

    def feature(v):
        return 0.5 + 0.25 * v + rng.normal(0, jitter, size=n)

    v0, v1, v2 = voter(p_strong), voter(p_weak), voter(p_weak)
    X = np.column_stack([feature(v0), feature(v0), feature(v1), feature(v2)])
    return table_from_features(X, y)


class TestGridSpec:
    def test_default_grids_cover_tuned_profile(self):
        assert DEFAULT_SIGMA_GRID == (0.01, 0.03, 0.05, 0.07, 0.09)
        assert DEFAULT_C_GRID == (2.0, 4.0, 6.0, 8.0, 10.0)
        spec = GridSpec()
        assert 0.09 in spec.sigma_grid
        assert 10.0 in spec.c_grid
        assert spec.cv_folds == 5

    @pytest.mark.parametrize(
        "kwargs",
        [dict(cv_folds=1), dict(mtry_grid=()), dict(mtry_grid=(0,)),
         dict(sigma_grid=()), dict(sigma_grid=(0.0,)), dict(sigma_grid=(-0.1,)),
         dict(c_grid=()), dict(c_grid=(0.0,)),
         dict(mtry_grid=(1.5,)), dict(mtry_grid=(True,)), dict(mtry_grid=(np.int64(1),)),
         dict(cv_folds=2.5), dict(cv_folds=2.0), dict(cv_folds=True), dict(cv_folds=np.int64(3)),
         dict(sigma_grid=(math.nan,)), dict(sigma_grid=(0.09, math.inf)),
         dict(sigma_grid=(True,)), dict(c_grid=(math.inf,)), dict(c_grid=(2.0, math.nan)),
         dict(c_grid=(-math.inf,)), dict(c_grid=(True,))],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestFoldAssignment:
    def test_partition_and_balance(self):
        table, _ = separable_table(n=26)
        folds = _fold_assignment(table, 4, seed=9)
        seen = [s.key() for fold in folds for s in fold]
        assert sorted(seen) == sorted(s.key() for s in table.rows)
        for label in (PLASTIC, WATER):
            sizes = [sum(s.label == label for s in fold) for fold in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic_and_seed_sensitive(self):
        table, _ = separable_table(n=24)
        keys = lambda folds: [[s.key() for s in fold] for fold in folds]
        assert keys(_fold_assignment(table, 3, 1)) == keys(_fold_assignment(table, 3, 1))
        assert keys(_fold_assignment(table, 3, 1)) != keys(_fold_assignment(table, 3, 2))

    def test_class_smaller_than_fold_count(self):
        table, _ = separable_table(n=8)
        with pytest.raises(FoldTooSmallError, match="cv_folds=5"):
            _fold_assignment(table, 5, seed=0)

    def test_grid_search_propagates_fold_error(self):
        table, _ = separable_table(n=6)
        with pytest.raises(FoldTooSmallError):
            grid_search(table, band_spec(2), "rf",
                        GridSpec(mtry_grid=(1,), cv_folds=4), seed=0)


class TestRFSearch:
    def test_single_point_grid_returns_it(self):
        table, _ = separable_table()
        res = grid_search(table, band_spec(2), "rf",
                          GridSpec(mtry_grid=(2,), cv_folds=2), seed=0,
                          rf_base=RFHyperParams(n_trees=15))
        assert res.best.mtry == 2
        assert len(res.cv_table) == 1

    def test_default_mtry_grid_spans_feature_count(self):
        table, _ = separable_table(d=3)
        res = grid_search(table, band_spec(3), "rf",
                          GridSpec(cv_folds=2), seed=0,
                          rf_base=RFHyperParams(n_trees=10))
        assert [e.params["mtry"] for e in res.cv_table] == [1, 2, 3]

    def test_base_fields_carried_into_winner(self):
        table, _ = separable_table()
        base = RFHyperParams(n_trees=12, max_depth=3, min_samples_leaf=2)
        res = grid_search(table, band_spec(2), "rf",
                          GridSpec(mtry_grid=(1, 2), cv_folds=2), seed=0,
                          rf_base=base)
        assert res.best.n_trees == 12
        assert res.best.max_depth == 3
        assert res.best.min_samples_leaf == 2

    def test_tie_prefers_smaller_mtry(self):
        # duplicated feature: both mtry values separate perfectly
        rng = np.random.default_rng(1)
        y = np.array([PLASTIC, WATER] * 10)
        col = np.where(y == PLASTIC, 0.9, 0.1) + rng.normal(0, 0.01, 20)
        table = table_from_features(np.column_stack([col, col]), y)
        res = grid_search(table, band_spec(2), "rf",
                          GridSpec(mtry_grid=(2, 1), cv_folds=2), seed=0,
                          rf_base=RFHyperParams(n_trees=15))
        assert all(e.mean_accuracy == 1.0 for e in res.cv_table)
        assert res.best.mtry == 1

    def test_redundant_features_favor_mtry_one(self):
        table = planted_redundancy(seed=3)
        res = grid_search(table, band_spec(4), "rf",
                          GridSpec(mtry_grid=(1, 4), cv_folds=4), seed=3,
                          rf_base=RFHyperParams(n_trees=60, max_depth=1))
        means = {e.params["mtry"]: e.mean_accuracy for e in res.cv_table}
        assert means[1] > means[4]
        assert res.best.mtry == 1

    def test_cv_table_shape(self):
        table, _ = separable_table()
        res = grid_search(table, band_spec(2), "rf",
                          GridSpec(mtry_grid=(1, 2), cv_folds=3), seed=0,
                          rf_base=RFHyperParams(n_trees=10))
        for entry in res.cv_table:
            assert set(entry.params) == {"mtry"}
            assert len(entry.fold_accuracies) == 3
            assert all(0.0 <= a <= 1.0 for a in entry.fold_accuracies)
            assert entry.mean_accuracy == pytest.approx(
                np.mean(entry.fold_accuracies))


class TestSVMSearch:
    def test_single_point_grid_returns_it(self):
        table, _ = separable_table()
        res = grid_search(table, band_spec(2), "svm",
                          GridSpec(sigma_grid=(0.07,), c_grid=(4.0,), cv_folds=2),
                          seed=0)
        assert res.best.C == 4.0
        assert res.best.sigma == 0.07
        assert len(res.cv_table) == 1

    def test_full_grid_enumerated(self):
        table, _ = separable_table()
        res = grid_search(table, band_spec(2), "svm",
                          GridSpec(sigma_grid=(0.05, 0.09), c_grid=(2.0, 10.0),
                                   cv_folds=2), seed=0)
        combos = {(e.params["C"], e.params["sigma"]) for e in res.cv_table}
        assert combos == {(2.0, 0.05), (2.0, 0.09), (10.0, 0.05), (10.0, 0.09)}

    def test_tie_prefers_smaller_c_then_sigma(self):
        table, _ = separable_table()
        res = grid_search(table, band_spec(2), "svm",
                          GridSpec(sigma_grid=(0.09, 0.01), c_grid=(10.0, 2.0),
                                   cv_folds=4), seed=5)
        assert all(e.mean_accuracy == 1.0 for e in res.cv_table)
        assert res.best.C == 2.0
        assert res.best.sigma == 0.01

    def test_base_fields_carried_into_winner(self):
        table, _ = separable_table()
        base = SVMHyperParams(tolerance=1e-4, max_passes=500)
        res = grid_search(table, band_spec(2), "svm",
                          GridSpec(sigma_grid=(0.09,), c_grid=(10.0,), cv_folds=2),
                          seed=0, svm_base=base)
        assert res.best.tolerance == 1e-4
        assert res.best.max_passes == 500


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        table = planted_redundancy(seed=2, n=40)
        kwargs = dict(
            spec=band_spec(4), algo="rf",
            grid=GridSpec(mtry_grid=(1, 4), cv_folds=2), seed=7,
            rf_base=RFHyperParams(n_trees=20, max_depth=1),
        )
        a = grid_search(table, **kwargs)
        b = grid_search(table, **kwargs)
        assert a.best == b.best
        assert a.cv_table == b.cv_table

    def test_unknown_algo(self):
        table, _ = separable_table()
        with pytest.raises(ValueError, match="algo"):
            grid_search(table, band_spec(2), "boost", GridSpec(cv_folds=2), seed=0)
