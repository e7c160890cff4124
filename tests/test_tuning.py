"""Stratified k-fold grid search: fold mechanics, selection, tie-breaking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from plastiscan import (
    MODEL_SPECS,
    PLASTIC,
    RFHyperParams,
    SVMHyperParams,
    SynthConfig,
    TestCaseSpec as CaseSpec,
    WATER,
    build_test_case,
    gen_dataset,
    split,
    train_svm,
)
from plastiscan.classifiers.tuning import (
    DEFAULT_C_GRID,
    DEFAULT_SIGMA_GRID,
    GridSpec,
    _fold_ids,
    grid_search,
)
from plastiscan.dataset import Sample, SampleTable
from plastiscan.errors import ConvergenceError, DegenerateDenominatorError, FoldTooSmallError
from plastiscan.spectra import PixelSpectrum

import cv_oracle
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


def matrix_train(n_plastic, n_water, case, seed):
    """A matrix cell's training table: a shuffled test case, split 70/30."""
    pool = gen_dataset(SynthConfig(n_plastic=n_plastic, n_water=n_water, seed=seed))
    table = build_test_case(pool.only(PLASTIC), pool.only(WATER), CaseSpec(case), seed)
    return split(table, 0.7, seed).train


class TestFoldAssignment:
    def test_partition_and_balance(self):
        _, y = separable_table(n=26)
        fold = _fold_ids(y, 4, seed=9)
        assert fold.shape == y.shape
        assert set(fold.tolist()) == {0, 1, 2, 3}
        for label in (PLASTIC, WATER):
            sizes = np.bincount(fold[y == label], minlength=4)
            assert sizes.max() - sizes.min() <= 1

    def test_deterministic_and_seed_sensitive(self):
        _, y = separable_table(n=24)
        assert np.array_equal(_fold_ids(y, 3, 1), _fold_ids(y, 3, 1))
        assert not np.array_equal(_fold_ids(y, 3, 1), _fold_ids(y, 3, 2))

    def test_class_smaller_than_fold_count(self):
        _, y = separable_table(n=8)
        with pytest.raises(FoldTooSmallError, match="cv_folds=5"):
            _fold_ids(y, 5, seed=0)

    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 7), (5, 987654)])
    def test_membership_equals_oracle(self, k, seed):
        table = matrix_train(12, 60, "TC3", seed=4)
        rows = table.canonical().rows
        fold = _fold_ids(np.array([s.label for s in rows]), k, seed)
        expected = cv_oracle.fold_assignment(table, k, seed)
        for f in range(k):
            assert {rows[i].key() for i in np.flatnonzero(fold == f)} == {
                s.key() for s in expected[f]
            }

    def test_grid_search_propagates_fold_error(self):
        table, _ = separable_table(n=6)
        with pytest.raises(FoldTooSmallError):
            grid_search(table, band_spec(2), "rf",
                        GridSpec(mtry_grid=(1,), cv_folds=4), seed=0)


def tied_table():
    """A duplicated, cleanly separating feature: every grid point scores 1.0."""
    rng = np.random.default_rng(1)
    y = np.array([PLASTIC, WATER] * 10)
    col = np.where(y == PLASTIC, 0.9, 0.1) + rng.normal(0, 0.01, 20)
    return table_from_features(np.column_stack([col, col]), y)


class TestCVOracle:
    """The search over one feature matrix equals the per-fold-table search."""

    POOLS = {
        "tc1-model2": (lambda: matrix_train(24, 130, "TC1", seed=3), MODEL_SPECS["Model2"], 3),
        "tc3-model5": (lambda: matrix_train(16, 120, "TC3", seed=11), MODEL_SPECS["Model5"], 2),
        "tc5-model4": (lambda: matrix_train(10, 120, "TC5", seed=987654), MODEL_SPECS["Model4"], 5),
        "tied": (tied_table, band_spec(2), 0),
    }
    SEARCHES = {
        "rf-depth-first": dict(algo="rf", rf_base=RFHyperParams(n_trees=12)),
        "rf-best-first": dict(algo="rf", rf_base=RFHyperParams(n_trees=12, max_leaf_nodes=4)),
        "svm": dict(algo="svm"),
    }

    @pytest.mark.parametrize("search", SEARCHES)
    @pytest.mark.parametrize("pool", POOLS)
    def test_search_equals_oracle(self, pool, search):
        make, spec, seed = self.POOLS[pool]
        table = make()
        kwargs = dict(spec=spec, seed=seed, **self.SEARCHES[search],
                      grid=GridSpec(sigma_grid=(0.03, 0.09), c_grid=(2.0, 10.0), cv_folds=3))
        got = grid_search(table, **kwargs)
        want = cv_oracle.grid_search(table, **kwargs)
        assert got.best == want.best
        assert got.cv_table == want.cv_table
        for g, w in zip(got.cv_table, want.cv_table):
            assert g.params == w.params
            assert g.fold_accuracies == w.fold_accuracies
            assert g.mean_accuracy == w.mean_accuracy
        if pool == "tied":
            means = [e.mean_accuracy for e in got.cv_table]
            assert len(set(means)) < len(means)

    def test_first_convergence_error_equals_oracle(self):
        # at one SMO pass, (C=2, sigma=0.09) is the first point to fail in
        # (C, sigma, fold) order and (C=10, sigma=0.03) in (sigma, C, fold)
        # order; their messages differ in the KKT gap
        make, spec, seed = self.POOLS["tc1-model2"]
        table = make()
        kwargs = dict(spec=spec, algo="svm", seed=seed, svm_base=SVMHyperParams(max_passes=1),
                      grid=GridSpec(sigma_grid=(0.03, 0.09), c_grid=(2.0, 10.0), cv_folds=3))
        with pytest.raises(ConvergenceError) as got:
            grid_search(table, **kwargs)
        with pytest.raises(ConvergenceError) as want:
            cv_oracle.grid_search(table, **kwargs)
        assert str(got.value) == str(want.value)


def band_sample(i, label, b4=0.05, b8=0.25):
    spectrum = PixelSpectrum({"B4": b4, "B6": 0.06 + 0.001 * i, "B8": b8, "B11": 0.02})
    return Sample(site="s", date="2019-04-24", row=i, col=0, spectrum=spectrum,
                  label=label, plastic_fraction=50.0 if label == PLASTIC else None)


def alternating_table(n, degenerate=None):
    """``n`` samples of alternating class; row ``degenerate`` has B4 + B8 = 0."""
    return SampleTable(tuple(
        band_sample(i, PLASTIC if i % 2 == 0 else WATER,
                    **(dict(b4=0.0, b8=0.0) if i == degenerate else {}))
        for i in range(n)
    ))


class TestSearchErrors:
    """Each failure keeps its type, its text and its precedence."""

    def test_mtry_beyond_feature_count(self):
        table = matrix_train(12, 60, "TC3", seed=4)
        with pytest.raises(ValueError, match=r"^mtry=9 exceeds the 3 features of Model4$"):
            grid_search(table, MODEL_SPECS["Model4"], "rf",
                        GridSpec(mtry_grid=(1, 9), cv_folds=2), seed=0,
                        rf_base=RFHyperParams(n_trees=5))

    def test_single_class_table(self):
        table = table_from_features(np.full((6, 2), 0.5), [PLASTIC] * 6)
        with pytest.raises(FoldTooSmallError,
                           match=r"^class 2 has 0 samples, fewer than cv_folds=2$"):
            grid_search(table, band_spec(2), "svm", GridSpec(cv_folds=2), seed=0)

    @pytest.mark.parametrize("algo", ["rf", "svm"])
    def test_fold_error_before_degenerate_row(self, algo):
        table = alternating_table(6, degenerate=2)
        with pytest.raises(FoldTooSmallError,
                           match=r"^class 1 has 3 samples, fewer than cv_folds=4$"):
            grid_search(table, MODEL_SPECS["Model4"], algo, GridSpec(cv_folds=4), seed=0)

    @pytest.mark.parametrize("algo", ["rf", "svm"])
    def test_degenerate_row_names_its_sample(self, algo):
        table = alternating_table(12, degenerate=5)
        with pytest.raises(
            DegenerateDenominatorError,
            match=r"^sample \('s', '2019-04-24', 5, 0\): PI denominator is degenerate$",
        ):
            grid_search(table, MODEL_SPECS["Model4"], algo, GridSpec(cv_folds=2), seed=0,
                        rf_base=RFHyperParams(n_trees=5))

    def test_zero_variance_warning_text(self):
        y = np.array([PLASTIC, WATER] * 6)
        X = np.column_stack([np.where(y == PLASTIC, 0.9, 0.1), np.full(12, 0.3)])
        with pytest.warns(UserWarning, match=r"^dropping zero-variance feature\(s\): B3$"):
            grid_search(table_from_features(X, y), band_spec(2), "svm",
                        GridSpec(sigma_grid=(0.09,), c_grid=(2.0,), cv_folds=2), seed=0)



class TestZeroVarianceWarningLocation:
    """The warning names the caller's line however deep the fit is called."""

    @staticmethod
    def constant_column_table():
        y = np.array([PLASTIC, WATER] * 6)
        # 0.25 is exact in binary, so the column's sd is 0 over any rows
        X = np.column_stack([np.where(y == PLASTIC, 0.9, 0.1), np.full(12, 0.25)])
        return table_from_features(X, y)

    def test_through_grid_search(self):
        with pytest.warns(UserWarning, match="zero-variance") as record:
            grid_search(self.constant_column_table(), band_spec(2), "svm",
                        GridSpec(sigma_grid=(0.09,), c_grid=(2.0,), cv_folds=2), seed=0)
        assert [r.filename for r in record] == [__file__] * 2

    def test_through_train_svm(self):
        with pytest.warns(UserWarning, match="zero-variance") as record:
            train_svm(self.constant_column_table(), band_spec(2), SVMHyperParams())
        assert [r.filename for r in record] == [__file__]


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
