"""Random forest: growth rules, OOB bookkeeping, importances, determinism."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from plastiscan import (
    GridSpec,
    PLASTIC,
    PatchSpec,
    RFHyperParams,
    SynthConfig,
    WATER,
    classify_scene,
    gen_dataset,
    gen_scene,
    grid_search,
    load_model,
    predict_rf,
    predict_rf_batch,
    rf_permutation_importance,
    run_cell,
    save_model,
    train_rf,
)
from plastiscan.classifiers import forest, tuning
from plastiscan.classifiers.forest import RFModel, _Tree, _best_splits
from plastiscan.dataset import Sample, SampleTable
from plastiscan.errors import (
    ClassTooSmallError,
    EmptyInputError,
    LengthMismatchError,
    MissingOobRecordsError,
    SingleClassError,
    SpecMismatchError,
)
from plastiscan.rng import seeded_rng
from plastiscan.spectra import MODEL_SPECS, FeatureVector, PixelSpectrum

import cv_oracle
import forest_oracle
import scene_oracle
from conftest import band_spec, table_from_features


def uniform_table(n=40, n_features=3, seed=0, separator=None):
    """Random features in [0, 1]; ``separator`` plants a separating column."""
    rng = np.random.default_rng(seed)
    y = np.array([PLASTIC] * (n // 2) + [WATER] * (n - n // 2))
    X = rng.uniform(0.0, 1.0, size=(n, n_features))
    if separator is not None:
        X[:, separator] = np.where(y == PLASTIC, 0.9, 0.1)
        X[:, separator] += rng.uniform(-0.05, 0.05, size=n)
    return table_from_features(X, y), X, y


def record(feature, threshold, left, right, counts) -> _Tree:
    """A tree record with the node arrays' dtypes, as train_rf gives them."""
    values = (feature, threshold, left, right, np.reshape(counts, (-1, 2)))
    return _Tree(*(np.asarray(v, dtype=d) for v, d in zip(values, forest_oracle.DTYPES)),
                 in_bag=None)


def leaf_tree(counts) -> _Tree:
    return record(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[counts])


def n_leaves(tree) -> int:
    return int((tree.feature < 0).sum())


def mirrored(tree) -> _Tree:
    """``tree`` with every node's vote flipped."""
    counts = tree.counts
    return tree._replace(counts=np.where(counts[:, :1] == counts[:, 1:], [0, 1], counts[:, ::-1]))


TREE_THRESHOLDS = (-1.0, 0.0, 0.25, 0.5, 1.0)


def random_tree(m, n_features, seed) -> _Tree:
    """A tree of m random splits on few features and thresholds, so that one
    feature recurs with several thresholds; nodes other than the root (0)
    are numbered in shuffled order."""
    rng = np.random.default_rng(seed)
    children = {}
    leaves = [0]
    for _ in range(m):
        parent = leaves.pop(int(rng.integers(len(leaves))))
        children[parent] = (2 * len(children) + 1, 2 * len(children) + 2)
        leaves += children[parent]
    n_nodes = 2 * m + 1
    new_id = np.concatenate([[0], 1 + rng.permutation(n_nodes - 1)])
    feature, threshold = [-1] * n_nodes, [0.0] * n_nodes
    left, right = [-1] * n_nodes, [-1] * n_nodes
    counts = [(0, 0)] * n_nodes
    for old in range(n_nodes):
        node = new_id[old]
        counts[node] = tuple(int(c) for c in rng.integers(0, 4, size=2))
        if old in children:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(TREE_THRESHOLDS))
            left[node], right[node] = (new_id[c] for c in children[old])
    return record(feature, threshold, left, right, counts)


def probe_rows(rng, n=700) -> np.ndarray:
    """(n, 2) rows drawn from the trees' thresholds, NaN, +-inf and values
    in between, in C order."""
    values = np.concatenate(
        [TREE_THRESHOLDS, [np.nan, np.inf, -np.inf], rng.uniform(-1.5, 1.5, 8)])
    return rng.choice(values, size=(n, 2))


def forest_of(trees, n_features=2) -> RFModel:
    spec = band_spec(n_features)
    return RFModel(
        spec=spec,
        hyperparams=RFHyperParams(n_trees=len(trees), mtry=1, seed=0),
        trees=trees,
        n_train=0,
    )


class TestHyperParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_trees=0),
            dict(mtry=0),
            dict(max_depth=0),
            dict(min_samples_split=1),
            dict(min_samples_leaf=0),
            dict(max_leaf_nodes=1),
            dict(mtry=1.5),
            dict(max_depth=True),
            dict(min_samples_leaf=2.5),
            dict(n_trees=np.int64(5)),
            dict(max_leaf_nodes=8.0),
            dict(seed=None),
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            RFHyperParams(**kwargs)

    def test_matrix_profile_unbounded(self):
        hp = RFHyperParams.matrix_profile(mtry=4)
        assert hp.n_trees == 500
        assert hp.mtry == 4
        assert hp.max_depth is None
        assert hp.max_leaf_nodes is None

    def test_final_profile_regularised(self):
        hp = RFHyperParams.final_profile(n_features=4, seed=0)
        assert hp == RFHyperParams(
            n_trees=100, mtry=2, max_depth=6, min_samples_split=2,
            min_samples_leaf=2, max_leaf_nodes=8, seed=0,
        )

    def test_final_profile_mtry_floor(self):
        assert RFHyperParams.final_profile(n_features=1).mtry == 1
        assert RFHyperParams.final_profile(n_features=9).mtry == 3


class TestTraining:
    def test_bootstrap_has_n_draws(self, rf_small, tc1_split):
        n = len(tc1_split.train)
        assert rf_small.n_train == n
        for tree in rf_small.trees:
            assert tree.in_bag.shape == (n,)
            assert tree.in_bag.min() >= 0
            assert tree.in_bag.max() < n

    def test_oob_curve_shape_and_range(self, rf_small):
        curve = rf_small.oob_curve
        assert curve.shape == (rf_small.hyperparams.n_trees,)
        finite = curve[~np.isnan(curve)]
        assert ((finite >= 0.0) & (finite <= 1.0)).all()
        assert rf_small.oob_error == curve[-1]

    def test_oob_error_reconstructs_from_trees(self, rf_small, tc1_split):
        from plastiscan.dataset import feature_matrix

        X, y = feature_matrix(tc1_split.train.canonical(), rf_small.spec)
        n = len(y)
        votes = np.zeros((n, 2), dtype=int)
        for tree in rf_small.trees:
            oob = np.ones(n, dtype=bool)
            oob[tree.in_bag] = False
            rows = np.nonzero(oob)[0]
            preds = scene_oracle.tree_classes(tree, X[rows])
            votes[rows[preds == PLASTIC], 0] += 1
            votes[rows[preds == WATER], 1] += 1
        seen = votes.sum(axis=1) > 0
        agg = np.where(votes[:, 0] >= votes[:, 1], PLASTIC, WATER)
        assert rf_small.oob_error == float(np.mean(agg[seen] != y[seen]))

    def test_split_impurity_decrease_nonnegative(self, rf_small):
        def gini(c):
            total = c.sum()
            p = c[0] / total
            return 2.0 * p * (1.0 - p)

        for tree in rf_small.trees:
            for node in range(len(tree.feature)):
                if tree.feature[node] < 0:
                    continue
                parent = tree.counts[node]
                left = tree.counts[tree.left[node]]
                right = tree.counts[tree.right[node]]
                np.testing.assert_array_equal(left + right, parent)
                weighted = (
                    left.sum() * gini(left) + right.sum() * gini(right)
                ) / parent.sum()
                assert gini(parent) - weighted > 0.0

    def test_separable_feature_gives_low_oob(self):
        table, _, _ = uniform_table(n=40, n_features=3, seed=1, separator=0)
        model = train_rf(table, band_spec(3), RFHyperParams(n_trees=60, mtry=3, seed=0))
        assert model.oob_error <= 0.05

    def test_memorizes_training_data(self):
        # Labels are pure noise, so correctness rests on every tree
        # memorizing its bootstrap; in-bag votes must carry the majority.
        table, X, y = uniform_table(n=50, n_features=4, seed=2)
        model = train_rf(
            table, band_spec(4),
            RFHyperParams(n_trees=150, mtry=4, min_samples_leaf=1, seed=0),
        )
        np.testing.assert_array_equal(predict_rf_batch(model, X), y)

    def test_same_seed_bitwise_identical_files(self, tmp_path):
        table, _, _ = uniform_table(n=30, n_features=3, seed=3, separator=1)
        hp = RFHyperParams(n_trees=20, mtry=2, seed=7)
        for name in ("a.json", "b.json"):
            save_model(train_rf(table, band_spec(3), hp), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_row_order_does_not_matter(self):
        table, X, _ = uniform_table(n=30, n_features=3, seed=4, separator=0)
        reordered = SampleTable(tuple(reversed(table.rows)))
        hp = RFHyperParams(n_trees=20, mtry=2, seed=3)
        a = train_rf(table, band_spec(3), hp)
        b = train_rf(reordered, band_spec(3), hp)
        assert a.oob_error == b.oob_error
        np.testing.assert_array_equal(a.oob_curve, b.oob_curve)
        np.testing.assert_array_equal(predict_rf_batch(a, X), predict_rf_batch(b, X))

    def test_row_order_does_not_matter_with_missing_row_and_col(self):
        # A sample at (row -1, col -1) and a lat/lon-only one at the same site
        # and date must not sort equal, or the canonical order, and with it
        # every seeded draw, would follow the input order.
        rng = np.random.default_rng(0)
        rows = tuple(
            Sample(site=f"s{i}", date="2020-01-01", row=row, col=row,
                   lat=lat, lon=lat,
                   spectrum=PixelSpectrum(dict(zip(("B4", "B6", "B8", "B11"),
                                                   rng.uniform(0.02, 0.4, 4)))),
                   label=label)
            for i in range(6)
            for (row, lat), label in zip(((-1, None), (None, 38.0 + i)),
                                         (PLASTIC, WATER) if i % 2 else (WATER, PLASTIC))
        )
        hp = RFHyperParams(n_trees=20, mtry=2, seed=0)
        a = train_rf(SampleTable(rows), MODEL_SPECS["Model4"], hp)
        b = train_rf(SampleTable(rows[::-1]), MODEL_SPECS["Model4"], hp)
        assert a.oob_error == b.oob_error
        for tree_a, tree_b in zip(a.trees, b.trees, strict=True):
            for name in forest_oracle.FIELDS:
                assert getattr(tree_a, name).tobytes() == getattr(tree_b, name).tobytes(), name

    def test_max_leaf_nodes_bounds_every_tree(self):
        table, _, _ = uniform_table(n=60, n_features=3, seed=5)
        model = train_rf(
            table, band_spec(3),
            RFHyperParams(n_trees=25, mtry=3, max_leaf_nodes=4, seed=0),
        )
        assert all(n_leaves(tree) <= 4 for tree in model.trees)
        # unconstrained growth on the same data produces bigger trees
        free = train_rf(table, band_spec(3), RFHyperParams(n_trees=25, mtry=3, seed=0))
        assert max(n_leaves(t) for t in free.trees) > 4

    def test_max_depth_bounds_every_tree(self):
        table, _, _ = uniform_table(n=60, n_features=3, seed=6)
        model = train_rf(
            table, band_spec(3),
            RFHyperParams(n_trees=25, mtry=3, max_depth=2, seed=0),
        )
        for tree in model.trees:
            depth = {0: 0}
            for node in range(len(tree.feature)):
                if tree.feature[node] >= 0:
                    depth[tree.left[node]] = depth[node] + 1
                    depth[tree.right[node]] = depth[node] + 1
            assert max(depth.values()) <= 2

    def test_single_class_rejected(self):
        rng = np.random.default_rng(0)
        table = table_from_features(rng.uniform(size=(10, 2)), [PLASTIC] * 10)
        with pytest.raises(SingleClassError):
            train_rf(table, band_spec(2), RFHyperParams(n_trees=5, mtry=1, seed=0))

    def test_mtry_exceeding_features_rejected(self):
        table, _, _ = uniform_table(n=10, n_features=2, seed=7)
        with pytest.raises(ValueError, match="mtry"):
            train_rf(table, band_spec(2), RFHyperParams(n_trees=5, mtry=3, seed=0))

    def test_too_few_samples_rejected(self):
        table = table_from_features([[0.1, 0.2]], [PLASTIC])
        with pytest.raises(ClassTooSmallError):
            train_rf(table, band_spec(2), RFHyperParams(n_trees=5, mtry=1, seed=0))


P, W = PLASTIC, WATER


def tied_table(n, n_features, seed, p_plastic=0.4):
    """Features drawn from five values per column, and the first quarter of
    the rows repeated (labels too) further down."""
    rng = np.random.default_rng(seed)
    levels = np.round(rng.uniform(0.0, 1.0, size=(5, n_features)), 2)
    X = np.take_along_axis(levels, rng.integers(0, 5, size=(n, n_features)), axis=0)
    y = rng.choice([PLASTIC, WATER], size=n, p=[p_plastic, 1.0 - p_plastic])
    y[:2] = PLASTIC, WATER
    q = n // 4
    X[n - q:], y[n - q:] = X[:q], y[:q]
    return table_from_features(X, y)


def assert_trees_match_oracle(table, n_features, hp):
    """train_rf grows, bit for bit, the trees of the per-node reference."""
    model = train_rf(table, band_spec(n_features), hp)
    expected = forest_oracle.grow_forest(table, band_spec(n_features), hp)
    assert len(model.trees) == len(expected) == hp.n_trees
    for tree, ref in zip(model.trees, expected):
        for name in forest_oracle.FIELDS:
            got, want = getattr(tree, name), ref[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    return model


class TestLockstepGrowth:
    """Trees grown in lockstep equal those of the one-node-at-a-time grower."""

    @pytest.mark.parametrize("mtry", [1, 2, 3, 4])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    @pytest.mark.parametrize("limits", [
        {}, {"max_depth": 3}, {"max_leaf_nodes": 5},
        {"max_leaf_nodes": 4, "max_depth": 2, "min_samples_split": 6},
    ], ids=["unbounded", "max_depth", "best_first", "best_first_depth"])
    def test_tied_values_and_duplicate_rows(self, mtry, min_samples_leaf, limits):
        hp = RFHyperParams(n_trees=6, mtry=mtry, min_samples_leaf=min_samples_leaf,
                           seed=mtry, **limits)
        assert_trees_match_oracle(tied_table(60, 4, seed=mtry), 4, hp)

    @pytest.mark.parametrize("seed", range(3))
    def test_continuous_values(self, seed):
        table, _, _ = uniform_table(n=80, n_features=3, seed=seed)
        for hp in (RFHyperParams(n_trees=8, mtry=2, seed=seed),
                   RFHyperParams.final_profile(3, seed=seed)):
            assert_trees_match_oracle(table, 3, hp)

    @pytest.mark.parametrize("max_leaf_nodes", [None, 3])
    def test_one_tree_forest(self, max_leaf_nodes):
        hp = RFHyperParams(n_trees=1, mtry=2, max_leaf_nodes=max_leaf_nodes, seed=4)
        assert_trees_match_oracle(tied_table(40, 3, seed=4), 3, hp)

    @pytest.mark.parametrize("x, y", [
        ([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9], [P, W, W, P, P, W, W, P]),
        ([0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4], [P, W, P, W, W, P, W, P]),
    ], ids=["mirrored", "paired"])
    def test_equal_decreases_split_in_the_order_found(self, x, y):
        # Symmetric rows give some trees two leaves of equal best decrease
        # while only one more split is allowed.
        hp = RFHyperParams(n_trees=100, mtry=1, max_leaf_nodes=3, seed=0)
        assert_trees_match_oracle(table_from_features(np.c_[x], y), 1, hp)

    @pytest.mark.parametrize("max_leaf_nodes", [None, 6])
    def test_trees_that_finish_at_very_different_steps(self, max_leaf_nodes):
        # One plastic row in 30: a bootstrap without it is a single leaf,
        # while the others keep splitting off water.
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(30, 3))
        y = np.array([PLASTIC] + [WATER] * 29)
        hp = RFHyperParams(n_trees=20, mtry=1, max_leaf_nodes=max_leaf_nodes, seed=2)
        model = assert_trees_match_oracle(table_from_features(X, y), 3, hp)
        sizes = [len(tree.feature) for tree in model.trees]
        assert min(sizes) == 1 and max(sizes) >= 5

    @pytest.mark.parametrize("mtry", [1, 2])
    def test_trees_that_use_up_their_first_feature_draws(self, mtry):
        # Random labels on 240 rows: unbounded trees split far more often than
        # the nodes covered by the draws made with the bootstrap.
        table, _, _ = uniform_table(n=240, n_features=4, seed=5 + mtry)
        hp = RFHyperParams(n_trees=6, mtry=mtry, seed=mtry)
        model = assert_trees_match_oracle(table, 4, hp)
        splits = [int((tree.feature >= 0).sum()) for tree in model.trees]
        assert min(splits) > forest._DRAW_BATCH, splits


def assert_jobs_match_oracle(X, y, jobs):
    """Forests grown together in one lockstep equal, tree by tree and field
    by field, the per-node reference grown on each job's rows alone."""
    forests = forest._grow_forests(X, y == PLASTIC, jobs)
    assert len(forests) == len(jobs)
    for (rows, hp), trees in zip(jobs, forests):
        expected = forest_oracle.grow_forest(table_from_features(X[rows], y[rows]),
                                             band_spec(X.shape[1]), hp)
        assert len(trees) == len(expected) == hp.n_trees
        for tree, ref in zip(trees, expected):
            for name in forest_oracle.FIELDS:
                got, want = getattr(tree, name), ref[name]
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
    return forests


def tied_matrix(n, n_features, seed):
    table = tied_table(n, n_features, seed)
    return (np.array([[s.spectrum.band(b) for b in band_spec(n_features).members]
                      for s in table.rows]),
            np.array([s.label for s in table.rows]))


class TestBatchedGrowth:
    """Jobs of mixed shapes on subsets of one matrix, grown in one lockstep."""

    def test_mixed_mtry_on_fold_subsets(self):
        X, y = tied_matrix(60, 4, seed=21)
        fold = np.arange(60) % 3
        jobs = [(np.flatnonzero(fold != held),
                 RFHyperParams(n_trees=5, mtry=mtry, seed=10 * mtry + held))
                for mtry in (2, 4, 1) for held in range(3)]  # mtry = k included, out of order
        assert_jobs_match_oracle(X, y, jobs)

    @pytest.mark.parametrize("limits", [
        {"max_depth": 3}, {"min_samples_leaf": 3},
        {"max_leaf_nodes": 5, "max_depth": 3}, {"max_leaf_nodes": 6, "min_samples_leaf": 3},
    ], ids=["depth_first_max_depth", "depth_first_min_leaf", "best_first_max_depth",
            "best_first_min_leaf"])
    def test_growth_orders_and_limits(self, limits):
        X, y = tied_matrix(80, 3, seed=22)
        rows = [np.arange(80), np.arange(0, 80, 2), np.arange(25, 80)]
        jobs = [(r, RFHyperParams(n_trees=6, mtry=1 + k % 3, seed=k, **limits))
                for k, r in enumerate(rows)]
        assert_jobs_match_oracle(X, y, jobs)

    def test_both_orders_in_one_lockstep(self):
        X, y = tied_matrix(70, 3, seed=23)
        jobs = [(np.arange(70), RFHyperParams(n_trees=4, mtry=2, seed=1)),
                (np.arange(10, 70), RFHyperParams(n_trees=4, mtry=2, max_leaf_nodes=4, seed=2)),
                (np.arange(0, 60), RFHyperParams(n_trees=3, mtry=1, max_depth=2, seed=3))]
        assert_jobs_match_oracle(X, y, jobs)

    def test_equal_decreases_split_in_the_order_found(self):
        # symmetric rows: two candidates of equal decrease, one split left
        X = np.c_[[0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9] * 2]
        y = np.array([P, W, W, P, P, W, W, P] * 2)
        jobs = [(np.arange(8), RFHyperParams(n_trees=40, mtry=1, max_leaf_nodes=3, seed=0)),
                (np.arange(16), RFHyperParams(n_trees=40, mtry=1, max_leaf_nodes=3, seed=1))]
        assert_jobs_match_oracle(X, y, jobs)

    def test_trees_that_use_up_their_first_feature_draws(self):
        _, X, y = uniform_table(n=240, n_features=4, seed=24)
        jobs = [(np.arange(240), RFHyperParams(n_trees=3, mtry=1, seed=1)),
                (np.arange(0, 240, 3), RFHyperParams(n_trees=3, mtry=2, seed=2)),
                (np.arange(200), RFHyperParams(n_trees=3, mtry=2, seed=3))]
        forests = assert_jobs_match_oracle(X, y, jobs)
        splits = [int((tree.feature >= 0).sum()) for tree in forests[0] + forests[2]]
        assert min(splits) > forest._DRAW_BATCH, splits

    def test_single_leaf_trees(self):
        rng = np.random.default_rng(25)
        X = rng.uniform(size=(30, 2))
        y = np.array([PLASTIC] + [WATER] * 29)
        jobs = [(np.arange(1, 30), RFHyperParams(n_trees=2, mtry=1, seed=1)),  # water only
                (np.arange(30), RFHyperParams(n_trees=8, mtry=2, seed=2)),
                (np.arange(30), RFHyperParams(n_trees=3, mtry=1, max_leaf_nodes=3, seed=3))]
        forests = assert_jobs_match_oracle(X, y, jobs)
        assert all(len(tree.feature) == 1 for tree in forests[0])
        assert min(len(tree.feature) for tree in forests[1]) == 1

    def test_calls_cut_to_the_value_bound(self, monkeypatch):
        # many calls per step, each of whole nodes, some over the bound alone
        monkeypatch.setattr(forest, "_VALUES_PER_CALL", 50)
        X, y = tied_matrix(60, 3, seed=26)
        jobs = [(np.arange(60), RFHyperParams(n_trees=5, mtry=3, seed=1)),
                (np.arange(0, 60, 2), RFHyperParams(n_trees=5, mtry=1, seed=2))]
        assert_jobs_match_oracle(X, y, jobs)

    @pytest.mark.parametrize("lockstep_trees", [1, 12, 2000])
    def test_rf_search_equals_cv_oracle(self, monkeypatch, lockstep_trees):
        # one forest per lockstep, some forests per lockstep, all of them
        monkeypatch.setattr(tuning, "_LOCKSTEP_TREES", lockstep_trees)
        table = tied_table(60, 3, seed=27)
        kwargs = dict(spec=band_spec(3), algo="rf", grid=GridSpec(cv_folds=3), seed=4,
                      rf_base=RFHyperParams(n_trees=6))
        got = grid_search(table, **kwargs)
        want = cv_oracle.grid_search(table, **kwargs)
        assert got.best == want.best
        assert [(e.params, e.fold_accuracies, e.mean_accuracy) for e in got.cv_table] == [
            (e.params, e.fold_accuracies, e.mean_accuracy) for e in want.cv_table]

    @pytest.mark.parametrize("profile", ["final_profile", "unbounded"])
    def test_programs_equal_per_tree_compiles(self, default_pool, profile):
        spec = MODEL_SPECS["Model2"]
        hp = (RFHyperParams.final_profile(spec.n_features, seed=5) if profile == "final_profile"
              else RFHyperParams.matrix_profile(mtry=1, seed=5, n_trees=60))
        trees = train_rf(default_pool, spec, hp).trees
        trees += [random_tree(m, n_features=2, seed=m) for m in range(14)]
        got, n_buffers = forest_of(trees, n_features=spec.n_features)._programs
        alone = [forest_of([tree], n_features=spec.n_features)._programs for tree in trees]
        assert got == [programs[0] for programs, _ in alone]
        assert n_buffers == max(n for _, n in alone)
        assert any(type(p) is int for p in got) and any(type(p) is list for p in got)


class TestBulkFeatureDraws:
    """One ``integers`` call draws a tree's bootstrap and the features of its
    first nodes exactly as the bootstrap call and successive sorted
    ``Generator.choice`` calls would, and leaves the stream where they do."""

    @pytest.mark.parametrize("n_features", range(1, 13))
    def test_equals_sorted_choice_calls(self, n_features):
        n, k, streams = 25, 5, 20
        for mtry in range(1, n_features + 1):
            bounds = np.concatenate([np.full(n, n), forest._choice_bounds(n_features, mtry, k)])
            bulk_draws, expected = [], []
            for stream in range(streams):
                bulk = seeded_rng(stream, "draws", n_features, mtry)
                ref = seeded_rng(stream, "draws", n_features, mtry)
                draws = bulk.integers(0, bounds)
                np.testing.assert_array_equal(draws[:n], ref.integers(0, n, size=n))
                bulk_draws.append(draws[n:])
                expected.append([np.sort(ref.choice(n_features, size=mtry, replace=False))
                                 for _ in range(k)])
                assert bulk.integers(1 << 62) == ref.integers(1 << 62)
            # all streams' draws at once, as _grow_forest turns them into picks
            picks = forest._sorted_choices(np.stack(bulk_draws), n_features, mtry)
            assert picks.shape == (streams, k, mtry)
            np.testing.assert_array_equal(picks, np.array(expected))


def best_splits(Xt, plastic, nodes, min_leaf):
    """``_best_splits`` of nodes given as (rows, sorted features), each in its
    own range of a fresh buffer; returns the buffer and the splits found."""
    ranks = np.concatenate([np.unique(column, return_inverse=True)[1] for column in Xt])
    buf = np.concatenate([rows for rows, _ in nodes])
    size = np.array([len(rows) for rows, _ in nodes])
    n_plastic = np.array([int(plastic[rows].sum()) for rows, _ in nodes])
    feats = np.concatenate([features for _, features in nodes])
    m = np.array([len(features) for _, features in nodes])
    found = _best_splits(Xt, ranks, plastic.astype(np.float64), buf, np.cumsum(size) - size,
                         size, n_plastic, np.full(len(nodes), min_leaf), feats, m)
    return buf, found


def search(X, y, features, min_leaf=1):
    """The split ``_best_splits`` picks for one node holding every row, as
    ``(decrease, feature, threshold, left, right)`` with each child ``(rows,
    (n_plastic, n_water))``, or None."""
    Xt = np.array(X, dtype=np.float64).T
    plastic = np.asarray(y) == PLASTIC
    buf, (node, decrease, feature, threshold, n_left, p_left) = best_splits(
        Xt, plastic, [(np.arange(Xt.shape[1]), np.array(features))], min_leaf)
    if not node.size:
        return None
    n, p, nl, pl = Xt.shape[1], int(plastic.sum()), int(n_left[0]), int(p_left[0])
    return (float(decrease[0]), int(feature[0]), float(threshold[0]),
            (buf[:nl], (pl, nl - pl)), (buf[nl:], (p - pl, n - nl - p + pl)))


class TestSplitRules:
    """The tie-breaks and limits the module docstring states."""

    def test_equal_decrease_on_two_features_takes_the_lower_index(self):
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        y = [P, P, W, P, W, W]
        for X in (np.c_[x, 3.0 * x + 1.0], np.c_[3.0 * x + 1.0, x]):
            _, feature, threshold, _, _ = search(X, y, [0, 1])
            assert feature == 0
            assert threshold == (X[1, 0] + X[2, 0]) / 2.0

    def test_forest_never_prefers_a_copy_with_a_higher_index(self):
        table, X, _ = uniform_table(n=40, n_features=1, seed=12)
        twin = table_from_features(np.c_[X, 0.5 * X + 0.1], [s.label for s in table.rows])
        model = train_rf(twin, band_spec(2), RFHyperParams(n_trees=20, mtry=2, seed=0))
        split = np.concatenate([tree.feature[tree.feature >= 0] for tree in model.trees])
        assert split.size > 0 and (split == 0).all()

    def test_equal_decrease_at_two_thresholds_takes_the_lower(self):
        # cutting off either plastic end row gains the same
        split = search([[0.0], [1.0], [2.0], [3.0]], [P, W, W, P], [0])
        decrease, feature, threshold, left, right = split
        assert (feature, threshold) == (0, 0.5)
        assert sorted(left[0].tolist()) == [0] and left[1] == (1, 0)
        assert sorted(right[0].tolist()) == [1, 2, 3] and right[1] == (1, 2)
        assert decrease == pytest.approx(1.0 / 6.0)

    def test_zero_best_decrease_stays_a_leaf(self):
        # the one cut leaves both sides as mixed as the parent
        assert search([[0.0], [0.0], [1.0], [1.0]], [P, W, P, W], [0]) is None

    def test_no_cut_between_tied_values(self):
        assert search([[0.5], [0.5], [0.5]], [P, W, W], [0]) is None

    def test_min_samples_leaf_removes_the_winning_cut(self):
        X = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]
        y = [P, W, W, W, W, W]
        assert search(X, y, [0], min_leaf=1)[2] == 0.5
        assert search(X, y, [0], min_leaf=2)[2] == 1.5
        assert search(X, y, [0], min_leaf=3) is not None
        assert search(X, y, [0], min_leaf=4) is None

    def test_batched_nodes_split_as_they_would_alone(self):
        rng = np.random.default_rng(13)
        X = rng.choice([0.1, 0.4, 0.7], size=(30, 3))
        plastic = rng.choice([P, W], size=30) == P
        Xt = X.T.copy()
        nodes = [(rng.integers(0, 30, size=int(rng.integers(2, 30))),
                  np.sort(rng.choice(3, size=int(rng.integers(1, 4)), replace=False)))
                 for _ in range(12)]  # multisets of rows, and one to three features each
        buf, together = best_splits(Xt, plastic, nodes, 2)
        lo = np.cumsum([len(rows) for rows, _ in nodes]) - [len(rows) for rows, _ in nodes]
        got = {int(b): values for b, *values in zip(*together)}
        for b, node in enumerate(nodes):
            alone_buf, (found, *alone) = best_splits(Xt, plastic, [node], 2)
            if not found.size:
                assert b not in got
                continue
            assert got[b] == [value[0] for value in alone]
            n_left, size = int(alone[3][0]), len(node[0])
            for side in (slice(0, n_left), slice(n_left, size)):
                assert (sorted(buf[lo[b]:lo[b] + size][side].tolist())
                        == sorted(alone_buf[side].tolist()))

    def test_min_samples_leaf_holds_in_every_node(self):
        table, _, _ = uniform_table(n=50, n_features=3, seed=14)
        model = train_rf(table, band_spec(3),
                         RFHyperParams(n_trees=20, mtry=2, min_samples_leaf=3, seed=0))
        for tree in model.trees:
            assert tree.counts.sum(axis=1).min() >= 3


class TestPrediction:
    def test_unanimous_water_vote(self):
        model = forest_of([leaf_tree((0, 5)), leaf_tree((1, 9)), leaf_tree((2, 3))])
        out = predict_rf_batch(model, np.array([[0.1, 0.2], [0.9, 0.8]]))
        assert out.tolist() == [WATER, WATER]

    def test_split_vote_goes_to_plastic(self):
        model = forest_of([leaf_tree((5, 0)), leaf_tree((0, 5))])
        out = predict_rf_batch(model, np.array([[0.5, 0.5]]))
        assert out.tolist() == [PLASTIC]

    @pytest.mark.parametrize("n_plastic, n_water, expected", [
        (128, 128, PLASTIC), (127, 128, WATER), (128, 127, PLASTIC), (127, 127, PLASTIC),
        (0, 256, WATER), (256, 0, PLASTIC), (1, 0, PLASTIC), (0, 1, WATER),
    ])
    def test_majority_on_both_sides_of_8_bit_vote_counts(self, n_plastic, n_water, expected):
        model = forest_of([leaf_tree((1, 0))] * n_plastic + [leaf_tree((0, 1))] * n_water)
        assert predict_rf_batch(model, np.zeros((3, 2))).tolist() == [expected] * 3

    def test_leaf_count_tie_votes_plastic(self):
        model = forest_of([leaf_tree((3, 3))])
        for rows in (1, 512):  # the walk, then the program
            assert predict_rf_batch(model, np.zeros((rows, 2))).tolist() == [PLASTIC] * rows

    def test_single_vector_wrapper(self):
        model = forest_of([leaf_tree((5, 0))])
        fv = FeatureVector(spec_id=model.spec.spec_id, values=(0.1, 0.2))
        assert predict_rf(model, fv) == PLASTIC

    def test_spec_mismatch(self):
        model = forest_of([leaf_tree((5, 0))])
        with pytest.raises(SpecMismatchError):
            predict_rf_batch(model, np.zeros((2, 5)))
        with pytest.raises(SpecMismatchError):
            predict_rf(model, FeatureVector(spec_id="Model1", values=(0.1,)))

    def test_empty_input(self):
        model = forest_of([leaf_tree((5, 0))])
        with pytest.raises(EmptyInputError):
            predict_rf_batch(model, np.zeros((0, 2)))


class TestCompiledTree:
    """Predictions through the vote programs (batches of at least
    _PROGRAM_MIN_ROWS rows) and through the forest-wide walk (smaller
    batches) must both label every row as each tree's own level walk does."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [0, 1, 5, 7, 8, 9, 12, 13])
    def test_table_matches_walk(self, m, seed):
        tree = random_tree(m, n_features=2, seed=seed)
        X = probe_rows(np.random.default_rng(100 + seed))
        expected = scene_oracle.tree_classes(tree, X)
        for layout in (X, np.asfortranarray(X)):
            for rows in (len(X), forest._PROGRAM_MIN_ROWS - 1):  # the program, then the walk
                got = predict_rf_batch(forest_of([tree]), layout[:rows])
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected[:rows])

    @pytest.mark.parametrize("n_trees", [1, 2, 10, 255, 256])  # 256 votes need 16 bits
    def test_forest_vote_matches_walk_majority(self, n_trees):
        assert forest._PROGRAM_MIN_ROWS == 512
        rng = np.random.default_rng(n_trees)
        sizes = rng.integers(0, 14, size=n_trees)
        trees = [random_tree(int(m), n_features=2, seed=s) for s, m in enumerate(sizes)]
        if n_trees == 256:  # 127 trees and their mirrors: a row ties unless trees 0 and 1 agree
            trees[129:] = [mirrored(tree) for tree in trees[2:129]]
        model = forest_of(trees)
        X = probe_rows(rng, n=4096)
        expected = scene_oracle.rf_labels(model, X)
        if n_trees in (2, 10, 256):
            votes = sum(scene_oracle.tree_classes(tree, X) == PLASTIC for tree in model.trees)
            assert (2 * votes[:511] == n_trees).any()  # some rows tie, and must go to plastic
        for n_rows in (1, 511, 512, 4096):  # the walk below 512 rows, programs from 512
            for layout in (X[:n_rows], np.asfortranarray(X[:n_rows])):
                np.testing.assert_array_equal(predict_rf_batch(model, layout), expected[:n_rows])

    def test_nan_goes_right_and_ties_go_left(self):
        tree = record(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                      right=[2, -1, -1], counts=[(2, 2), (2, 0), (0, 2)])
        X = np.array([[np.nan], [0.5], [np.inf], [-np.inf]])
        model = forest_of([tree], n_features=1)
        for rows in (1, forest._PROGRAM_MIN_ROWS // 4):  # the walk, then the program
            assert predict_rf_batch(model, np.tile(X, (rows, 1))).tolist() == (
                [WATER, PLASTIC, WATER, PLASTIC] * rows)


def run_program(program, X) -> np.ndarray:
    """One tree's vote program run as ``forest._vote_programs`` documents it,
    on buffers of its own: whether each row of ``X`` gets a plastic vote."""
    if type(program) is int:
        return np.full(len(X), program == 1)
    buf = [np.empty(len(X), dtype=bool) for _ in range(1 + max(s[2] for s in program))]
    buf.append(True)
    for f, t, c, combine in program:
        np.less_equal(X[:, f], t, out=buf[c])
        for op, a, b, o in combine:
            op(buf[a], buf[b], out=buf[o])
    return buf[0]


def tree_of(nodes) -> _Tree:
    """A tree from its nodes in preorder: a split ``(feature, threshold, left,
    right)`` or a leaf's vote, 1 for plastic and 0 for water."""
    splits = [node if type(node) is tuple else (-1, 0.0, -1, -1) for node in nodes]
    counts = [(node, 1 - node) if type(node) is int else (0, 0) for node in nodes]
    return record(*zip(*splits), counts)


# both features at, between and past the thresholds 0.25 and 0.5, NaN and +-inf
GRID_VALUES = (np.nan, -np.inf, 0.0, 0.25, 0.4, 0.5, 0.75, np.inf)
GRID_ROWS = np.array([(a, b) for a in GRID_VALUES for b in GRID_VALUES])


class TestVotePrograms:
    """Each tree's vote program votes on every row as the tree's own walk
    (``scene_oracle.tree_classes``), NaN, +-inf and exact thresholds
    included, and keeps exactly the splits whose subtrees hold leaves of both
    votes."""

    @staticmethod
    def assert_votes_as_walk(tree, X):
        """Run the tree's program on X on its own and through
        predict_rf_batch; returns the program."""
        model = forest_of([tree], n_features=X.shape[1])
        (program,), _ = model._programs
        walked = scene_oracle.tree_classes(tree, X) == PLASTIC
        np.testing.assert_array_equal(run_program(program, X), walked)
        rows = max(len(X), forest._PROGRAM_MIN_ROWS)
        np.testing.assert_array_equal(predict_rf_batch(model, np.resize(X, (rows, X.shape[1]))),
                                      np.resize(np.where(walked, PLASTIC, WATER), rows))
        return program

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [0, 1, 5, 12, 13, 40])
    def test_random_tree(self, m, seed):
        X = probe_rows(np.random.default_rng(200 + seed), n=2000)
        assert {0.25, 0.5} <= set(X[:, 0]) and np.isnan(X).any() and np.isinf(X).any()
        program = self.assert_votes_as_walk(random_tree(m, n_features=2, seed=seed), X)
        assert type(program) is int or 0 < len(program) <= m

    @pytest.mark.parametrize("vote", [1, 0], ids=["plastic", "water"])
    @pytest.mark.parametrize("m", [1, 12, 40])
    def test_tree_of_one_vote_folds_whole(self, m, vote):
        tree = random_tree(m, n_features=2, seed=m)
        tree = tree._replace(counts=np.tile([vote, 1 - vote], (len(tree.feature), 1)))
        assert self.assert_votes_as_walk(tree, GRID_ROWS) == vote

    @pytest.mark.parametrize("m", [5, 12, 40])
    def test_one_deep_differing_leaf_keeps_its_path(self, m):
        tree = random_tree(m, n_features=2, seed=m)
        parent = {int(child): int(node) for node in np.flatnonzero(tree.feature >= 0)
                  for child in (tree.left[node], tree.right[node])}
        paths = {}  # per leaf, the splits above it, bottom up
        for leaf in np.flatnonzero(tree.feature < 0).tolist():
            path = [leaf]
            while path[-1] in parent:
                path.append(parent[path[-1]])
            paths[leaf] = path[1:]
        deep = max(paths, key=lambda leaf: len(paths[leaf]))
        counts = np.tile([1, 0], (len(tree.feature), 1))
        counts[deep] = (0, 1)
        program = self.assert_votes_as_walk(tree._replace(counts=counts), GRID_ROWS)
        assert len(paths[deep]) > 2
        assert [(f, t) for f, t, _, _ in program] == [
            (tree.feature[node], tree.threshold[node]) for node in paths[deep]]
        # the splits above the leaf's parent each have one child folded
        assert [len(combine) for *_, combine in program[1:]] == [1] * (len(program) - 1)
        assert max(c for _, _, c, _ in program) == 1  # two buffers

    @pytest.mark.parametrize("nodes, n_steps", [
        ([(0, 0.5, 1, 2), 1, 0], 1),
        ([(0, 0.5, 1, 2), 0, 1], 1),
        ([(0, 0.5, 1, 2), 1, (1, 0.25, 3, 4), 1, 0], 2),
        ([(0, 0.5, 1, 2), 0, (1, 0.25, 3, 4), 1, 0], 2),
        ([(0, 0.5, 1, 4), (1, 0.25, 2, 3), 1, 0, 1], 2),
        ([(0, 0.5, 1, 4), (1, 0.25, 2, 3), 1, 0, 0], 2),
        ([(0, 0.5, 1, 4), (1, 0.25, 2, 3), 1, 0, (1, 0.25, 5, 6), 0, 1], 3),
        ([(0, 0.5, 1, 4), (1, 0.25, 2, 3), 1, 1, (1, 0.25, 5, 6), 0, 1], 2),
    ], ids=["leaves-c", "leaves-not-c", "left-plastic-or", "left-water-and-not",
            "right-plastic-or-not", "right-water-and", "neither-folded", "left-subtree-folded"])
    def test_each_combine(self, nodes, n_steps):
        assert len(self.assert_votes_as_walk(tree_of(nodes), GRID_ROWS)) == n_steps

    def test_3000_split_chain(self):
        # split k sends its rows at most t_k left, to a leaf voting k % 2, and
        # the rest right, to split k + 1; the thresholds rise along the chain
        m = 3000
        thresholds = np.linspace(-1.5, 1.5, m)
        nodes = []
        for k, t in enumerate(thresholds.tolist()):
            nodes += [(k % 2, t, 2 * k + 1, 2 * k + 2), k % 2]
        tree = tree_of(nodes + [m % 2])
        rng = np.random.default_rng(9)
        values = np.concatenate([thresholds[::97], [np.nan, np.inf, -np.inf],
                                 rng.uniform(-2.0, 2.0, 50)])
        program = self.assert_votes_as_walk(tree, rng.choice(values, size=(1024, 2)))
        assert len(program) == m
        assert max(c for _, _, c, _ in program) == 1  # two buffers


def mixed_forest(n_trees, seed, cycled):
    """A forest of random trees of 0 to 15 splits, so that trees folded whole
    and programs of up to 14 steps mix.  ``cycled`` trees repeat four trees
    of 2, 7, 10 and 14 splits, so that many rows' majorities settle early.
    In an even forest the trees after the middle mirror trees 2 .. n/2, so
    that a row ties unless trees 0 and 1 agree."""
    sizes = [2, 7, 10, 14] if cycled else np.random.default_rng(seed).integers(0, 16, n_trees)
    base = [random_tree(int(m), n_features=2, seed=100 * seed + s) for s, m in enumerate(sizes)]
    trees = [base[t % len(base)] for t in range(n_trees)]
    if n_trees % 2 == 0:
        trees[n_trees // 2 + 1:] = [mirrored(tree) for tree in trees[2:n_trees // 2 + 1]]
    return forest_of(trees)


class TestSettledVotes:
    """A row stops voting once its majority is settled; its label must still
    be the full vote's, and the trees after that must never read it."""

    @pytest.mark.parametrize("cycled", [False, True], ids=["random", "cycled"])
    @pytest.mark.parametrize("n_trees", [1, 2, 3, 10, 100, 101, 255, 256])
    def test_labels_equal_the_full_vote(self, n_trees, cycled):
        model = mixed_forest(n_trees, seed=n_trees, cycled=cycled)
        if n_trees >= 100 and not cycled:  # trees folded whole among the programs
            assert {type(program) for program in model._programs[0]} == {int, list}
        X = probe_rows(np.random.default_rng(n_trees), n=40_000)
        expected = scene_oracle.rf_labels(model, X)
        if n_trees % 2 == 0:
            votes = sum(scene_oracle.tree_classes(tree, X[:511]) == PLASTIC
                        for tree in model.trees)
            assert (2 * votes == n_trees).any()  # ties, which must go to plastic
        for n_rows in (511, 512, 4096, 40_000):  # the walk below 512 rows, programs from 512
            for layout in (X[:n_rows], np.asfortranarray(X[:n_rows])):
                got = predict_rf_batch(model, layout)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected[:n_rows])

    def test_later_walk_blocks_see_only_undecided_rows(self, monkeypatch):
        trees = [random_tree(13 + t % 3, n_features=2, seed=t % 3) for t in range(101)]
        model = forest_of(trees)
        X = probe_rows(np.random.default_rng(7), n=forest._PROGRAM_MIN_ROWS - 1)  # walked
        monkeypatch.setattr(forest, "_WALK_PAIRS", len(X))  # blocks of one tree while all vote
        walked, walk = [], forest._walk
        monkeypatch.setattr(forest, "_walk", lambda model, X, tree, row: (
            walked.append(len(row)) or walk(model, X, tree, row)))
        np.testing.assert_array_equal(predict_rf_batch(model, X), scene_oracle.rf_labels(model, X))
        assert walked[0] == len(X)  # blocks of one tree each, all rows voting
        assert sum(walked) < 0.7 * 101 * len(X)

    @pytest.mark.parametrize("poison_splits", [3, 13], ids=["tabled", "walked"])
    @pytest.mark.parametrize("vote", [(1, 0), (0, 1)], ids=["plastic", "water"])
    def test_settled_rows_never_reach_later_trees(self, poison_splits, vote):
        # 5 unanimous trees settle every row of a 9-tree forest; the next 4
        # split on feature 7, which X lacks, and raise if they read a row
        poison = random_tree(poison_splits, n_features=2, seed=5)
        poison = poison._replace(feature=np.where(poison.feature >= 0, 7, -1))
        model = forest_of([leaf_tree(vote)] * 5 + [poison] * 4)
        assert {f for f, *_ in model._programs[0][-1]} == {7}  # its program reads feature 7
        X = probe_rows(np.random.default_rng(3), n=4096)
        label = PLASTIC if vote == (1, 0) else WATER
        assert predict_rf_batch(model, X).tolist() == [label] * len(X)
        with pytest.raises(IndexError):  # below 512 rows, one walk block holds every tree
            predict_rf_batch(model, X[:forest._PROGRAM_MIN_ROWS - 1])

    def test_unbounded_500_tree_scene_equals_oracle(self):
        # on the paper-sized pool, over 200 trees keep more than 12 splits
        pool = gen_dataset(SynthConfig(n_plastic=54, n_water=270, seed=0))
        model = train_rf(pool, MODEL_SPECS["Model2"], RFHyperParams.matrix_profile(mtry=2, seed=1))
        assert sum(type(p) is list and len(p) > 12 for p in model._programs[0]) > 200
        stack, _ = gen_scene(
            SynthConfig(n_plastic=0, n_water=0, seed=24), width=128, height=128,
            patches=(PatchSpec(row=10, col=20, height=30, width=40, fraction=0.9),
                     PatchSpec(row=70, col=60, height=20, width=50, fraction=0.5)))
        labels = classify_scene(stack, model).labels
        assert labels.tobytes() == scene_oracle.classify_scene(stack, model).tobytes()
        assert set(np.unique(labels).tolist()) == {PLASTIC, WATER}


class TestImportances:
    def test_constant_feature_scores_near_zero(self):
        rng = np.random.default_rng(8)
        n = 40
        y = np.array([PLASTIC] * 20 + [WATER] * 20)
        X = rng.uniform(size=(n, 3))
        X[:, 1] = 0.5  # constant column
        X[:, 0] = np.where(y == PLASTIC, 0.9, 0.1)
        table = table_from_features(X, y)
        model = train_rf(table, band_spec(3), RFHyperParams(n_trees=40, mtry=3, seed=0))
        assert abs(model.importances[1]) <= 0.01

    def test_label_indicator_ranks_first(self):
        rng = np.random.default_rng(9)
        n = 40
        y = np.array([PLASTIC] * 20 + [WATER] * 20)
        X = rng.uniform(size=(n, 4))
        X[:, 2] = np.where(y == PLASTIC, 1.0, 0.0)
        table = table_from_features(X, y)
        model = train_rf(table, band_spec(4), RFHyperParams(n_trees=40, mtry=2, seed=0))
        assert int(np.argmax(model.importances)) == 2

    def test_recompute_matches_training(self, rf_small, tc1_split):
        again = rf_permutation_importance(rf_small, tc1_split.train)
        np.testing.assert_array_equal(again, rf_small.importances)

    def test_deterministic_under_seed(self):
        table, _, _ = uniform_table(n=30, n_features=3, seed=10, separator=0)
        hp = RFHyperParams(n_trees=20, mtry=2, seed=5)
        a = train_rf(table, band_spec(3), hp)
        b = train_rf(table, band_spec(3), hp)
        np.testing.assert_array_equal(a.importances, b.importances)

    def test_requires_bootstrap_records(self, rf_small, tc1_split, tmp_path):
        save_model(rf_small, tmp_path / "rf.json")
        loaded = load_model(tmp_path / "rf.json")
        with pytest.raises(MissingOobRecordsError):
            rf_permutation_importance(loaded, tc1_split.train)

    def test_table_length_must_match(self, rf_small, tc1_split):
        shorter = SampleTable(tc1_split.train.rows[:-1])
        with pytest.raises(LengthMismatchError):
            rf_permutation_importance(rf_small, shorter)


class TestProgramsOnLargeBatchesOnly:
    def test_no_program_until_a_batch_of_program_min_rows(
        self, monkeypatch, default_pool, tc1_split, plastic_pool, water_pool, tmp_path
    ):
        compiled = []
        vote_programs = forest._vote_programs
        monkeypatch.setattr(forest, "_vote_programs",
                            lambda model: compiled.append(model) or vote_programs(model))
        spec = MODEL_SPECS["Model5"]
        model = train_rf(default_pool, spec, RFHyperParams.final_profile(3, seed=0))
        save_model(model, tmp_path / "rf.json")
        loaded = load_model(tmp_path / "rf.json")
        small = np.zeros((forest._PROGRAM_MIN_ROWS - 1, 3))
        for m in (model, loaded):
            predict_rf_batch(m, small)
        # matrix fits predict test sets of fewer rows, and never compile
        grid = GridSpec(mtry_grid=(1, 2), cv_folds=2)
        base = RFHyperParams(n_trees=10, seed=0)
        grid_search(tc1_split.train, band_spec(2), "rf", grid, seed=1, rf_base=base)
        run_cell(plastic_pool, water_pool, "Model2", "TC1", "rf", grid, master_seed=1,
                 rf_base=base)
        assert compiled == []
        large = np.zeros((forest._PROGRAM_MIN_ROWS, 3))
        np.testing.assert_array_equal(predict_rf_batch(loaded, large)[:len(small)],
                                      predict_rf_batch(model, small))
        assert compiled == [loaded]
        predict_rf_batch(loaded, np.zeros((4096, 3)))
        assert compiled == [loaded]  # compiled once, then kept


@pytest.fixture(scope="module")
def oracle_forests(default_pool):
    """Per feature set: final_profile, 40-tree and 500-tree unbounded forests."""
    return {
        (spec_id, profile): train_rf(default_pool, spec, hp)
        for spec_id, spec in sorted(MODEL_SPECS.items())
        for profile, hp in (
            ("final_profile", RFHyperParams.final_profile(spec.n_features, seed=1)),
            ("unbounded40", RFHyperParams.matrix_profile(mtry=1, seed=1, n_trees=40)),
            ("unbounded500", RFHyperParams.matrix_profile(
                mtry=min(2, spec.n_features), seed=1)),
        )
    }


class TestOobOracle:
    """The OOB curve and importances of the forest-wide walks equal the
    per-tree loops of ``forest_oracle``, bit for bit."""

    @pytest.mark.parametrize("profile", ["final_profile", "unbounded40", "unbounded500"])
    @pytest.mark.parametrize("spec_id", sorted(MODEL_SPECS))
    def test_curve_and_importances_equal_per_tree_loops(
        self, oracle_forests, default_pool, spec_id, profile
    ):
        model = oracle_forests[spec_id, profile]
        X, y = model._training
        curve = forest_oracle.oob_curve(model.trees, X, y)
        importances = forest_oracle.permutation_importance(model.trees, X, y, seed=1)
        assert np.array_equal(model.oob_curve, curve, equal_nan=True)
        assert model.oob_error == curve[-1]
        assert np.array_equal(model.importances, importances)
        assert np.array_equal(rf_permutation_importance(model, default_pool), importances)

    def test_blocks_of_whole_trees_change_nothing(self, oracle_forests, monkeypatch):
        model = oracle_forests["Model1", "unbounded40"]
        X, y = model._training
        monkeypatch.setattr(forest, "_WALK_PAIRS", 3 * len(y))  # blocks of 3 trees
        again = RFModel(model.spec, model.hyperparams, model.trees, model.n_train)
        again._training = model._training
        assert np.array_equal(again.oob_curve, model.oob_curve, equal_nan=True)
        assert np.array_equal(again.importances, model.importances)
        assert np.array_equal(again.oob_curve, forest_oracle.oob_curve(model.trees, X, y),
                              equal_nan=True)


class TestDiagnosticsOnFirstRead:
    def test_fits_that_only_predict_never_compute_them(
        self, monkeypatch, tc1_split, plastic_pool, water_pool
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("diagnostics computed for a fit nobody reads")

        monkeypatch.setattr(forest, "_oob_scores", refuse)
        grid = GridSpec(mtry_grid=(1, 2), cv_folds=2)
        base = RFHyperParams(n_trees=10, seed=0)
        found = grid_search(tc1_split.train, band_spec(2), "rf", grid, seed=1, rf_base=base)
        assert found.best.mtry in (1, 2)
        cell = run_cell(plastic_pool, water_pool, "Model2", "TC1", "rf", grid,
                        master_seed=1, rf_base=base)
        assert cell.error is None

    def test_never_out_of_bag_warns_on_first_read(self):
        table, _, _ = uniform_table(n=2, n_features=1, seed=0)
        hp = next(
            h for h in (RFHyperParams(n_trees=1, seed=s) for s in range(64))
            if len(set(train_rf(table, band_spec(1), h).trees[0].in_bag.tolist())) == 2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_rf(table, band_spec(1), hp)  # fitting alone does not warn
        with pytest.warns(UserWarning, match="ever out of bag") as record:
            assert np.isnan(model.oob_error)
        assert record[0].filename == __file__
        assert np.isnan(model.oob_curve).all()
        np.testing.assert_array_equal(model.importances, [0.0])

    def test_no_stored_values_and_no_records_raises(self, tmp_path):
        model = forest_of([leaf_tree((5, 0))])
        for name in ("oob_error", "oob_curve", "importances"):
            with pytest.raises(MissingOobRecordsError):
                getattr(model, name)
        with pytest.raises(MissingOobRecordsError):
            save_model(model, tmp_path / "rf.json")
        assert not (tmp_path / "rf.json").exists()
