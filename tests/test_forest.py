"""Random forest: growth rules, OOB bookkeeping, importances, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from plastiscan import (
    PLASTIC,
    RFHyperParams,
    WATER,
    load_model,
    predict_rf,
    predict_rf_batch,
    rf_permutation_importance,
    save_model,
    train_rf,
)
from plastiscan.classifiers.forest import RFModel, _Tree
from plastiscan.dataset import SampleTable
from plastiscan.errors import (
    ClassTooSmallError,
    EmptyInputError,
    LengthMismatchError,
    MissingOobRecordsError,
    SingleClassError,
    SpecMismatchError,
)
from plastiscan.spectra import FeatureVector

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


def leaf_tree(counts) -> _Tree:
    return _Tree(
        feature=[-1], threshold=[0.0], left=[-1], right=[-1],
        counts=[counts], in_bag=None,
    )


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
    return _Tree(feature, threshold, left, right, counts, in_bag=None)


def forest_of(trees, n_features=2) -> RFModel:
    spec = band_spec(n_features)
    return RFModel(
        spec=spec,
        hyperparams=RFHyperParams(n_trees=len(trees), mtry=1, seed=0),
        trees=trees,
        oob_error=float("nan"),
        oob_curve=np.full(len(trees), np.nan),
        importances=np.zeros(n_features),
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
            preds = tree.predict(X[rows])
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

    def test_max_leaf_nodes_bounds_every_tree(self):
        table, _, _ = uniform_table(n=60, n_features=3, seed=5)
        model = train_rf(
            table, band_spec(3),
            RFHyperParams(n_trees=25, mtry=3, max_leaf_nodes=4, seed=0),
        )
        assert all(tree.n_leaves <= 4 for tree in model.trees)
        # unconstrained growth on the same data produces bigger trees
        free = train_rf(table, band_spec(3), RFHyperParams(n_trees=25, mtry=3, seed=0))
        assert max(t.n_leaves for t in free.trees) > 4

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


class TestPrediction:
    def test_unanimous_water_vote(self):
        model = forest_of([leaf_tree((0, 5)), leaf_tree((1, 9)), leaf_tree((2, 3))])
        out = predict_rf_batch(model, np.array([[0.1, 0.2], [0.9, 0.8]]))
        assert out.tolist() == [WATER, WATER]

    def test_split_vote_goes_to_plastic(self):
        model = forest_of([leaf_tree((5, 0)), leaf_tree((0, 5))])
        out = predict_rf_batch(model, np.array([[0.5, 0.5]]))
        assert out.tolist() == [PLASTIC]

    def test_leaf_count_tie_votes_plastic(self):
        assert leaf_tree((3, 3)).leaf_class.tolist() == [PLASTIC]

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
    """A tree's lookup table must label every row as the level walk does."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [0, 1, 5, 12, 13])
    def test_table_matches_walk(self, m, seed):
        tree = random_tree(m, n_features=2, seed=seed)
        assert (tree._table is None) == (m > 12)  # 13 splits fall back to the walk
        rng = np.random.default_rng(100 + seed)
        values = np.concatenate(
            [TREE_THRESHOLDS, [np.nan, np.inf, -np.inf], rng.uniform(-1.5, 1.5, 8)])
        X = rng.choice(values, size=(500, 2))
        expected = tree._walk(X)
        for layout in (X, np.asfortranarray(X)):
            got = tree.predict(layout)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_nan_goes_right_and_ties_go_left(self):
        tree = _Tree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                     right=[2, -1, -1], counts=[(2, 2), (2, 0), (0, 2)], in_bag=None)
        X = np.array([[np.nan], [0.5], [np.inf], [-np.inf]])
        assert tree.predict(X).tolist() == [WATER, PLASTIC, WATER, PLASTIC]


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
