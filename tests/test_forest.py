"""Random forest: growth rules, OOB bookkeeping, importances, determinism."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from plastiscan import (
    GridSpec,
    PLASTIC,
    RFHyperParams,
    WATER,
    grid_search,
    load_model,
    predict_rf,
    predict_rf_batch,
    rf_permutation_importance,
    run_cell,
    save_model,
    train_rf,
)
from plastiscan.classifiers import forest
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


def probe_rows(rng, n=500) -> np.ndarray:
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


def search(X, y, features, min_leaf=1):
    """The split ``_best_splits`` picks for one node holding every row."""
    Xt = np.array(X, dtype=np.float64).T
    ranks = np.array([np.unique(column, return_inverse=True)[1] for column in Xt])
    plastic = (np.asarray(y) == PLASTIC).astype(np.int64)
    rows = np.arange(Xt.shape[1])
    request = (rows, int(plastic.sum()), np.array(features))
    (split,) = _best_splits(Xt, ranks, plastic, [request], min_leaf)
    return split


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
        y = rng.choice([P, W], size=30)
        Xt = X.T.copy()
        ranks = np.array([np.unique(column, return_inverse=True)[1] for column in Xt])
        plastic = (y == P).astype(np.int64)
        requests = []
        for _ in range(12):
            rows = rng.integers(0, 30, size=int(rng.integers(2, 30)))
            feats = np.sort(rng.choice(3, size=2, replace=False))
            requests.append((rows, int(plastic[rows].sum()), feats))
        together = _best_splits(Xt, ranks, plastic, requests, 2)
        for request, split in zip(requests, together):
            (alone,) = _best_splits(Xt, ranks, plastic, [request], 2)
            if alone is None:
                assert split is None
                continue
            assert split[:3] == alone[:3]
            for a, b in zip(split[3:], alone[3:]):
                assert sorted(a[0].tolist()) == sorted(b[0].tolist()) and a[1] == b[1]

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
    @pytest.mark.parametrize("m", [0, 1, 5, 7, 8, 9, 12, 13])  # codes of 8 bits, then 16
    def test_table_matches_walk(self, m, seed):
        tree = random_tree(m, n_features=2, seed=seed)
        assert (tree._table is None) == (m > 12)  # 13 splits fall back to the walk
        X = probe_rows(np.random.default_rng(100 + seed))
        expected = tree._walk(X)
        for layout in (X, np.asfortranarray(X)):
            got = tree.predict(layout)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n_trees", [1, 2, 10, 255, 256])  # 256 votes need 16 bits
    def test_forest_vote_matches_walk_majority(self, n_trees):
        rng = np.random.default_rng(n_trees)
        sizes = rng.integers(0, 14, size=n_trees)  # tables of every code width, and walks
        model = forest_of([random_tree(int(m), n_features=2, seed=s)
                           for s, m in enumerate(sizes)])
        X = probe_rows(rng)
        expected = scene_oracle.rf_labels(model, X)
        if n_trees in (2, 10):
            votes = sum(tree._walk(X) == PLASTIC for tree in model.trees)
            assert (2 * votes == n_trees).any()  # some rows tie, and must go to plastic
        for layout in (X, np.asfortranarray(X)):
            np.testing.assert_array_equal(predict_rf_batch(model, layout), expected)

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


class TestDiagnosticsOnFirstRead:
    def test_fits_that_only_predict_never_compute_them(
        self, monkeypatch, tc1_split, plastic_pool, water_pool
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("diagnostics computed for a fit nobody reads")

        monkeypatch.setattr(forest, "_permutation_importance", refuse)
        monkeypatch.setattr(forest, "_oob_curve", refuse)
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
