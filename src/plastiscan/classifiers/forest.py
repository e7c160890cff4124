"""Random forest of Gini-impurity decision trees, built from scratch.

Each tree trains on a size-n bootstrap of the data and considers ``mtry``
features (sampled without replacement) at every split; candidate thresholds
are the midpoints between adjacent distinct sorted values.  Ties in impurity
decrease resolve toward the lower feature index, then the lower threshold,
so training is fully deterministic given the seed.  Out-of-bag votes give the
error curve and fuel permutation importances (mean decrease in OOB accuracy).
Trees of up to 12 splits predict through a lookup table of leaf classes
built once per tree (see ``_Tree``); deeper trees walk level by level.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..dataset import SampleTable, feature_matrix
from ..errors import (
    ClassTooSmallError,
    EmptyInputError,
    LengthMismatchError,
    MissingOobRecordsError,
    SingleClassError,
    SpecMismatchError,
)
from ..rng import seeded_rng
from ..spectra import FeatureSetSpec, FeatureVector, PLASTIC, WATER

__all__ = [
    "RFHyperParams",
    "RFModel",
    "train_rf",
    "predict_rf",
    "predict_rf_batch",
    "rf_permutation_importance",
]


@dataclass(frozen=True)
class RFHyperParams:
    """Forest shape and randomness controls."""

    n_trees: int = 500
    mtry: int = 1  # features considered per split
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_leaf_nodes: int | None = None  # set -> best-first growth
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.mtry < 1:
            raise ValueError(f"mtry must be >= 1, got {self.mtry}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.max_leaf_nodes is not None and self.max_leaf_nodes < 2:
            raise ValueError(f"max_leaf_nodes must be >= 2 or None, got {self.max_leaf_nodes}")

    @classmethod
    def matrix_profile(cls, mtry: int, seed: int = 0, n_trees: int = 500) -> "RFHyperParams":
        """Unbounded-growth forest used by the experiment matrix."""
        return cls(n_trees=n_trees, mtry=mtry, seed=seed)

    @classmethod
    def final_profile(cls, n_features: int, seed: int = 0) -> "RFHyperParams":
        """Compact regularised forest: 100 trees, sqrt features, depth 6,
        leaves >= 2 samples, at most 8 leaves per tree."""
        return cls(
            n_trees=100,
            mtry=max(1, int(math.isqrt(n_features))),
            max_depth=6,
            min_samples_split=2,
            min_samples_leaf=2,
            max_leaf_nodes=8,
            seed=seed,
        )


# Trees with at most this many split nodes predict through a lookup table of
# 2**m entries; deeper ones, which only unbounded growth produces, walk.
_TABLE_MAX_SPLITS = 12


class _Tree:
    """Flat-array decision tree; feature == -1 marks a leaf.

    A tree with m <= _TABLE_MAX_SPLITS split nodes is also compiled, once, to
    a lookup table in the manner of QuickScorer (Lucchese et al., SIGIR 2015):
    a row's m split outcomes, read as an m-bit code, index the class of the
    leaf it reaches.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "counts", "leaf_class", "in_bag",
        "_splits", "_table",
    )

    def __init__(self, feature, threshold, left, right, counts, in_bag):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)  # (nodes, 2): plastic, water
        # leaf majority with ties toward plastic
        self.leaf_class = np.where(
            self.counts[:, 0] >= self.counts[:, 1], PLASTIC, WATER
        ).astype(np.int64)
        self.in_bag = None if in_bag is None else np.asarray(in_bag, dtype=np.int64)
        self._splits, self._table = self._compile()

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def _compile(self):
        """``(splits, table)``, or ``(None, None)`` past the size limit.

        Split node k (in node order) gives bit k of the code, counted from
        the most significant of m: set when the row goes right.  A leaf
        fixes the bits on its path and leaves the others free, so the leaves
        fill all 2**m codes between them, with no walk per code.
        """
        feature = self.feature.tolist()
        internal = [node for node, f in enumerate(feature) if f >= 0]
        m = len(internal)
        if m > _TABLE_MAX_SPLITS:
            return None, None
        bit = {node: k for k, node in enumerate(internal)}
        left, right = self.left.tolist(), self.right.tolist()
        leaf_class = self.leaf_class.tolist()
        table = np.empty((2,) * m, dtype=self.leaf_class.dtype)  # axis k = bit k
        stack = [(0, (slice(None),) * m)]
        while stack:
            node, codes = stack.pop()
            if feature[node] < 0:
                table[codes] = leaf_class[node]
                continue
            k = bit[node]
            stack.append((left[node], codes[:k] + (0,) + codes[k + 1:]))
            stack.append((right[node], codes[:k] + (1,) + codes[k + 1:]))
        splits = [(feature[node], self.threshold[node]) for node in internal]
        return splits, table.reshape(-1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf class of each row of ``X`` (n, n_features).

        Each split reads one column, so a Fortran-ordered ``X`` is fastest.
        """
        if self._table is None:
            return self._walk(X)
        code = np.zeros(len(X), dtype=np.uint16)  # holds _TABLE_MAX_SPLITS bits
        for f, t in self._splits:
            code <<= 1
            code |= ~(X[:, f] <= t)  # not X > t: NaN goes right, as in the walk
        return self._table[code]

    def _walk(self, X: np.ndarray) -> np.ndarray:
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            feats = self.feature[cur]
            active = np.nonzero(feats >= 0)[0]
            if active.size == 0:
                break
            node = cur[active]
            go_left = X[active, self.feature[node]] <= self.threshold[node]
            cur[active] = np.where(go_left, self.left[node], self.right[node])
        return self.leaf_class[cur]


def _gini(p: np.ndarray | float) -> np.ndarray | float:
    return 2.0 * p * (1.0 - p)


def _best_feature_split(v: np.ndarray, is_plastic: np.ndarray, min_leaf: int):
    """Best midpoint threshold of one feature: (decrease, threshold) or None."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    sp = is_plastic[order]
    n = v.size
    cut = np.nonzero(sv[:-1] < sv[1:])[0]  # split between cut and cut+1
    if cut.size == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    ok = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not ok.any():
        return None
    cut = cut[ok]
    n_left = n_left[ok].astype(np.float64)
    n_right = n_right[ok].astype(np.float64)
    plastic_left = np.cumsum(sp)[cut].astype(np.float64)
    total_plastic = float(sp.sum())
    parent = _gini(total_plastic / n)
    child = (
        n_left * _gini(plastic_left / n_left)
        + n_right * _gini((total_plastic - plastic_left) / n_right)
    ) / n
    decrease = parent - child
    j = int(np.argmax(decrease))  # first max -> lowest threshold on ties
    threshold = (sv[cut[j]] + sv[cut[j] + 1]) / 2.0
    return float(decrease[j]), float(threshold)


def _find_split(X, is_plastic, idx, hp: RFHyperParams, n_features: int, rng):
    """Best (decrease, feature, threshold) over an mtry draw, or None."""
    mtry = min(hp.mtry, n_features)
    feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
    best = None
    for f in feats:
        found = _best_feature_split(X[idx, f], is_plastic[idx], hp.min_samples_leaf)
        if found is None:
            continue
        decrease, threshold = found
        if decrease <= 0.0:
            continue
        if best is None or decrease > best[0]:
            best = (decrease, int(f), threshold)
    return best


class _TreeBuilder:
    def __init__(self, X, is_plastic, hp: RFHyperParams, rng):
        self.X = X
        self.is_plastic = is_plastic
        self.hp = hp
        self.rng = rng
        self.n_features = X.shape[1]
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[tuple[int, int]] = []

    def _alloc(self, idx) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        n_plastic = int(self.is_plastic[idx].sum())
        self.counts.append((n_plastic, int(idx.size - n_plastic)))
        return node

    def _splittable(self, idx, depth) -> bool:
        hp = self.hp
        if hp.max_depth is not None and depth >= hp.max_depth:
            return False
        if idx.size < hp.min_samples_split:
            return False
        n_plastic = self.is_plastic[idx].sum()
        return 0 < n_plastic < idx.size  # impure

    def _try_split(self, idx, depth):
        if not self._splittable(idx, depth):
            return None
        return _find_split(self.X, self.is_plastic, idx, self.hp, self.n_features, self.rng)

    def _apply(self, node: int, idx, split):
        _, f, thr = split
        go_left = self.X[idx, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        return left_idx, right_idx

    def build_depth_first(self, idx) -> None:
        stack = [(idx, 0, -1, True)]
        while stack:
            node_idx, depth, parent, is_left = stack.pop()
            node = self._alloc(node_idx)
            if parent >= 0:
                if is_left:
                    self.left[parent] = node
                else:
                    self.right[parent] = node
            split = self._try_split(node_idx, depth)
            if split is None:
                continue
            left_idx, right_idx = self._apply(node, node_idx, split)
            # push right first so the left subtree is grown first
            stack.append((right_idx, depth + 1, node, False))
            stack.append((left_idx, depth + 1, node, True))

    def build_best_first(self, idx) -> None:
        """Grow by largest impurity decrease until max_leaf_nodes leaves."""
        max_leaves = self.hp.max_leaf_nodes
        root = self._alloc(idx)
        heap: list = []
        tick = 0  # FIFO tie-break for equal decreases
        split = self._try_split(idx, 0)
        if split is not None:
            heapq.heappush(heap, (-split[0], tick, root, idx, 0, split))
            tick += 1
        leaves = 1
        while heap and leaves < max_leaves:
            _, _, node, node_idx, depth, split = heapq.heappop(heap)
            left_idx, right_idx = self._apply(node, node_idx, split)
            for child_idx, is_left in ((left_idx, True), (right_idx, False)):
                child = self._alloc(child_idx)
                if is_left:
                    self.left[node] = child
                else:
                    self.right[node] = child
                child_split = self._try_split(child_idx, depth + 1)
                if child_split is not None:
                    heapq.heappush(
                        heap, (-child_split[0], tick, child, child_idx, depth + 1, child_split)
                    )
                    tick += 1
            leaves += 1

    def finish(self, in_bag) -> _Tree:
        return _Tree(self.feature, self.threshold, self.left, self.right, self.counts, in_bag)


def _grow_tree(X, is_plastic, hp: RFHyperParams, rng, in_bag) -> _Tree:
    builder = _TreeBuilder(X, is_plastic, hp, rng)
    if hp.max_leaf_nodes is None:
        builder.build_depth_first(in_bag)
    else:
        builder.build_best_first(in_bag)
    return builder.finish(in_bag)


@dataclass(eq=False)
class RFModel:
    """Trained forest plus its out-of-bag diagnostics."""

    spec: FeatureSetSpec
    hyperparams: RFHyperParams
    trees: list
    oob_error: float
    oob_curve: np.ndarray  # error after t+1 trees, length n_trees
    importances: np.ndarray  # mean decrease in OOB accuracy per feature
    n_train: int

    @property
    def has_oob_records(self) -> bool:
        return all(t.in_bag is not None for t in self.trees)


def train_rf(table: SampleTable, spec: FeatureSetSpec, hp: RFHyperParams) -> RFModel:
    """Fit a forest on ``table`` under ``spec``.

    Rows are canonically sorted before any seeded draw, so training is
    invariant to input row order.  Requires both classes present and
    ``mtry <= spec.n_features``.
    """
    if hp.mtry > spec.n_features:
        raise ValueError(
            f"mtry={hp.mtry} exceeds the {spec.n_features} features of {spec.spec_id}"
        )
    table = table.canonical()
    if len(table) < 2:
        raise ClassTooSmallError(f"need at least 2 training samples, got {len(table)}")
    X, y = feature_matrix(table, spec)
    if len(set(y.tolist())) < 2:
        raise SingleClassError("training data contains a single class")
    is_plastic = y == PLASTIC
    n = len(y)

    trees: list[_Tree] = []
    for t in range(hp.n_trees):
        rng = seeded_rng(hp.seed, "tree", t)
        in_bag = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, is_plastic, hp, rng, in_bag))

    oob = _oob_rows(trees, n)
    votes = np.zeros((n, 2), dtype=np.int64)
    curve = np.empty(hp.n_trees, dtype=np.float64)
    for t, (tree, oob_rows) in enumerate(zip(trees, oob)):
        if oob_rows.size:
            preds = tree.predict(X[oob_rows])
            votes[oob_rows[preds == PLASTIC], 0] += 1
            votes[oob_rows[preds == WATER], 1] += 1
        seen = votes.sum(axis=1) > 0
        if seen.any():
            agg = np.where(votes[:, 0] >= votes[:, 1], PLASTIC, WATER)
            curve[t] = float(np.mean(agg[seen] != y[seen]))
        else:
            curve[t] = float("nan")
    oob_error = float(curve[-1])
    if math.isnan(oob_error):
        warnings.warn("no sample was ever out of bag; OOB error undefined", stacklevel=2)

    importances = _permutation_importance(trees, oob, X, y, hp.seed, spec.n_features)
    return RFModel(
        spec=spec,
        hyperparams=hp,
        trees=trees,
        oob_error=oob_error,
        oob_curve=curve,
        importances=importances,
        n_train=n,
    )


def _oob_rows(trees, n: int) -> list[np.ndarray]:
    """Per tree, the indices of the n training rows its bootstrap never drew."""
    oob = []
    for tree in trees:
        mask = np.ones(n, dtype=bool)
        mask[tree.in_bag] = False
        oob.append(np.nonzero(mask)[0])
    return oob


def _permutation_importance(trees, oob, X, y, seed: int, n_features: int) -> np.ndarray:
    """Mean decrease in per-tree OOB accuracy when one feature is shuffled.

    ``oob`` holds each tree's out-of-bag rows, as :func:`_oob_rows` gives.
    """
    totals = np.zeros(n_features, dtype=np.float64)
    used = 0
    for t, (tree, oob_rows) in enumerate(zip(trees, oob)):
        if oob_rows.size == 0:
            continue
        used += 1
        X_oob = X[oob_rows]
        y_oob = y[oob_rows]
        base = float(np.mean(tree.predict(X_oob) == y_oob))
        for f in range(n_features):
            rng = seeded_rng(seed, "permutation", t, f)
            shuffled = X_oob.copy()
            shuffled[:, f] = X_oob[rng.permutation(oob_rows.size), f]
            totals[f] += base - float(np.mean(tree.predict(shuffled) == y_oob))
    return totals / used if used else totals


def rf_permutation_importance(model: RFModel, table: SampleTable) -> np.ndarray:
    """Recompute permutation importances from a model and its training table.

    Needs the in-memory bootstrap records; models restored from disk lack
    them.  The table must be the one the model was trained on.
    """
    if not model.has_oob_records:
        raise MissingOobRecordsError(
            "model has no bootstrap records (was it loaded from disk?); "
            "importances can only be recomputed on the freshly trained model"
        )
    table = table.canonical()
    if len(table) != model.n_train:
        raise LengthMismatchError(
            f"table has {len(table)} rows but the model was trained on {model.n_train}"
        )
    X, y = feature_matrix(table, model.spec)
    return _permutation_importance(
        model.trees, _oob_rows(model.trees, len(y)), X, y,
        model.hyperparams.seed, model.spec.n_features,
    )


def predict_rf_batch(model: RFModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over trees for each row; ties go to plastic."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.n_features:
        raise SpecMismatchError(
            f"expected shape (n, {model.spec.n_features}) for {model.spec.spec_id}, "
            f"got {X.shape}"
        )
    if len(X) == 0:
        raise EmptyInputError("no rows to predict")
    X = np.asfortranarray(X)  # one copy; every split of every tree reads a column
    plastic_votes = np.zeros(len(X), dtype=np.int64)
    for tree in model.trees:
        plastic_votes += tree.predict(X) == PLASTIC
    return np.where(2 * plastic_votes >= len(model.trees), PLASTIC, WATER)


def predict_rf(model: RFModel, fv: FeatureVector) -> int:
    """Class label for one feature vector."""
    if fv.spec_id != model.spec.spec_id:
        raise SpecMismatchError(
            f"feature vector is for {fv.spec_id}, model is for {model.spec.spec_id}"
        )
    return int(predict_rf_batch(model, np.asarray(fv.values)[None, :])[0])
