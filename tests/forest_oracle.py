"""Independent per-node reference for random-forest tree growth, and
per-tree references for the OOB curve and the permutation importances.

The one-tree-at-a-time, one-node-at-a-time grower the package used before
it grew the trees of a forest in lockstep: ``_best_feature_split``,
``_find_split`` and ``_TreeBuilder`` are kept as they were.  ``grow_forest``
repeats ``train_rf``'s data preparation and per-tree seeding and returns each
tree's node arrays, numbered in preorder, so tests can require the package's
trees to match these bit for bit.

``oob_curve`` and ``permutation_importance`` are the tree-by-tree loops the
package used before it walked all out-of-bag (tree, row) pairs together;
each tree predicts through ``scene_oracle.tree_classes``, its own walk.
"""

from __future__ import annotations

import heapq

import numpy as np

from plastiscan.classifiers.forest import RFHyperParams
from plastiscan.dataset import feature_matrix
from plastiscan.rng import seeded_rng
from plastiscan.spectra import PLASTIC, WATER
from scene_oracle import tree_classes

FIELDS = ("feature", "threshold", "left", "right", "counts", "in_bag")
DTYPES = (np.int64, np.float64, np.int64, np.int64, np.int64, np.int64)


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


def _preorder(left, right, node: int) -> list[int]:
    """The nodes of the subtree at ``node``: itself, its left subtree, its right."""
    if left[node] < 0:
        return [node]
    return [node] + _preorder(left, right, left[node]) + _preorder(left, right, right[node])


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

    def finish(self, in_bag) -> dict[str, np.ndarray]:
        """The node arrays, renumbered in preorder as ``train_rf`` gives them."""
        order = _preorder(self.left, self.right, 0)
        rank = {old: new for new, old in enumerate(order)}
        left, right = (
            [rank[child[i]] if child[i] >= 0 else -1 for i in order]
            for child in (self.left, self.right)
        )
        values = (
            [self.feature[i] for i in order], [self.threshold[i] for i in order],
            left, right, [self.counts[i] for i in order], in_bag,
        )
        return {k: np.asarray(v, dtype=d) for k, v, d in zip(FIELDS, values, DTYPES)}


def _grow_tree(X, is_plastic, hp: RFHyperParams, rng, in_bag) -> dict[str, np.ndarray]:
    builder = _TreeBuilder(X, is_plastic, hp, rng)
    if hp.max_leaf_nodes is None:
        builder.build_depth_first(in_bag)
    else:
        builder.build_best_first(in_bag)
    return builder.finish(in_bag)


def grow_forest(table, spec, hp: RFHyperParams) -> list[dict[str, np.ndarray]]:
    """Node arrays of every tree ``train_rf(table, spec, hp)`` should grow."""
    X, y = feature_matrix(table.canonical(), spec)
    is_plastic = y == PLASTIC
    n = len(y)
    trees = []
    for t in range(hp.n_trees):
        rng = seeded_rng(hp.seed, "tree", t)
        in_bag = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, is_plastic, hp, rng, in_bag))
    return trees


def oob_rows(trees, n: int) -> list[np.ndarray]:
    """Per tree, the indices of the n training rows its bootstrap never drew."""
    oob = []
    for tree in trees:
        mask = np.ones(n, dtype=bool)
        mask[tree.in_bag] = False
        oob.append(np.nonzero(mask)[0])
    return oob


def oob_curve(trees, X, y) -> np.ndarray:
    """OOB majority-vote error after each tree; NaN while no row was out of bag."""
    votes = np.zeros((len(y), 2), dtype=np.int64)
    curve = np.empty(len(trees), dtype=np.float64)
    for t, (tree, rows) in enumerate(zip(trees, oob_rows(trees, len(y)))):
        if rows.size:
            preds = tree_classes(tree, X[rows])
            votes[rows[preds == PLASTIC], 0] += 1
            votes[rows[preds == WATER], 1] += 1
        seen = votes.sum(axis=1) > 0
        if seen.any():
            agg = np.where(votes[:, 0] >= votes[:, 1], PLASTIC, WATER)
            curve[t] = float(np.mean(agg[seen] != y[seen]))
        else:
            curve[t] = float("nan")
    return curve


def permutation_importance(trees, X, y, seed: int) -> np.ndarray:
    """Mean decrease in per-tree OOB accuracy when one feature is shuffled."""
    n_features = X.shape[1]
    totals = np.zeros(n_features, dtype=np.float64)
    used = 0
    for t, (tree, rows) in enumerate(zip(trees, oob_rows(trees, len(y)))):
        if rows.size == 0:
            continue
        used += 1
        X_oob = X[rows]
        y_oob = y[rows]
        base = float(np.mean(tree_classes(tree, X_oob) == y_oob))
        for f in range(n_features):
            rng = seeded_rng(seed, "permutation", t, f)
            shuffled = X_oob.copy()
            shuffled[:, f] = X_oob[rng.permutation(rows.size), f]
            totals[f] += base - float(np.mean(tree_classes(tree, shuffled) == y_oob))
    return totals / used if used else totals
