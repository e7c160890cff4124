"""Random forest of Gini-impurity decision trees, built from scratch.

Each tree trains on a size-n bootstrap of the data and considers ``mtry``
features (sampled without replacement) at every split; candidate thresholds
are the midpoints between adjacent distinct sorted values.  Ties in impurity
decrease resolve toward the lower feature index, then the lower threshold,
so training is fully deterministic given the seed.

The trees of a forest grow in lockstep (see ``_grow_forest``).  Each keeps its
own seeded stream, bootstrap and node order (depth first, or best first under
``max_leaf_nodes``).  One ``integers`` call per tree draws its bootstrap and
the feature draws of its first nodes, the very numbers that
``Generator.choice`` would draw node by node (see ``_choice_bounds``).  At
every step each tree takes the features of its next node, and one segmented
pass scores the nodes of all trees together: one sort
by (node and feature, value), cumulative plastic counts, the Gini decrease of
every cut, and the first maximum per node.  This is the presorted column
scan of XGBoost's exact greedy split finding (Chen & Guestrin, KDD 2016,
section 4.1), run across the trees of a forest rather than the leaves of one
tree; a tree comes out as it would if grown alone.

Out-of-bag votes give the error curve and fuel permutation importances (mean
decrease in OOB accuracy), worked out on first read, so that fits which only
predict never pay for them.  Trees of up to 12 splits predict through a lookup
table of plastic votes built once per tree (see ``_Tree``); deeper trees walk
level by level.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

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


_OPTIONAL_LIMITS = ("max_depth", "max_leaf_nodes")  # the int fields that may be None


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
        for f in fields(self):
            value = getattr(self, f.name)
            optional = f.name in _OPTIONAL_LIMITS
            if type(value) is not int and not (optional and value is None):
                kind = "an int or None" if optional else "an int"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
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
    a row's m split outcomes, read as an m-bit code, index the plastic vote
    (1 plastic, 0 water) of the leaf it reaches.
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
        the most significant of m: set when the row goes left.  A leaf fixes
        the bits on its path and leaves the others free, so the leaves fill
        all 2**m codes between them, with no walk per code.  The table holds
        each code's plastic vote as a uint8.
        """
        feature = self.feature.tolist()
        internal = [node for node, f in enumerate(feature) if f >= 0]
        m = len(internal)
        if m > _TABLE_MAX_SPLITS:
            return None, None
        bit = {node: k for k, node in enumerate(internal)}
        left, right = self.left.tolist(), self.right.tolist()
        vote = (self.leaf_class == PLASTIC).tolist()
        table = np.empty((2,) * m, dtype=np.uint8)  # axis k = bit k
        stack = [(0, (slice(None),) * m)]
        while stack:
            node, codes = stack.pop()
            if feature[node] < 0:
                table[codes] = vote[node]
                continue
            k = bit[node]
            stack.append((left[node], codes[:k] + (1,) + codes[k + 1:]))
            stack.append((right[node], codes[:k] + (0,) + codes[k + 1:]))
        splits = [(feature[node], self.threshold[node]) for node in internal]
        return splits, table.reshape(-1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf class of each row of ``X`` (n, n_features)."""
        return np.where(self._plastic(X), PLASTIC, WATER)

    def _plastic(self, X: np.ndarray) -> np.ndarray:
        """Per row of ``X``, nonzero where its leaf is plastic: the table's
        uint8 vote, or a bool from the walk past the table's size limit.

        Each split reads one column, so a Fortran-ordered ``X`` is fastest.
        The code is built in place: adding it to itself shifts it left, and
        the split's outcome fills the new low bit.
        """
        if self._table is None:
            return self._walk(X) == PLASTIC
        code = np.zeros(len(X), dtype=np.uint8 if len(self._splits) <= 8 else np.uint16)
        goes_left = np.empty(len(X), dtype=bool)
        for f, t in self._splits:
            np.add(code, code, out=code)
            np.less_equal(X[:, f], t, out=goes_left)  # false for NaN: it goes right
            code |= goes_left
        return np.take(self._table, code)

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


def _gini(p: np.ndarray) -> np.ndarray:
    return 2.0 * p * (1.0 - p)


class _Split(NamedTuple):
    """A node's chosen split; each child is ``(rows, (n_plastic, n_water))``."""

    decrease: float
    feature: int
    threshold: float
    left: tuple
    right: tuple


def _best_splits(Xt, ranks, plastic, requests, min_leaf: int) -> list:
    """Best split of every requested node, all scored in one segmented pass.

    ``Xt`` is the training matrix transposed (n_features, n), free of NaN;
    ``ranks`` holds each value's dense rank within its feature and
    ``plastic`` the labels as 0/1.  A request is ``(rows, n_plastic,
    features)``: a node's training rows (a multiset), its plastic count and
    its sorted feature draw, of one length m for all requests.  Returns, per
    request, None or its :class:`_Split`.

    Segment ``b * m + k`` holds node b's rows sorted by its k-th feature, all
    segments by one argsort of ``segment * n + rank``.  A cut falls where the
    rank rises inside a segment, so tied values never straddle one and the
    order of tied rows does not matter.  A node splits at the first maximum
    over its cuts in (feature, threshold) order, if that maximum is positive.
    """
    rows_of, n_plastic, feats = zip(*requests)
    n_nodes, m, n = len(requests), len(feats[0]), Xt.shape[1]
    n_plastic = np.array(n_plastic)
    feats = np.concatenate(feats).reshape(n_nodes, m)
    size = np.fromiter(map(len, rows_of), dtype=np.int64, count=n_nodes)
    rows = np.concatenate(rows_of)
    # (m, N): the key of row j under its node's k-th feature at (k, j)
    key = np.repeat(np.arange(n_nodes * m).reshape(n_nodes, m).T * n, size, axis=1)
    key += ranks.ravel()[np.repeat(feats.T * n, size, axis=1) + rows]
    key = key.ravel()
    order = np.argsort(key)
    key = key[order]
    r = np.tile(rows, m)[order]
    seg_size = np.repeat(size, m)
    end = np.cumsum(seg_size)
    start = end - seg_size
    cum = np.zeros(r.size + 1, dtype=np.int64)
    np.cumsum(plastic[r], out=cum[1:])

    i = np.flatnonzero(key[:-1] < key[1:])  # cut between sorted positions i and i + 1
    s = key[i] // n
    n_left = i + 1 - start[s]
    n_right = seg_size[s] - n_left  # 0 where i ends its segment; min_leaf >= 1 drops it
    ok = (n_left >= min_leaf) & (n_right >= min_leaf)
    i, s, n_left, n_right = i[ok], s[ok], n_left[ok], n_right[ok]
    plastic_left = cum[i + 1] - cum[start[s]]
    b = s // m
    # the float64 expression of a one-node search, elementwise
    n_all = seg_size[s].astype(np.float64)
    p_all = n_plastic[b].astype(np.float64)
    nl = n_left.astype(np.float64)
    nr = n_right.astype(np.float64)
    pl = plastic_left.astype(np.float64)
    child = (nl * _gini(pl / nl) + nr * _gini((p_all - pl) / nr)) / n_all
    decrease = _gini(p_all / n_all) - child

    # first maximum per node; cuts are in (node, feature, threshold) order
    best = np.zeros(n_nodes)
    np.maximum.at(best, b, decrease)
    hit = np.flatnonzero((decrease == best[b]) & (decrease > 0.0))
    first = np.ones(hit.size, dtype=bool)
    first[1:] = b[hit[1:]] != b[hit[:-1]]
    win = hit[first]
    i, s, b = i[win], s[win], b[win]
    f = feats.ravel()[s]
    threshold = (Xt[f, r[i]] + Xt[f, r[i + 1]]) / 2.0
    out = [None] * n_nodes
    for node, feature, dec, thr, lo, cut, hi, p_node, p_left, n_l in zip(
        b.tolist(), f.tolist(), decrease[win].tolist(), threshold.tolist(),
        start[s].tolist(), (i + 1).tolist(), end[s].tolist(), n_plastic[b].tolist(),
        plastic_left[win].tolist(), n_left[win].tolist(),
    ):
        p_right = p_node - p_left
        # copies, so that a waiting node does not hold this call's arrays
        left = (r[lo:cut].copy(), (p_left, n_l - p_left))
        right = (r[cut:hi].copy(), (p_right, hi - cut - p_right))
        out[node] = _Split(dec, feature, thr, left, right)
    return out


class _Nodes:
    """A growing tree's node arrays, as lists; feature -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[tuple[int, int]] = []

    def alloc(self, counts: tuple[int, int], parent: int = -1, is_left: bool = True) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(counts)
        if parent >= 0:
            (self.left if is_left else self.right)[parent] = node
        return node

    def set_split(self, node: int, split: _Split) -> None:
        self.feature[node] = split.feature
        self.threshold[node] = split.threshold

    def finish(self, in_bag) -> _Tree:
        return _Tree(self.feature, self.threshold, self.left, self.right, self.counts, in_bag)


def _splittable(hp: RFHyperParams, rows, counts, depth: int) -> bool:
    if hp.max_depth is not None and depth >= hp.max_depth:
        return False
    return rows.size >= hp.min_samples_split and counts[0] > 0 and counts[1] > 0  # impure


def _depth_first(nodes: _Nodes, rows, counts, hp: RFHyperParams, draw):
    """Grow one tree depth first, left subtree first.

    A generator: it yields the requests (see :func:`_best_splits`) of the
    nodes it needs searched and is sent back their splits.
    """
    stack = [(rows, counts, 0, -1, True)]
    while stack:
        rows, counts, depth, parent, is_left = stack.pop()
        node = nodes.alloc(counts, parent, is_left)
        if not _splittable(hp, rows, counts, depth):
            continue
        (split,) = yield [(rows, counts[0], draw())]
        if split is None:
            continue
        nodes.set_split(node, split)
        # push right first so the left subtree is grown first
        stack.append((*split.right, depth + 1, node, False))
        stack.append((*split.left, depth + 1, node, True))


def _best_first(nodes: _Nodes, rows, counts, hp: RFHyperParams, draw):
    """Grow one tree by largest impurity decrease until max_leaf_nodes leaves.

    Equal decreases split in the order they were found.  A generator like
    :func:`_depth_first`; the children of the last split are not searched,
    as no split of theirs could be applied.
    """
    heap: list = []
    tick = 0  # FIFO tie-break for equal decreases
    leaves = 1
    grown = [(nodes.alloc(counts), rows, counts, 0)]
    while True:
        asks = [g for g in grown if _splittable(hp, *g[1:])]
        if asks:
            splits = yield [(rows, counts[0], draw()) for _, rows, counts, _ in asks]
            for (node, _, _, depth), split in zip(asks, splits):
                if split is not None:
                    heapq.heappush(heap, (-split.decrease, tick, node, depth, split))
                    tick += 1
        if not heap:
            return
        _, _, node, depth, split = heapq.heappop(heap)
        nodes.set_split(node, split)
        leaves += 1
        grown = [
            (nodes.alloc(counts, node, is_left), rows, counts, depth + 1)
            for (rows, counts), is_left in ((split.left, True), (split.right, False))
        ]
        if leaves >= hp.max_leaf_nodes:
            return


# Values scored by one _best_splits call at most.  It bounds the call's
# temporaries (about 120 bytes a value) when a wide forest starts with many
# large nodes; calls this size or smaller are no slower per value.
_VALUES_PER_CALL = 1 << 13


# Nodes whose feature draws each tree makes up front, in the same call as its
# bootstrap.  A tree that needs more refills from its own stream; nothing else
# reads that stream after growth, so draws left unused change no tree.
_DRAW_BATCH = 16


def _choice_bounds(n_features: int, mtry: int, k: int) -> np.ndarray:
    """Exclusive upper bounds of the bounded integers that ``k`` successive
    ``Generator.choice(n_features, mtry, replace=False)`` calls draw.

    For populations of at most 10,000 (a feature set has at most 14 members)
    NumPy runs Floyd's algorithm: ``mtry`` draws below ``n_features - mtry +
    1 ... n_features``, then a Fisher-Yates shuffle of the picks with ``mtry
    - 1`` draws below ``mtry ... 2``.
    ``Generator.integers(0, bounds)`` makes the same draws in the same order.
    """
    floyd = np.arange(n_features - mtry + 1, n_features + 1)
    shuffle = np.arange(mtry, 1, -1)
    return np.tile(np.concatenate([floyd, shuffle]), k)


def _sorted_choices(draws: np.ndarray, n_features: int, mtry: int) -> np.ndarray:
    """The sorted feature picks of the draws that :func:`_choice_bounds`
    describes, shaped ``(..., k, mtry)`` for ``draws`` of shape ``(..., k * (2
    mtry - 1))``: each is ``np.sort`` of the ``choice`` call it stands for.

    Floyd's step c draws ``v`` in ``[0, n_features - mtry + c]`` and takes
    ``v`` unless an earlier step took it, else the bound itself, which no
    earlier step can have taken.  The sort discards the shuffle's order, so
    its draws are spent and otherwise ignored.
    """
    lead = draws.shape[:-1]
    picks = draws.reshape(-1, 2 * mtry - 1)[:, :mtry].copy()
    for c in range(1, mtry):
        taken = (picks[:, c, None] == picks[:, :c]).any(axis=1)
        picks[taken, c] = n_features - mtry + c
    picks.sort(axis=1)
    return picks.reshape(*lead, -1, mtry)


def _feature_draws(first: np.ndarray, rng, bounds: np.ndarray, n_features: int, mtry: int):
    """A tree's sorted feature draws, one node at a time: its first batch,
    then batches drawn from its own stream as it needs them."""
    yield from first
    while True:
        yield from _sorted_choices(rng.integers(0, bounds), n_features, mtry)


def _grow_forest(X, is_plastic, hp: RFHyperParams) -> list[_Tree]:
    """Grow all trees of a forest in lockstep.

    Each tree keeps its own seeded stream, bootstrap and node order.  One
    ``integers`` call per tree draws its bootstrap and the features of its
    first :data:`_DRAW_BATCH` nodes, exactly as ``integers(0, n, size=n)``
    and as many sorted ``choice`` calls would; the draws of all trees are
    turned into feature picks together.  At every step each tree with work
    left takes the features of its next node(s), and :func:`_best_splits`
    scores the nodes of all trees together, so each tree is the one it
    would be if grown alone.
    """
    n, n_features = X.shape
    mtry = min(hp.mtry, n_features)
    grow = _depth_first if hp.max_leaf_nodes is None else _best_first
    bounds = np.concatenate([np.full(n, n), _choice_bounds(n_features, mtry, _DRAW_BATCH)])
    rngs = [seeded_rng(hp.seed, "tree", t) for t in range(hp.n_trees)]
    draws = np.empty((hp.n_trees, bounds.size), dtype=np.int64)
    for t, rng in enumerate(rngs):
        draws[t] = rng.integers(0, bounds)
    in_bags = draws[:, :n]
    firsts = _sorted_choices(draws[:, n:], n_features, mtry)
    n_plastics = is_plastic[in_bags].sum(axis=1).tolist()
    trees, waiting = [], []
    for rng, in_bag, first, n_plastic in zip(rngs, in_bags, firsts, n_plastics):
        nodes = _Nodes()
        trees.append((nodes, in_bag))
        draw = _feature_draws(first, rng, bounds[n:], n_features, mtry).__next__
        waiting.append((grow(nodes, in_bag, (n_plastic, n - n_plastic), hp, draw), None))
    Xt = np.ascontiguousarray(X.T)
    ranks = np.array([np.unique(column, return_inverse=True)[1] for column in Xt])
    plastic = is_plastic.astype(np.int64)
    per_call = max(1, _VALUES_PER_CALL // (n * mtry))
    while waiting:
        asked_by, requests = [], []
        for tree, splits in waiting:
            try:
                asked = tree.send(splits)
            except StopIteration:
                continue
            asked_by.append((tree, len(asked)))
            requests += asked
        splits = [
            split
            for at in range(0, len(requests), per_call)
            for split in _best_splits(Xt, ranks, plastic, requests[at:at + per_call],
                                      hp.min_samples_leaf)
        ]
        waiting, at = [], 0
        for tree, k in asked_by:
            waiting.append((tree, splits[at:at + k]))
            at += k
    return [nodes.finish(in_bag) for nodes, in_bag in trees]


@dataclass(eq=False)
class RFModel:
    """Trained forest.  Its OOB diagnostics are worked out together when first
    read, from the training (X, y) that :func:`train_rf` keeps beside the trees'
    bootstrap records; a model loaded from disk holds its file's values instead."""

    spec: FeatureSetSpec
    hyperparams: RFHyperParams
    trees: list
    n_train: int
    _training: tuple | None = field(default=None, init=False, repr=False)

    oob_error = property(lambda self: self._diagnostics[0])
    oob_curve = property(lambda self: self._diagnostics[1])  # error after t+1 trees
    importances = property(lambda self: self._diagnostics[2])  # mean OOB accuracy drop

    @property
    def has_oob_records(self) -> bool:
        return all(t.in_bag is not None for t in self.trees)

    @cached_property
    def _diagnostics(self) -> tuple[float, np.ndarray, np.ndarray]:
        if self._training is None:
            raise MissingOobRecordsError("model holds no OOB diagnostics and no training data")
        X, y = self._training
        oob = _oob_rows(self.trees, len(y))
        curve = _oob_curve(self.trees, oob, X, y)
        if math.isnan(curve[-1]):  # stacklevel: past cached_property and the property
            warnings.warn("no sample was ever out of bag; OOB error undefined", stacklevel=4)
        importances = _permutation_importance(
            self.trees, oob, X, y, self.hyperparams.seed, self.spec.n_features
        )
        return float(curve[-1]), curve, importances


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
    trees = _grow_forest(X, y == PLASTIC, hp)
    model = RFModel(spec=spec, hyperparams=hp, trees=trees, n_train=len(y))
    model._training = (X, y)
    return model


def _oob_rows(trees, n: int) -> list[np.ndarray]:
    """Per tree, the indices of the n training rows its bootstrap never drew."""
    oob = []
    for tree in trees:
        mask = np.ones(n, dtype=bool)
        mask[tree.in_bag] = False
        oob.append(np.nonzero(mask)[0])
    return oob


def _oob_curve(trees, oob, X, y) -> np.ndarray:
    """OOB majority-vote error after each tree; NaN while no row was out of bag."""
    votes = np.zeros((len(y), 2), dtype=np.int64)
    curve = np.empty(len(trees), dtype=np.float64)
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
    return curve


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
    n_trees = len(model.trees)
    plastic_votes = np.zeros(len(X), dtype=np.min_scalar_type(n_trees))  # holds n_trees
    for tree in model.trees:
        plastic_votes += tree._plastic(X)
    return np.where(plastic_votes >= (n_trees + 1) // 2, PLASTIC, WATER)  # 2 * votes >= n_trees


def predict_rf(model: RFModel, fv: FeatureVector) -> int:
    """Class label for one feature vector."""
    if fv.spec_id != model.spec.spec_id:
        raise SpecMismatchError(
            f"feature vector is for {fv.spec_id}, model is for {model.spec.spec_id}"
        )
    return int(predict_rf_batch(model, np.asarray(fv.values)[None, :])[0])
