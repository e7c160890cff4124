"""Random forest of Gini-impurity decision trees, built from scratch.

Each tree trains on a size-n bootstrap of the data and considers ``mtry``
features (sampled without replacement) at every split; candidate thresholds
are the midpoints between adjacent distinct sorted values.  Ties in impurity
decrease resolve toward the lower feature index, then the lower threshold,
so training is fully deterministic given the seed.

The trees of one forest or of many grow in one lockstep on array state
(see ``_grow_forests``).  Each tree keeps its own seeded stream, bootstrap
and node order (depth first, or best first under ``max_leaf_nodes``).  One
``integers`` call per tree draws its bootstrap and the feature draws of its
first nodes, the very numbers that ``Generator.choice`` would draw node by
node (see ``_choice_bounds``).  A node is a range of its tree's bootstrap
rows in one shared buffer.  At every step each tree takes the features of
its next nodes, and one segmented pass scores the nodes of all trees
together: one sort by (node and feature, value), cumulative plastic counts,
the Gini decrease of every cut, and the first maximum per node.  This is the
exact greedy split finding of XGBoost (Chen & Guestrin, KDD 2016, section
4.1), with each node's rows sorted afresh, run across the trees of many
forests rather than the leaves of one tree; a tree comes out as it would if
grown alone.

Out-of-bag votes give the error curve and fuel permutation importances (mean
decrease in OOB accuracy), worked out on first read, so that fits which only
predict never pay for them.  One level walk (``_walk``) moves any set of
(tree, row) pairs through the forest's joined nodes at once; it serves the
OOB scores and small batches.  Batches of ``_TABLE_MIN_ROWS`` rows or more
go through per-tree lookup tables of plastic votes for the trees of up to 12
splits, built on first use from one walk of all (tree, code) pairs, and walk
only the deeper trees, after the tables.  A row stops voting once its
majority is settled (early exit; Cambazoglu et al., WSDM 2010): from the
``n_trees // 2 + 1``-th vote on, at a few points, the rows that have won or
can no longer win leave the batch, so that the later tables and walk blocks
see only undecided rows, and every label is still the full vote's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..dataset import SampleTable, _training_matrix, feature_matrix
from ..errors import (
    EmptyInputError,
    LengthMismatchError,
    MissingOobRecordsError,
    SpecMismatchError,
    _outside_stacklevel,
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


class _Tree(NamedTuple):
    """One tree's node arrays in preorder, children counted from the root and
    feature -1 marking a leaf, which votes for the majority of its (plastic,
    water) ``counts``, ties to plastic.  ``in_bag`` is the bootstrap draw
    (None for a tree read from a file)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    in_bag: np.ndarray | None


# Trees with at most this many split nodes predict a large batch through a
# lookup table of 2**m entries; deeper ones, which only unbounded growth
# produces, walk.
_TABLE_MAX_SPLITS = 12

# Batches of fewer rows walk every tree: below this, compiling the tables on
# first use costs more than walking (measured on final_profile and 500-tree
# unbounded forests).
_TABLE_MIN_ROWS = 512

# (tree, row) pairs walked at once at most, in blocks of whole trees: a bound
# on the walk's temporaries (about 100 bytes a pair).
_WALK_PAIRS = 1 << 16

# (tree, code) pairs walked at once at most when the lookup tables are built,
# in blocks of whole trees (about 75 bytes a pair).  A final_profile forest
# (100 trees of at most 7 splits, 12,800 pairs) still takes one block, and a
# 500-tree unbounded one peaks at under half the memory of _WALK_PAIRS blocks.
_TABLE_WALK_PAIRS = 1 << 14


def _gini(p: np.ndarray) -> np.ndarray:
    return 2.0 * p * (1.0 - p)


def _best_splits(Xt, ranks, plastic, buf, lo, size, n_plastic, min_leaf, feats, m):
    """Best split of every requested node, all scored in one segmented pass.

    ``Xt`` is the feature matrix transposed (n_features, N), free of NaN;
    ``ranks[f * N + row]`` is the dense rank of ``Xt[f, row]`` within its
    feature and ``plastic`` holds the labels as 0.0/1.0.  Node b holds the
    rows ``buf[lo[b]:lo[b] + size[b]]`` (a multiset), ``n_plastic[b]`` of
    them plastic, and searches the ``m[b]`` sorted features that are its part
    of ``feats``; neither child may hold fewer than ``min_leaf[b]`` rows.

    Segment s holds one (node, feature) pair's rows sorted by the feature,
    all segments by one sort of ``s * N + rank``.  A cut falls where the rank
    rises inside a segment, so tied values never straddle one and the order
    of tied rows does not matter.  A node splits at the first maximum over
    its cuts in (feature, threshold) order, if that maximum is positive.  Its
    buffer range then takes the rows of the winning segment in their sorted
    order, so that its left child holds the first ``n_left`` of them.

    Returns ``(node, decrease, feature, threshold, n_left, plastic_left)``
    for the nodes that split, in node order.
    """
    N, n_seg = Xt.shape[1], feats.size
    seg_node = np.arange(lo.size).repeat(m)
    seg_size = size[seg_node]
    end = seg_size.cumsum()
    start = end - seg_size
    n_values = int(end[-1])
    pos = np.arange(n_values) + (lo[seg_node] - start).repeat(seg_size)  # in the buffer
    rows = buf[pos]
    key = ranks[(feats * N).repeat(seg_size) + rows]
    key += np.arange(0, n_seg * N, N).repeat(seg_size)
    shift = (n_values - 1).bit_length()
    if (n_seg * N) << shift < 1 << 63:  # sort the keys with their places in the low bits
        key <<= shift
        key |= np.arange(n_values)
        key.sort()
        r = rows[key & ((1 << shift) - 1)]
        key >>= shift
    else:
        order = np.argsort(key)
        key, r = key[order], rows[order]
    cum = np.zeros(n_values + 1)  # plastic rows before each sorted place, exact in float64
    plastic[r].cumsum(out=cum[1:])

    rise = key[:-1] < key[1:]
    rise[end[:-1] - 1] = False  # where one segment ends and the next begins
    i = rise.nonzero()[0]  # cut between sorted places i and i + 1
    s = key[i] // N
    n_all = seg_size.astype(np.float64)[s]
    nl = i + (1.0 - start)[s]  # the counts in float64, as a one-node search has them
    nr = n_all - nl
    if (min_leaf > 1).any():
        leaf = min_leaf[seg_node][s]
        ok = ((nl >= leaf) & (nr >= leaf)).nonzero()[0]
        i, s, n_all, nl, nr = i[ok], s[ok], n_all[ok], nl[ok], nr[ok]
    pl = cum[i + 1] - cum[start][s]
    p_all = n_plastic[seg_node].astype(np.float64)
    child = (nl * _gini(pl / nl) + nr * _gini((p_all[s] - pl) / nr)) / n_all
    decrease = _gini(p_all / seg_size)[s] - child

    # first maximum per node; cuts are in (node, feature, threshold) order
    b = seg_node[s]
    head = np.ones(b.size, dtype=bool)  # a node's first cut
    head[1:] = b[1:] != b[:-1]
    head = head.nonzero()[0]
    best = np.zeros(lo.size)
    best[b[head]] = np.maximum.reduceat(decrease, head)
    hit = ((decrease == best[b]) & (decrease > 0.0)).nonzero()[0]
    first = np.ones(hit.size, dtype=bool)
    first[1:] = b[hit[1:]] != b[hit[:-1]]
    win = hit[first]
    i, s = i[win], s[win]
    f = feats[s]
    threshold = (Xt[f, r[i]] + Xt[f, r[i + 1]]) / 2.0
    won = np.zeros(n_seg, dtype=bool)
    won[s] = True
    moved = won.repeat(seg_size)  # the sort keeps every segment where it was
    buf[pos[moved]] = r[moved]
    return (seg_node[s], decrease[win], f, threshold,
            nl[win].astype(np.int64), pl[win].astype(np.int64))


# Values scored by one _best_splits call at most: a bound on a step's
# temporaries (about 150 bytes a value) when wide forests start with many
# large nodes.
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


class _Draws:
    """The sorted feature draws of a lockstep's trees, node by node: each
    tree's first :data:`_DRAW_BATCH` from its bootstrap call, then batches
    from its own stream as it uses them up.  Tree t's draws fill the first
    ``mtry[t]`` columns of ``picks``; -1 fills the rest."""

    def __init__(self, picks: np.ndarray, rngs: list, n_features: int, mtry: np.ndarray):
        self.picks = picks  # (trees, draws so far, widest mtry)
        self.rngs, self.n_features, self.mtry = rngs, n_features, mtry
        self.filled = np.full(len(rngs), _DRAW_BATCH)
        self.used = np.zeros(len(rngs), dtype=np.int64)

    def take(self, trees: np.ndarray, again: np.ndarray) -> np.ndarray:
        """The next draw of each of ``trees``, or the one after it where
        ``again`` is 1: a tree's second node in one step."""
        k = self.used[trees] + again
        np.add.at(self.used, trees, 1)
        short = k >= self.filled[trees]
        if short.any():
            self._refill(np.unique(trees[short]))
        return self.picks[trees, k]

    def _refill(self, trees: np.ndarray) -> None:
        at = self.filled[trees]
        if at.max() + _DRAW_BATCH > self.picks.shape[1]:
            more = np.full_like(self.picks[:, :_DRAW_BATCH], -1)
            self.picks = np.concatenate([self.picks, more], axis=1)
        for mtry in np.unique(self.mtry[trees]).tolist():
            of_width = trees[self.mtry[trees] == mtry]
            bounds = _choice_bounds(self.n_features, mtry, _DRAW_BATCH)
            draws = np.stack([self.rngs[t].integers(0, bounds) for t in of_width.tolist()])
            places = self.filled[of_width, None] + np.arange(_DRAW_BATCH)
            self.picks[of_width[:, None], places, :mtry] = _sorted_choices(
                draws, self.n_features, mtry)
        self.filled[trees] += _DRAW_BATCH


def _forest_trees(feature, threshold, left, right, counts, sizes, in_bags) -> list[_Tree]:
    """The trees of a forest from its node lists, concatenated tree by tree.

    Tree t holds the next ``sizes[t]`` nodes, in preorder, with ``left`` and
    ``right`` counted from its root; ``counts`` gives two ints per node.  One
    array is made per field for the whole forest, and each tree gets its
    slices of them.  Trained and loaded trees are both made here, so a tree
    read back from its file equals the one that was grown, field by field.
    """
    arrays = [np.asarray(values, dtype=np.int64) for values in (feature, left, right, counts)]
    arrays.insert(1, np.asarray(threshold, dtype=np.float64))
    arrays[-1] = arrays[-1].reshape(-1, 2)
    ends = np.cumsum(sizes).tolist()
    return [_Tree(*(a[lo:hi] for a in arrays), in_bag)
            for lo, hi, in_bag in zip([0] + ends[:-1], ends, in_bags)]


def _grow_forests(X, is_plastic, jobs) -> list[list[_Tree]]:
    """The trees of every job, grown together in one lockstep.

    A job is ``(rows, hp)``: the forest of ``hp`` on the rows ``X[rows]``, the
    very trees it would have grown alone, its ``in_bag`` counted in
    ``rows``.  One ``integers`` call per tree draws its bootstrap and the
    features of its first :data:`_DRAW_BATCH` nodes, exactly as
    ``integers(0, n, size=n)`` and as many sorted ``choice`` calls would; its
    own stream refills them later (:class:`_Draws`).

    All bootstraps lie in one row buffer, and a node is a ``[lo, lo + size)``
    range of its tree's part: a search leaves a node's rows sorted by its
    best split's feature, so that its children are the two ends of its range
    (the ``samples[start:end]`` layout of scikit-learn, across trees and
    forests).  At every step each tree searches its next nodes: the top of
    its stack of open nodes (depth first, left subtree first), or its new
    children (best first under ``max_leaf_nodes``).  :func:`_best_splits`
    scores the nodes of all trees together.  A depth-first tree splits a
    node at once.  A best-first tree keeps its found splits as candidates
    and applies the one of largest decrease, the first found on ties, until
    it has ``max_leaf_nodes`` leaves.  Nodes are kept in creation order and
    renumbered in preorder at the end, and the trees come out through
    :func:`_forest_trees`.
    """
    N, n_features = X.shape
    Xt = np.ascontiguousarray(X.T)
    ranks = np.concatenate([np.unique(column, return_inverse=True)[1] for column in Xt])
    plastic = is_plastic.astype(np.float64)
    # trees are numbered job by job
    width = max(min(hp.mtry, n_features) for _, hp in jobs)
    buf = np.empty(sum(len(rows) * hp.n_trees for rows, hp in jobs), dtype=np.int64)
    picks, rngs, in_bags, n_plastic, tree_hp, filled = [], [], [], [], [], 0
    for rows, hp in jobs:
        n, mtry = len(rows), min(hp.mtry, n_features)
        job_rngs = [seeded_rng(hp.seed, "tree", t) for t in range(hp.n_trees)]
        bounds = np.concatenate([np.full(n, n), _choice_bounds(n_features, mtry, _DRAW_BATCH)])
        drawn = np.empty((hp.n_trees, bounds.size), dtype=np.int64)
        for t, rng in enumerate(job_rngs):
            drawn[t] = rng.integers(0, bounds)
        in_bag = drawn[:, :n]
        job_picks = np.full((hp.n_trees, _DRAW_BATCH, width), -1)
        job_picks[:, :, :mtry] = _sorted_choices(drawn[:, n:], n_features, mtry)
        picks.append(job_picks)
        rngs += job_rngs
        buf[filled:filled + in_bag.size] = rows[in_bag].ravel()
        filled += in_bag.size
        in_bags += list(in_bag)
        n_plastic.append(is_plastic[rows][in_bag].sum(axis=1))
        tree_hp += [(n, mtry, hp.max_depth or N, hp.min_samples_split,
                     hp.min_samples_leaf, hp.max_leaf_nodes or 0)] * hp.n_trees
    n_of, m_of, max_depth, min_split, min_leaf, max_leaves = np.array(tree_hp).T
    T = len(in_bags)
    feature_draws = _Draws(np.concatenate(picks), rngs, n_features, m_of)

    # the node table, a row per node in creation order; row t < T is tree t's root
    TREE, LO, SIZE, PLASTIC, DEPTH, LEFT, FEATURE, N_LEFT, P_LEFT = range(9)
    nodes = np.empty((4 * T, 9), dtype=np.int64)
    threshold = np.empty(4 * T)
    nodes[:T, :LEFT + 1] = np.stack([np.arange(T), np.cumsum(n_of) - n_of, n_of,
                                     np.concatenate(n_plastic), np.zeros_like(n_of),
                                     np.full(T, -1)], 1)
    count = T

    def splittable(rows):
        t, size, p = rows[:, TREE], rows[:, SIZE], rows[:, PLASTIC]
        return (rows[:, DEPTH] < max_depth[t]) & (size >= min_split[t]) & (p > 0) & (p < size)

    def search(ids):
        """Search the nodes ``ids`` (in tree order) with their trees' next
        feature draws; returns the ids that found a split and its decrease."""
        rows = nodes[ids]
        trees = rows[:, TREE]
        again = np.zeros(ids.size, dtype=np.int64)  # a tree's second node this step
        again[1:] = trees[1:] == trees[:-1]
        feats = feature_draws.take(trees, again)
        feats = feats[feats >= 0]
        lo, size, p = rows[:, LO], rows[:, SIZE], rows[:, PLASTIC]
        m, leaf = m_of[trees], min_leaf[trees]
        # calls of whole nodes, of about _VALUES_PER_CALL values each
        ends = (size * m).cumsum()
        bounds = np.arange(_VALUES_PER_CALL, ends[-1], _VALUES_PER_CALL)
        at = [0, *ends.searchsorted(bounds).tolist(), ids.size]
        seg_end = m.cumsum()
        won = []
        for a, b in zip(at, at[1:]):
            if a < b:
                node, *rest = _best_splits(Xt, ranks, plastic, buf, lo[a:b], size[a:b], p[a:b],
                                            leaf[a:b], feats[seg_end[a] - m[a]:seg_end[b - 1]],
                                            m[a:b])
                won.append((node + a, *rest))
        node, decrease, f, thr, n_left, p_left = (
            won[0] if len(won) == 1 else [np.concatenate(part) for part in zip(*won)])
        node = ids[node]
        nodes[node, FEATURE], nodes[node, N_LEFT], nodes[node, P_LEFT] = f, n_left, p_left
        threshold[node] = thr
        return node, decrease

    def split(parents):
        """Make the children of ``parents`` from their found splits, left then
        right; returns their ids and rows."""
        nonlocal nodes, threshold, count
        rows = nodes[parents]
        kids = rows.repeat(2, axis=0)
        kids[:, DEPTH] += 1
        kids[:, LEFT] = -1
        left, right = kids[0::2], kids[1::2]
        left[:, SIZE], left[:, PLASTIC] = rows[:, N_LEFT], rows[:, P_LEFT]
        right[:, LO] += rows[:, N_LEFT]
        right[:, SIZE] -= rows[:, N_LEFT]
        right[:, PLASTIC] -= rows[:, P_LEFT]
        at, count = count, count + len(kids)
        if count > len(nodes):
            nodes = np.concatenate([nodes, np.empty_like(nodes[:count])])
            threshold = np.concatenate([threshold, np.empty_like(threshold[:count])])
        nodes[at:count] = kids
        nodes[parents, LEFT] = np.arange(at, count, 2)
        return np.arange(at, count), kids

    open_roots = np.flatnonzero(splittable(nodes[:T]))
    depth_first = max_leaves[open_roots] == 0
    # depth first: a stack of open nodes per tree, as deep as the tree
    stack, top = np.empty((T, 8), dtype=np.int64), np.zeros(T, dtype=np.int64)
    stack[open_roots[depth_first], 0] = open_roots[depth_first]
    top[open_roots[depth_first]] = 1
    # best first: the children to search next, and per tree its found splits
    # as candidates in the order found, so that the first maximum is the
    # first found, with the nodes that found them
    pending = open_roots[~depth_first]
    growing = np.flatnonzero(max_leaves > 0)
    if growing.size:
        slots = int(np.minimum(2 * max_leaves - 1, 2 * n_of - 1)[growing].max())
        candidate = np.full((T, slots), -np.inf)
        candidate_node = np.empty((T, slots), dtype=np.int64)
        n_candidates, leaves = np.zeros(T, dtype=np.int64), np.ones(T, dtype=np.int64)
    while True:
        trees = top.nonzero()[0]
        top[trees] -= 1
        ids = stack[trees, top[trees]]
        if pending.size:  # best-first children, merged in tree order
            ids = np.concatenate([ids, pending])
            ids = ids[np.argsort(nodes[ids, TREE], kind="stable")]
        if ids.size:
            found, decrease = search(ids)
            t = nodes[found, TREE]
            now = max_leaves[t] == 0
            if now.any():  # depth first: split now, and push the children to search
                kids, rows = split(found[now])
                ok = splittable(rows)
                deep = t[now]
                if top[deep].max() + 2 > stack.shape[1]:
                    stack = np.concatenate([stack, stack], axis=1)
                for side in (1, 0):  # the right child first, so that the left is searched next
                    push = deep[ok[side::2]]
                    stack[push, top[push]] = kids[side::2][ok[side::2]]
                    top[push] += 1
            if not now.all():  # best first: keep the splits as candidates
                found, decrease, t = found[~now], decrease[~now], t[~now]
                again = np.zeros(t.size, dtype=np.int64)
                again[1:] = t[1:] == t[:-1]
                slot = n_candidates[t] + again
                candidate[t, slot], candidate_node[t, slot] = decrease, found
                np.add.at(n_candidates, t, 1)
        popped = 0
        if growing.size:  # best first: apply each tree's best candidate
            slot = candidate[growing].argmax(axis=1)
            has = candidate[growing, slot] > -np.inf
            growing, slot = growing[has], slot[has]
            popped = growing.size
            candidate[growing, slot] = -np.inf
            kids, rows = split(candidate_node[growing, slot])
            leaves[growing] += 1
            more = leaves[growing] < max_leaves[growing]
            pending = kids[splittable(rows) & more.repeat(2)]
            growing = growing[more]
        if not (ids.size or popped):
            break

    # preorder: subtree sizes from the deepest parents up, then places from the roots down
    tree, depth, left = nodes[:count, TREE], nodes[:count, DEPTH], nodes[:count, LEFT]
    inner = left >= 0
    parents = np.flatnonzero(inner)
    parents = parents[np.argsort(depth[parents], kind="stable")]
    levels = np.split(parents, np.flatnonzero(np.diff(depth[parents])) + 1)
    sub = np.ones(count, dtype=np.int64)
    for level in reversed(levels):
        sub[level] += sub[left[level]] + sub[left[level] + 1]
    pre = np.zeros(count, dtype=np.int64)
    for level in levels:
        pre[left[level]] = pre[level] + 1
        pre[left[level] + 1] = pre[level] + 1 + sub[left[level]]
    sizes = np.bincount(tree, minlength=T)
    out = np.empty(count, dtype=np.int64)  # the nodes, tree by tree in preorder
    out[(np.cumsum(sizes) - sizes)[tree] + pre] = np.arange(count)
    inner, kids, p = inner[out], left[out], nodes[out, PLASTIC]
    trees = _forest_trees(
        np.where(inner, nodes[out, FEATURE], -1),
        np.where(inner, threshold[out], 0.0),
        np.where(inner, pre[kids], -1),
        np.where(inner, pre[kids + 1], -1),
        np.stack([p, nodes[out, SIZE] - p], 1),
        sizes.tolist(),
        in_bags,
    )
    ends = np.cumsum([hp.n_trees for _, hp in jobs]).tolist()
    return [trees[end - hp.n_trees:end] for (_, hp), end in zip(jobs, ends)]


@dataclass(eq=False)
class RFModel:
    """Trained forest.  Its OOB diagnostics, joined nodes and lookup tables are
    built when first read, the diagnostics from the training (X, y) that
    :func:`train_rf` keeps; a model loaded from disk holds its file's values."""

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
        curve, importances = _oob_scores(self, *self._training)
        if math.isnan(curve[-1]):
            warnings.warn("no sample was ever out of bag; OOB error undefined",
                          stacklevel=_outside_stacklevel())
        return float(curve[-1]), curve, importances

    @cached_property
    def _nodes(self) -> tuple:
        """The trees' nodes joined end to end: feature, threshold, the children
        as forest-wide indices, each node's plastic vote, and each tree's root."""
        feature, threshold, left, right, counts = map(np.concatenate, list(zip(*self.trees))[:5])
        sizes = [len(tree.feature) for tree in self.trees]
        root = np.cumsum(sizes) - sizes
        base = np.repeat(root, sizes)
        return feature, threshold, left + base, right + base, counts[:, 0] >= counts[:, 1], root

    @cached_property
    def _tables(self) -> list:
        """Per tree, :func:`_lookup_tables`'s ``(splits, table)`` or None."""
        return _lookup_tables(self)


def _walk(model: RFModel, X: np.ndarray, tree: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Per (tree, row) pair, whether the leaf ``X[row]`` reaches votes plastic.

    All pairs move one level per step over the joined nodes (vectorised
    traversal; Asadi, Lin & de Vries, IEEE TKDE 2014).  A row goes left where
    its value is at most the threshold, so NaN goes right."""
    feature, threshold, left, right, plastic, root = model._nodes
    node = root[tree]
    split = np.flatnonzero(feature[node] >= 0)
    while split.size:
        at = node[split]
        go_left = X[row[split], feature[at]] <= threshold[at]
        node[split] = np.where(go_left, left[at], right[at])
        split = split[feature[node[split]] >= 0]
    return plastic[node]


def _lookup_tables(model: RFModel) -> list:
    """Per tree, its QuickScorer lookup table (Lucchese et al., SIGIR 2015) as
    ``(splits, table)``, or None past :data:`_TABLE_MAX_SPLITS` splits.

    Split node k of m, in node order, sets bit m - 1 - k of a row's code when
    the row goes left, and ``splits[k]`` is its (feature, threshold);
    ``table[code]`` is the plastic vote (a uint8) of the leaf the code
    reaches.  All (tree, code) pairs of the tabled trees walk the joined
    nodes level by level, bit m - 1 - k of the code choosing the side of
    split k, in blocks of whole trees of about :data:`_TABLE_WALK_PAIRS` pairs.
    """
    feature, threshold, left, right, plastic, root = model._nodes
    inner = feature >= 0
    before = np.cumsum(inner) - inner  # the splits before each node, trees in order
    m = np.add.reduceat(inner, root, dtype=np.int64)
    bit = np.repeat(m + before[root] - 1, np.diff(root, append=len(feature))) - before
    tabled = np.flatnonzero(m <= _TABLE_MAX_SPLITS)
    n_codes = 1 << m[tabled]
    start = np.concatenate([[0], np.cumsum(n_codes)])  # each tabled tree's first pair
    votes = np.empty(start[-1], dtype=np.uint8)
    blocks = np.searchsorted(start, np.arange(0, start[-1], _TABLE_WALK_PAIRS))
    cuts = sorted(set(blocks.tolist()))
    for a, b in zip(cuts, [*cuts[1:], tabled.size]):
        node = root[np.repeat(tabled[a:b], n_codes[a:b])]
        code = np.arange(start[a], start[b]) - np.repeat(start[a:b], n_codes[a:b])
        split = np.flatnonzero(inner[node])
        while split.size:
            at = node[split]
            node[split] = np.where((code[split] >> bit[at]) & 1, left[at], right[at])
            split = split[inner[node[split]]]
        votes[start[a]:start[b]] = plastic[node]
    features, thresholds = feature[inner].tolist(), threshold[inner].tolist()
    tables = [None] * len(root)
    for t, at, k, lo, hi in zip(tabled.tolist(), before[root[tabled]].tolist(),
                                m[tabled].tolist(), start[:-1].tolist(), start[1:].tolist()):
        tables[t] = list(zip(features[at:at + k], thresholds[at:at + k])), votes[lo:hi]
    return tables


def _blocks(trees: np.ndarray, n_rows: int):
    """``trees`` cut into consecutive runs of about :data:`_WALK_PAIRS` pairs."""
    step = max(1, _WALK_PAIRS // n_rows)
    return (trees[at:at + step] for at in range(0, len(trees), step))


def _check_mtry(mtry: int, spec: FeatureSetSpec) -> None:
    if mtry > spec.n_features:
        raise ValueError(f"mtry={mtry} exceeds the {spec.n_features} features of {spec.spec_id}")


def train_rf(table: SampleTable, spec: FeatureSetSpec, hp: RFHyperParams) -> RFModel:
    """Fit a forest on ``table`` under ``spec``.

    Rows are canonically sorted before any seeded draw, so training is
    invariant to input row order.  Requires both classes present and
    ``mtry <= spec.n_features``.
    """
    _check_mtry(hp.mtry, spec)
    return _fit_rf(*_training_matrix(table, spec), spec, hp)


def _fit_rf(X, y, spec: FeatureSetSpec, hp: RFHyperParams) -> RFModel:
    """:func:`train_rf` on checked two-class features of canonically sorted rows."""
    (trees,) = _grow_forests(X, y == PLASTIC, [(np.arange(len(y)), hp)])
    model = RFModel(spec=spec, hyperparams=hp, trees=trees, n_train=len(y))
    model._training = (X, y)
    return model


def _oob_scores(model: RFModel, X, y) -> tuple[np.ndarray, np.ndarray]:
    """The OOB error curve and the permutation importances, from walks of the
    out-of-bag (tree, row) pairs, block by block in tree order.

    ``curve[t]`` is the majority-vote error (ties to plastic) over the rows
    out of bag in one of trees 0..t, NaN while there is none.  An importance
    is the mean over trees with OOB rows of the drop in a tree's OOB accuracy
    when ``seeded_rng(seed, "permutation", t, f)`` shuffles feature f."""
    n, n_features = X.shape
    votes = np.zeros((2, n), dtype=np.int32)  # running plastic and water votes
    curve, drops = [], [np.zeros((1, n_features))]  # the drops add up from 0.0
    for block in _blocks(np.arange(len(model.trees)), n):
        oob = np.ones((len(block), n), dtype=bool)
        for i, t in enumerate(block):
            oob[i, model.trees[t].in_bag] = False
        tree, row = np.nonzero(oob)  # tree-major, each tree's rows in order
        trees, pairs, X_oob = block[tree], np.arange(row.size), X[row]
        size, truth = oob.sum(axis=1), y[row] == PLASTIC
        accuracy = lambda plastic: np.bincount(tree, plastic == truth, len(block)) / size
        plastic = _walk(model, X_oob, trees, pairs)
        voted = np.zeros_like(oob)
        voted[tree, row] = plastic
        p, w = (np.cumsum(v, axis=0, dtype=np.int32) + start
                for v, start in zip((voted, oob & ~voted), votes))
        votes, seen = (p[-1].copy(), w[-1].copy()), p + w > 0
        with np.errstate(invalid="ignore"):  # 0 / 0 where no row is out of bag
            curve.append((((p >= w) != (y == PLASTIC)) & seen).sum(axis=1) / seen.sum(axis=1))
            del p, w, seen, voted  # before the importance walks
            base, drop = accuracy(plastic), np.empty((len(block), n_features))
            for f in range(n_features) if row.size else ():
                X_oob[:, f] = X_oob[np.concatenate([  # each tree's rows shuffled among themselves
                    at + seeded_rng(model.hyperparams.seed, "permutation", t, f).permutation(k)
                    for t, at, k in zip(block.tolist(), np.cumsum(size) - size, size) if k
                ]), f]
                drop[:, f] = base - accuracy(_walk(model, X_oob, trees, pairs))
                X_oob[:, f] = X[row, f]
        drops.append(drop[size > 0])
    drops = np.concatenate(drops)
    totals = np.add.accumulate(drops, axis=0)[-1]  # tree by tree
    return np.concatenate(curve), totals / max(1, len(drops) - 1)


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
    return _oob_scores(model, *feature_matrix(table, model.spec))[1]


def _settle_points(n_trees: int) -> list[int]:
    """The counts of voted trees after which :func:`predict_rf_batch` labels
    the rows whose majority is fixed: first after ``n_trees // 2 + 1`` trees,
    the fewest after which a row can have lost, then at doubling distances."""
    first = n_trees // 2 + 1
    points = [first + (1 << i) - 1 for i in range(n_trees.bit_length())]
    return [point for point in points if point < n_trees]


def predict_rf_batch(model: RFModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over trees for each row; ties go to plastic.

    A batch of fewer than :data:`_TABLE_MIN_ROWS` rows walks every tree.  A
    larger one goes through the trees' lookup tables, built on first use,
    and walks only the trees past :data:`_TABLE_MAX_SPLITS` splits, after
    them, in blocks.  A row stops voting once its label is settled (early
    exit; Cambazoglu et al., WSDM 2010): at each of :func:`_settle_points`,
    reached after a table or between walk blocks, a row with ``need = (n_trees
    + 1) // 2`` plastic votes is plastic, one that cannot reach ``need`` with
    the trees left is water, and both leave the rows, votes and feature
    columns that the later trees see.  Every label is the full vote's.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.n_features:
        raise SpecMismatchError(
            f"expected shape (n, {model.spec.n_features}) for {model.spec.spec_id}, "
            f"got {X.shape}"
        )
    if len(X) == 0:
        raise EmptyInputError("no rows to predict")
    n, n_trees = len(X), len(model.trees)
    need = (n_trees + 1) // 2  # 2 * votes >= n_trees
    plastic = np.zeros(n, dtype=bool)
    rows = np.arange(n)  # the rows still voting, with their votes and feature columns
    votes = np.zeros(n, dtype=np.min_scalar_type(n_trees))  # holds n_trees
    columns = np.ascontiguousarray(X.T)  # every split of every table reads a column
    points, voted = _settle_points(n_trees), 0

    def count(tree_votes, trees):
        """Add the plastic votes of the next ``trees`` trees; at a settle
        point, label the rows whose majority is fixed and drop them."""
        nonlocal rows, votes, columns, voted
        votes += tree_votes
        voted += trees
        if points and points[0] <= voted:
            points[:] = [point for point in points if point > voted]
            won = votes >= need
            plastic[rows[won]] = True
            still = np.flatnonzero(~won & (votes >= need - (n_trees - voted)))
            rows, votes, columns = rows[still], votes[still], columns.take(still, axis=1)

    tables, walked = [], np.arange(n_trees)
    if n >= _TABLE_MIN_ROWS:
        tables = [compiled for compiled in model._tables if compiled is not None]
        walked = np.flatnonzero([compiled is None for compiled in model._tables])
    goes_left = np.empty(n, dtype=bool)
    for splits, table in tables:
        outcome = goes_left[:rows.size]
        if splits:
            # the code is built in place: the first split writes its bit (into
            # an 8-bit code through a bool view), and each later one shifts the
            # code left (adding it to itself) and ORs in a uint8 view of its
            # outcomes, so that an 8-bit code casts nothing
            code = np.empty(rows.size, dtype=np.uint8 if len(splits) <= 8 else np.uint16)
            (f, t), *rest = splits
            np.less_equal(columns[f], t, out=code.view(bool) if code.itemsize == 1 else code)
            for f, t in rest:
                np.add(code, code, out=code)
                np.less_equal(columns[f], t, out=outcome)  # false for NaN: it goes right
                np.bitwise_or(code, outcome.view(np.uint8), out=code)
            count(np.take(table, code, mode="clip"), 1)
        else:  # a lone leaf
            count(table[0], 1)
        if not rows.size:
            break
    at = 0
    while at < walked.size and rows.size:
        k = rows.size
        trees = walked[at:at + max(1, _WALK_PAIRS // k)]
        at += trees.size
        ballots = _walk(model, columns.T, np.repeat(trees, k), np.tile(np.arange(k), trees.size))
        count(ballots.reshape(trees.size, k).sum(axis=0, dtype=votes.dtype), trees.size)
    plastic[rows[votes >= need]] = True
    return np.where(plastic, PLASTIC, WATER)


def predict_rf(model: RFModel, fv: FeatureVector) -> int:
    """Class label for one feature vector."""
    if fv.spec_id != model.spec.spec_id:
        raise SpecMismatchError(
            f"feature vector is for {fv.spec_id}, model is for {model.spec.spec_id}"
        )
    return int(predict_rf_batch(model, np.asarray(fv.values)[None, :])[0])
