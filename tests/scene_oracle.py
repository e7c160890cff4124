"""Slow reference for whole-scene labelling.

``classify_scene`` featurises and labels the scene in pixel blocks of
``experiment._BLOCK_PIXELS``, predicts through the forest's lookup tables or
its forest-wide walk, and evaluates the SVM kernel in row blocks.  This
module labels the same pixels by the plainest route: one feature matrix for
the whole scene, a level walk of each tree on its own with a majority vote
(ties to plastic), and one ``_rbf_matrix`` over the whole batch.  Tests
require the package's labels and decision values to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from plastiscan.classifiers.forest import RFModel
from plastiscan.classifiers.svm import _rbf_matrix
from plastiscan.raster import feature_columns
from plastiscan.spectra import PLASTIC, WATER


def tree_classes(tree, X: np.ndarray) -> np.ndarray:
    """The class of the leaf each row of ``X`` reaches in one tree: all rows
    move one level per step; a row goes left where its value is at most the
    threshold, so NaN goes right.  A leaf's class is its majority, ties to
    plastic."""
    feature, threshold = np.asarray(tree.feature), np.asarray(tree.threshold)
    left, right, counts = np.asarray(tree.left), np.asarray(tree.right), np.asarray(tree.counts)
    cur = np.zeros(len(X), dtype=np.int64)
    while True:
        active = np.nonzero(feature[cur] >= 0)[0]
        if active.size == 0:
            break
        node = cur[active]
        go_left = X[active, feature[node]] <= threshold[node]
        cur[active] = np.where(go_left, left[node], right[node])
    return np.where(counts[cur, 0] >= counts[cur, 1], PLASTIC, WATER)


def rf_labels(model, X: np.ndarray) -> np.ndarray:
    """Majority of the trees' walked leaf classes; ties go to plastic."""
    votes = np.zeros(len(X), dtype=np.int64)
    for tree in model.trees:
        votes += tree_classes(tree, X) == PLASTIC
    return np.where(2 * votes >= len(model.trees), PLASTIC, WATER)


def svm_decision(model, X: np.ndarray) -> np.ndarray:
    """f(x) for every row from one kernel matrix over the whole batch."""
    K = _rbf_matrix(model.scaler.transform(X), model.support_vectors,
                    model.hyperparams.sigma)
    return K @ model.dual_coefs + model.bias


def classify_scene(stack, model) -> np.ndarray:
    """(height, width) uint8 labels; 0 where a feature is not finite."""
    X = feature_columns({b: g.values.reshape(-1) for b, g in stack.grids.items()}, model.spec)
    valid = np.all(np.isfinite(X), axis=1)
    labels = np.zeros(len(X), dtype=np.uint8)
    if isinstance(model, RFModel):
        labels[valid] = rf_labels(model, X[valid])
    else:
        labels[valid] = np.where(svm_decision(model, X[valid]) >= 0.0, PLASTIC, WATER)
    return labels.reshape(stack.height, stack.width)
