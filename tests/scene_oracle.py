"""Slow reference for whole-scene labelling.

``classify_scene`` featurises and labels the scene in pixel blocks of
``experiment._BLOCK_PIXELS``, predicts through each forest tree's compiled
lookup table and evaluates the SVM kernel in row blocks.  This module labels
the same pixels by the plainest route: one feature matrix for the whole
scene, every tree's level walk with a majority vote (ties to plastic), and
one ``_rbf_matrix`` over the whole batch.  Tests require the package's labels
and decision values to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from plastiscan.classifiers.forest import RFModel
from plastiscan.classifiers.svm import _rbf_matrix
from plastiscan.raster import feature_columns
from plastiscan.spectra import PLASTIC, WATER


def rf_labels(model, X: np.ndarray) -> np.ndarray:
    """Majority of the trees' walked leaf classes; ties go to plastic."""
    votes = np.zeros(len(X), dtype=np.int64)
    for tree in model.trees:
        votes += tree._walk(X) == PLASTIC
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
