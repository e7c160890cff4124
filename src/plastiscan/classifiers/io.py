"""JSON persistence for trained models.

Floats serialise through Python's shortest round-trip repr, so a saved model
predicts bit-for-bit identically after loading.  A forest's file holds its
OOB error, curve and importances but not the bootstrap records or training
matrix, so ``rf_permutation_importance`` needs the freshly trained model.

Loading a forest reads its trees in one preorder pass onto forest-level node
lists; ``forest._forest_trees`` cuts each tree's arrays from them, as it does
for trained trees, so a tree read back from its file equals the grown one,
field by field.  As for a trained forest, the nodes are joined for the
forest-wide walk, and lookup tables compiled, only when a prediction needs them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import CorruptModelError, ModelSchemaError, _names_file, _read_json
from ..spectra import FeatureSetSpec, MODEL_SPECS
from .forest import RFHyperParams, RFModel, _Tree, _forest_trees
from .svm import Scaler, SVMHyperParams, SVMModel

__all__ = ["SCHEMA_VERSION", "save_model", "load_model"]

SCHEMA_VERSION = 1


def _is_number(value) -> bool:
    """A JSON number that converts to float64 (NaN and infinities included)."""
    if isinstance(value, float):
        return True
    return type(value) is int and abs(value) <= sys.float_info.max


def _numbers(doc, key: str) -> np.ndarray:
    values = doc.get(key, [])
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise CorruptModelError(f"{key} must be a list of numbers")
    return np.asarray(values, dtype=np.float64)


def _tree_to_json(tree: _Tree, node: int = 0):
    if tree.feature[node] < 0:
        counts = tree.counts[node]
        return [int(counts[0]), int(counts[1])]
    return {
        "f": int(tree.feature[node]),
        "t": float(tree.threshold[node]),
        "l": _tree_to_json(tree, int(tree.left[node])),
        "r": _tree_to_json(tree, int(tree.right[node])),
    }


_SPLIT_KEYS = frozenset(("f", "t", "l", "r"))


def _read_forest(trees_doc: list, n_features: int) -> list[_Tree]:
    """The trees of ``trees_doc``, read in one preorder pass over all of them.

    Every node goes onto forest-level lists: a leaf with its counts, a split
    with zero counts and its right child as a forest-wide index, known once
    the walk reaches it (the left child is the next node).  Nodes are checked
    in file order, and a tree's split features against the spec once all its
    nodes have passed.
    """
    feature: list[int] = []
    threshold: list[float] = []
    right: list[int] = []
    counts: list[int] = []  # two per node
    sizes: list[int] = []
    for t, root in enumerate(trees_doc):
        start = len(feature)
        outside = None  # the first split feature past the spec
        stack = [(root, -1)]  # (node, the split it is the right child of)
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                right[parent] = len(feature)
            if isinstance(node, list):
                if not (
                    len(node) == 2
                    and type(node[0]) is int and type(node[1]) is int  # bools are not counts
                    and node[0] >= 0 and node[1] >= 0 and node[0] + node[1] > 0
                ):
                    raise CorruptModelError(
                        f"tree {t}: leaf counts must be two non-negative ints, got {node!r}")
                feature.append(-1)
                threshold.append(0.0)
                right.append(-1)
                counts += node
                continue
            if not isinstance(node, dict) or node.keys() != _SPLIT_KEYS:
                raise CorruptModelError(
                    f"tree {t}: tree node must be a leaf pair or {{f,t,l,r}}, got {node!r}")
            f, thr = node["f"], node["t"]
            if type(f) is not int or f < 0:
                raise CorruptModelError(
                    f"tree {t}: split feature must be a non-negative int, got {f!r}")
            if not _is_number(thr) or not math.isfinite(thr):
                raise CorruptModelError(
                    f"tree {t}: split threshold must be a finite number, got {thr!r}")
            if f >= n_features and outside is None:
                outside = f
            stack.append((node["r"], len(feature)))
            stack.append((node["l"], -1))
            feature.append(f)
            threshold.append(float(thr))
            right.append(-1)
            counts += (0, 0)
        if outside is not None:
            raise CorruptModelError(
                f"tree {t}: split feature {outside} is outside the spec's {n_features} features")
        sizes.append(len(feature) - start)

    feature = np.array(feature, dtype=np.int64)
    right = np.array(right, dtype=np.int64)
    is_split = feature >= 0
    base = np.repeat(np.cumsum(sizes) - sizes, sizes)  # each node's tree's first node
    index = np.arange(feature.size)
    # A split's counts are its subtree's leaf sums (informational only).  In
    # preorder the subtree is the run of nodes up to its last leaf, which
    # following right children reaches; pointer doubling follows them all.
    last = np.where(is_split, right, index)
    while not np.array_equal(jumped := last[last], last):
        last = jumped
    cum = np.zeros((feature.size + 1, 2), dtype=np.int64)
    np.cumsum(np.array(counts, dtype=np.int64).reshape(-1, 2), axis=0, out=cum[1:])
    return _forest_trees(
        feature, threshold,
        np.where(is_split, index - base + 1, -1), np.where(is_split, right - base, -1),
        cum[last + 1] - cum[index], sizes, [None] * len(sizes),
    )


def _spec_to_json(spec: FeatureSetSpec) -> dict:
    return {"spec_id": spec.spec_id, "members": list(spec.members)}


def _spec_from_json(doc) -> FeatureSetSpec:
    if not isinstance(doc, dict) or "spec_id" not in doc or "members" not in doc:
        raise CorruptModelError("feature_spec must carry spec_id and members")
    spec_id, members = doc["spec_id"], doc["members"]
    if not (
        isinstance(spec_id, str)
        and isinstance(members, list)
        and all(isinstance(m, str) for m in members)
    ):
        raise CorruptModelError("feature_spec needs a string spec_id and a list of names")
    known = MODEL_SPECS.get(spec_id)
    try:
        spec = FeatureSetSpec(spec_id, tuple(members))
    except ValueError as exc:  # empty or repeated members
        raise CorruptModelError(f"bad feature_spec: {exc}") from exc
    if known is not None and known.members != spec.members:
        raise CorruptModelError(
            f"feature_spec {spec.spec_id} members {spec.members} do not match "
            f"the registry definition {known.members}"
        )
    return spec


def save_model(model: RFModel | SVMModel, path: str | Path) -> None:
    """Write a model as a schema-versioned JSON document."""
    if not isinstance(model, (RFModel, SVMModel)):
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "feature_spec": _spec_to_json(model.spec),
        "hyperparams": asdict(model.hyperparams),
        "n_train": model.n_train,
    }
    if isinstance(model, RFModel):
        doc["algo"] = "rf"
        doc["n_trees"] = len(model.trees)
        doc["trees"] = [_tree_to_json(tree) for tree in model.trees]
        doc["oob_error"] = model.oob_error
        doc["oob_curve"] = [float(v) for v in model.oob_curve]
        doc["importances"] = [float(v) for v in model.importances]
    else:
        doc["algo"] = "svm"
        doc["n_support"] = model.n_support
        doc["support_vectors"] = [[float(v) for v in row] for row in model.support_vectors]
        doc["dual_coefs"] = [float(v) for v in model.dual_coefs]
        doc["bias"] = float(model.bias)
        doc["scaler"] = {
            "mean": [float(v) for v in model.scaler.mean],
            "sd": [float(v) for v in model.scaler.sd],
            "kept": [bool(v) for v in model.scaler.kept],
        }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _check_version_and_algo(doc, expect_algo):
    if not isinstance(doc, dict):
        raise ModelSchemaError("model file must hold a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelSchemaError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )
    algo = doc.get("algo")
    if algo not in ("rf", "svm"):
        raise ModelSchemaError(f"unknown algo tag {algo!r}")
    if expect_algo is not None and algo != expect_algo:
        raise ModelSchemaError(f"expected a {expect_algo} model, file holds {algo}")
    return algo


@_names_file
def load_model(path: str | Path, expect_algo: str | None = None) -> RFModel | SVMModel:
    """Read a model written by :func:`save_model`.

    ``expect_algo`` ("rf" or "svm") makes a mismatched file a schema error.
    """
    doc = _read_json(path, "model file", ModelSchemaError, CorruptModelError)
    algo = _check_version_and_algo(doc, expect_algo)
    spec = _spec_from_json(doc.get("feature_spec"))
    hp_doc = doc.get("hyperparams")
    if not isinstance(hp_doc, dict):
        raise CorruptModelError("hyperparams must be an object")
    n_train = doc.get("n_train")
    if type(n_train) is not int or n_train < 0:
        raise CorruptModelError("n_train must be a non-negative int")

    try:
        hp = (RFHyperParams if algo == "rf" else SVMHyperParams)(**hp_doc)
    except (TypeError, ValueError) as exc:
        raise CorruptModelError(f"bad hyperparams: {exc}") from exc

    if algo == "rf":
        trees_doc = doc.get("trees")
        if not isinstance(trees_doc, list) or not trees_doc:
            raise CorruptModelError("rf model needs a non-empty 'trees' list")
        if doc.get("n_trees") != len(trees_doc):
            raise CorruptModelError(
                f"tree count field says {doc.get('n_trees')!r} but {len(trees_doc)} "
                "trees are present"
            )
        if hp.n_trees != len(trees_doc):
            raise CorruptModelError(
                f"hyperparams say {hp.n_trees} trees but {len(trees_doc)} are present"
            )
        trees = _read_forest(trees_doc, spec.n_features)
        curve = _numbers(doc, "oob_curve")
        if curve.size != len(trees):
            raise CorruptModelError("oob_curve length must equal the tree count")
        importances = _numbers(doc, "importances")
        if importances.size != spec.n_features:
            raise CorruptModelError("importances length must equal the feature count")
        oob_error = doc.get("oob_error", float("nan"))
        if not _is_number(oob_error):
            raise CorruptModelError(f"oob_error must be a number, got {oob_error!r}")
        model = RFModel(spec=spec, hyperparams=hp, trees=trees, n_train=n_train)
        model._diagnostics = (float(oob_error), curve, importances)  # fills the cache
        return model

    sv = doc.get("support_vectors")
    coefs = doc.get("dual_coefs")
    scaler_doc = doc.get("scaler")
    if not isinstance(sv, list) or not sv or not isinstance(coefs, list):
        raise CorruptModelError("svm model needs support_vectors and dual_coefs")
    if doc.get("n_support") != len(sv) or len(coefs) != len(sv):
        raise CorruptModelError(
            f"support vector count mismatch: n_support={doc.get('n_support')!r}, "
            f"{len(sv)} vectors, {len(coefs)} dual coefficients"
        )
    if not isinstance(scaler_doc, dict):
        raise CorruptModelError("svm model needs a scaler object")
    mean = _numbers(scaler_doc, "mean")
    sd = _numbers(scaler_doc, "sd")
    kept = scaler_doc.get("kept", [])
    if not isinstance(kept, list) or not all(isinstance(k, bool) for k in kept):
        raise CorruptModelError("kept must be a list of booleans")
    kept = np.asarray(kept, dtype=bool)
    if not (mean.size == sd.size == kept.size == spec.n_features):
        raise CorruptModelError("scaler arrays must match the feature count")
    width = int(kept.sum())
    if not all(
        isinstance(row, list) and len(row) == width and all(_is_number(v) for v in row)
        for row in sv
    ):
        raise CorruptModelError(
            f"support vectors must be lists of {width} numbers (the kept feature width)"
        )
    bias = doc.get("bias")
    if not _is_number(bias):
        raise CorruptModelError("bias must be a number")
    return SVMModel(
        spec=spec,
        hyperparams=hp,
        scaler=Scaler(mean=mean, sd=sd, kept=kept),
        support_vectors=np.asarray(sv, dtype=np.float64),
        dual_coefs=_numbers(doc, "dual_coefs"),
        bias=float(bias),
        n_train=n_train,
    )
