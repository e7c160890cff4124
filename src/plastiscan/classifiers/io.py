"""JSON persistence for trained models.

Floats serialise through Python's shortest round-trip repr, so a saved model
predicts bit-for-bit identically after loading.  A forest's file holds its
OOB error, curve and importances but not the bootstrap records or training
matrix, so ``rf_permutation_importance`` needs the freshly trained model.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import CorruptModelError, ModelSchemaError
from ..spectra import FeatureSetSpec, MODEL_SPECS
from .forest import RFHyperParams, RFModel, _Nodes, _Tree
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


def _read_tree(nodes: _Nodes, node, parent: int = -1, is_left: bool = True) -> tuple[int, int]:
    """Append ``node`` and its subtree to ``nodes`` in preorder; returns its counts."""
    if isinstance(node, list):
        if (
            len(node) != 2
            or not all(type(c) is int and c >= 0 for c in node)  # bools are not counts
            or sum(node) == 0
        ):
            raise CorruptModelError(f"leaf counts must be two non-negative ints, got {node!r}")
        nodes.alloc((node[0], node[1]), parent, is_left)
        return node[0], node[1]
    if not isinstance(node, dict) or set(node) != {"f", "t", "l", "r"}:
        raise CorruptModelError(f"tree node must be a leaf pair or {{f,t,l,r}}, got {node!r}")
    f, t = node["f"], node["t"]
    if type(f) is not int or f < 0:
        raise CorruptModelError(f"split feature must be a non-negative int, got {f!r}")
    if not _is_number(t) or not math.isfinite(t):
        raise CorruptModelError(f"split threshold must be a finite number, got {t!r}")
    idx = nodes.alloc((0, 0), parent, is_left)
    nodes.feature[idx] = f
    nodes.threshold[idx] = float(t)
    left = _read_tree(nodes, node["l"], idx, True)
    right = _read_tree(nodes, node["r"], idx, False)
    # internal counts are the children's sums (informational only)
    nodes.counts[idx] = (left[0] + right[0], left[1] + right[1])
    return nodes.counts[idx]


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


def load_model(path: str | Path, expect_algo: str | None = None) -> RFModel | SVMModel:
    """Read a model written by :func:`save_model`.

    ``expect_algo`` ("rf" or "svm") makes a mismatched file a schema error.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelSchemaError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CorruptModelError("model file nests too deeply to read") from exc
    algo = _check_version_and_algo(doc, expect_algo)
    spec = _spec_from_json(doc.get("feature_spec"))
    hp_doc = doc.get("hyperparams")
    if not isinstance(hp_doc, dict):
        raise CorruptModelError("hyperparams must be an object")
    n_train = doc.get("n_train")
    if type(n_train) is not int or n_train < 0:
        raise CorruptModelError("n_train must be a non-negative int")

    try:
        if algo == "rf":
            hp = RFHyperParams(**hp_doc)
        else:
            hp = SVMHyperParams(**hp_doc)
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
        trees = []
        for node in trees_doc:
            nodes = _Nodes()
            try:
                _read_tree(nodes, node)
            except RecursionError as exc:  # json.loads may nest deeper than this walk can
                raise CorruptModelError("tree nests too deeply to read") from exc
            tree = nodes.finish(None)
            if (tree.feature >= spec.n_features).any():
                raise CorruptModelError("tree splits on a feature outside the spec")
            trees.append(tree)
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
