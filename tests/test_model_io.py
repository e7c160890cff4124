"""Model persistence: bit-exact round trips and schema/corruption errors."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from plastiscan import (
    PatchSpec,
    RFHyperParams,
    SynthConfig,
    classify_scene,
    gen_dataset,
    gen_scene,
    load_model,
    predict_rf_batch,
    predict_svm_batch,
    save_model,
    train_rf,
)
from plastiscan import cli
from plastiscan.classifiers import forest
from plastiscan.classifiers import io as model_io
from plastiscan.classifiers.io import SCHEMA_VERSION
from plastiscan.classifiers.svm import decision_function
from plastiscan.errors import CorruptModelError, ModelSchemaError, TreeTooDeepError
from plastiscan.spectra import MODEL_SPECS, FeatureVector


def probe_matrix(model, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 1.0, size=(n, model.spec.n_features))


def tampered(tmp_path, model, mutate, name="tampered.json"):
    source = tmp_path / "source.json"
    save_model(model, source)
    doc = json.loads(source.read_text())
    mutate(doc)
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return target


class TestRoundTrip:
    def test_rf_predictions_bitwise_identical(self, rf_small, tmp_path):
        path = tmp_path / "rf.json"
        save_model(rf_small, path)
        loaded = load_model(path, expect_algo="rf")
        X = probe_matrix(rf_small)
        np.testing.assert_array_equal(
            predict_rf_batch(rf_small, X), predict_rf_batch(loaded, X)
        )

    @pytest.mark.parametrize(
        "hp",
        [
            RFHyperParams.final_profile(3, seed=0),
            RFHyperParams.matrix_profile(mtry=1, seed=0, n_trees=10),
        ],
        ids=["final_profile", "unbounded"],
    )
    def test_rf_programs_and_walk_survive_round_trip(self, default_pool, tmp_path, hp):
        model = train_rf(default_pool, MODEL_SPECS["Model5"], hp)
        path = tmp_path / "rf.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded._programs == model._programs
        X = probe_matrix(model)
        for rows in (len(X), forest._PROGRAM_MIN_ROWS - 1):  # the programs, then the walk
            np.testing.assert_array_equal(predict_rf_batch(model, X[:rows]),
                                          predict_rf_batch(loaded, X[:rows]))

    def test_rf_metadata_preserved(self, rf_small, tmp_path):
        path = tmp_path / "rf.json"
        save_model(rf_small, path)
        loaded = load_model(path)
        assert loaded.spec == rf_small.spec
        assert loaded.hyperparams == rf_small.hyperparams
        assert loaded.n_train == rf_small.n_train
        assert loaded.oob_error == rf_small.oob_error
        np.testing.assert_array_equal(loaded.oob_curve, rf_small.oob_curve)
        np.testing.assert_array_equal(loaded.importances, rf_small.importances)

    def test_rf_bootstrap_records_not_persisted(self, rf_small, tmp_path):
        path = tmp_path / "rf.json"
        save_model(rf_small, path)
        assert not load_model(path).has_oob_records

    def test_svm_predictions_bitwise_identical(self, svm_small, tmp_path):
        path = tmp_path / "svm.json"
        save_model(svm_small, path)
        loaded = load_model(path, expect_algo="svm")
        X = probe_matrix(svm_small)
        np.testing.assert_array_equal(
            predict_svm_batch(svm_small, X), predict_svm_batch(loaded, X)
        )

    def test_svm_decision_values_bitwise_identical(self, svm_small, tmp_path):
        path = tmp_path / "svm.json"
        save_model(svm_small, path)
        loaded = load_model(path)
        spec_id = svm_small.spec.spec_id
        for row in probe_matrix(svm_small, n=50, seed=1):
            fv = FeatureVector(spec_id, tuple(row))
            assert decision_function(loaded, fv) == decision_function(svm_small, fv)

    def test_svm_arrays_preserved_exactly(self, svm_small, tmp_path):
        path = tmp_path / "svm.json"
        save_model(svm_small, path)
        loaded = load_model(path)
        assert loaded.bias == svm_small.bias
        np.testing.assert_array_equal(loaded.dual_coefs, svm_small.dual_coefs)
        np.testing.assert_array_equal(
            loaded.support_vectors, svm_small.support_vectors)
        np.testing.assert_array_equal(loaded.scaler.mean, svm_small.scaler.mean)
        np.testing.assert_array_equal(loaded.scaler.sd, svm_small.scaler.sd)
        np.testing.assert_array_equal(loaded.scaler.kept, svm_small.scaler.kept)

    def test_save_is_deterministic(self, rf_small, svm_small, tmp_path):
        for model, stem in ((rf_small, "rf"), (svm_small, "svm")):
            a, b = tmp_path / f"{stem}_a.json", tmp_path / f"{stem}_b.json"
            save_model(model, a)
            save_model(model, b)
            assert a.read_bytes() == b.read_bytes()

    def test_second_generation_round_trip_identical_bytes(self, svm_small, tmp_path):
        first = tmp_path / "gen1.json"
        second = tmp_path / "gen2.json"
        save_model(svm_small, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "x.json")


@pytest.fixture(scope="module")
def paper_pool():
    """The paper's 54 + 270 pool size: deep enough that unbounded trees on
    every feature set keep more than 12 splits in their vote programs."""
    return gen_dataset(SynthConfig(n_plastic=54, n_water=270, seed=7))


@pytest.fixture(scope="module")
def scene():
    patches = (PatchSpec(2, 3, 6, 8, 0.6), PatchSpec(12, 10, 5, 5, 0.3))
    stack, _ = gen_scene(SynthConfig(n_plastic=0, n_water=0, seed=3), 24, 20, patches)
    return stack


TREE_FIELDS = ("feature", "threshold", "left", "right", "counts")


def chain_tree(depth: int) -> forest._Tree:
    """A tree of ``depth`` splits in one chain: split k sends the rows at most
    its threshold left, to a leaf voting k % 2, and the rest right, to split
    k + 1."""
    n = 2 * depth + 1
    split = np.arange(n) % 2 == 0
    split[-1] = False
    nodes = np.arange(n)
    plastic = np.where(nodes == n - 1, depth % 2, (nodes // 2) % 2)  # leaf 2k + 1 votes k % 2
    return forest._Tree(
        feature=np.where(split, 0, -1),
        threshold=np.where(split, np.linspace(-1.0, 1.0, n), 0.0),
        left=np.where(split, nodes + 1, -1),
        right=np.where(split, nodes + 2, -1),
        counts=np.where(split[:, None], 0, np.stack([plastic, 1 - plastic], axis=1)),
        in_bag=None,
    )


def forest_of(trees) -> forest.RFModel:
    """A Model4 forest of ``trees``, with the diagnostics a file would hold."""
    model = forest.RFModel(spec=MODEL_SPECS["Model4"],
                           hyperparams=RFHyperParams(n_trees=len(trees), mtry=1, seed=0),
                           trees=trees, n_train=0)
    model._diagnostics = (0.5, np.full(len(trees), 0.5), np.zeros(3))
    return model


class TestTreeDepthLimit:
    """``json`` nests a saved tree one level per split, so a model file holds
    trees of at most ``_MAX_TREE_DEPTH`` splits on a path; a deeper one is a
    ``DataError`` raised before anything is written."""

    def test_deepest_tree_round_trips(self, tmp_path):
        model = forest_of([chain_tree(1), chain_tree(model_io._MAX_TREE_DEPTH)])
        path = tmp_path / "deep.json"
        save_model(model, path)
        loaded = load_model(path, expect_algo="rf")
        X = np.random.default_rng(3).uniform(-1.2, 1.2, size=(600, 3))
        np.testing.assert_array_equal(predict_rf_batch(loaded, X), predict_rf_batch(model, X))
        for tree, back in zip(model.trees, loaded.trees):
            for name in ("feature", "threshold", "left", "right"):
                np.testing.assert_array_equal(getattr(back, name), getattr(tree, name))
            leaves = tree.feature < 0  # a loaded split holds its subtree's leaf sums
            np.testing.assert_array_equal(back.counts[leaves], tree.counts[leaves])

    @pytest.mark.parametrize("depth", [model_io._MAX_TREE_DEPTH + 1, 3000])
    def test_deeper_tree_raises_and_writes_nothing(self, tmp_path, depth):
        model = forest_of([chain_tree(2), chain_tree(depth), chain_tree(1)])
        path = tmp_path / "deep.json"
        with pytest.raises(TreeTooDeepError, match=f"tree 1 is {depth} splits deep"):
            save_model(model, path)
        assert not path.exists()

    def test_cli_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "train_rf", lambda *args: forest_of([chain_tree(3000)]))
        pool, out = tmp_path / "pool.csv", tmp_path / "rf.json"
        assert cli.main(["synth-data", "--out", str(pool), "--n-plastic", "12",
                         "--n-water", "64", "--seed", "0"]) == 0
        assert cli.main(["train", "--samples", str(pool), "--model", "Model4", "--algo", "rf",
                         "--out", str(out)]) == 2
        assert "tree 0 is 3000 splits deep" in capsys.readouterr().err
        assert not out.exists()


class TestLoadedTreesEqualTrained:
    @pytest.mark.parametrize("spec_id", sorted(MODEL_SPECS))
    @pytest.mark.parametrize("profile", ["final_profile", "unbounded"])
    def test_every_field_and_label_map(self, paper_pool, scene, tmp_path, spec_id, profile):
        spec = MODEL_SPECS[spec_id]
        hp = (RFHyperParams.final_profile(spec.n_features, seed=1) if profile == "final_profile"
              else RFHyperParams.matrix_profile(mtry=1, seed=1, n_trees=40))
        model = train_rf(paper_pool, spec, hp)
        path = tmp_path / "rf.json"
        save_model(model, path)
        loaded = load_model(path)
        programs, _ = model._programs
        deep = [type(program) is list and len(program) > 12 for program in programs]
        assert any(deep) == (profile == "unbounded")
        for tree, back in zip(model.trees, loaded.trees, strict=True):
            for name in TREE_FIELDS:
                got, want = getattr(back, name), getattr(tree, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for got, want in zip(loaded._nodes, model._nodes, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert loaded._programs == model._programs
        labels = classify_scene(scene, loaded).labels
        assert labels.tobytes() == classify_scene(scene, model).labels.tobytes()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


class TestSchemaErrors:
    def test_expect_algo_mismatch(self, rf_small, svm_small, tmp_path):
        rf_path, svm_path = tmp_path / "rf.json", tmp_path / "svm.json"
        save_model(rf_small, rf_path)
        save_model(svm_small, svm_path)
        with pytest.raises(ModelSchemaError, match="expected a svm model"):
            load_model(rf_path, expect_algo="svm")
        with pytest.raises(ModelSchemaError, match="expected a rf model"):
            load_model(svm_path, expect_algo="rf")

    def test_unsupported_schema_version(self, rf_small, tmp_path):
        path = tampered(tmp_path, rf_small,
                        lambda d: d.update(schema_version=SCHEMA_VERSION + 1))
        with pytest.raises(ModelSchemaError, match="schema_version"):
            load_model(path)

    def test_unknown_algo_tag(self, rf_small, tmp_path):
        path = tampered(tmp_path, rf_small, lambda d: d.update(algo="boost"))
        with pytest.raises(ModelSchemaError, match="algo"):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelSchemaError, match="not valid JSON"):
            load_model(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(bytes([0x80, 0xDE, 0xAD, 0xBE, 0xEF]))
        with pytest.raises(ModelSchemaError, match="not valid JSON"):
            load_model(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelSchemaError, match="JSON object"):
            load_model(path)


class TestCorruptionErrors:
    def test_tree_count_field_mismatch(self, rf_small, tmp_path):
        path = tampered(tmp_path, rf_small,
                        lambda d: d.update(n_trees=d["n_trees"] + 1))
        with pytest.raises(CorruptModelError, match="tree count"):
            load_model(path)

    def test_hyperparam_tree_count_mismatch(self, rf_small, tmp_path):
        def cut_one(d):
            d["trees"] = d["trees"][:-1]
            d["n_trees"] -= 1
            d["oob_curve"] = d["oob_curve"][:-1]

        path = tampered(tmp_path, rf_small, cut_one)
        with pytest.raises(CorruptModelError, match="hyperparams say"):
            load_model(path)

    @pytest.mark.parametrize(
        "bad_leaf", [[1], [1, 2, 3], [-1, 2], [0, 0], [1.5, 2], [True, 2], "leaf"]
    )
    def test_corrupt_leaf(self, rf_small, tmp_path, bad_leaf):
        def smash(d):
            d["trees"][0] = bad_leaf

        path = tampered(tmp_path, rf_small, smash)
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_split_node_with_wrong_keys(self, rf_small, tmp_path):
        path = tampered(
            tmp_path, rf_small,
            lambda d: d["trees"].__setitem__(0, {"feat": 0, "thresh": 0.1}))
        with pytest.raises(CorruptModelError, match="tree node"):
            load_model(path)

    def test_split_feature_outside_spec(self, rf_small, tmp_path):
        width = rf_small.spec.n_features
        path = tampered(
            tmp_path, rf_small,
            lambda d: d["trees"].__setitem__(
                0, {"f": width, "t": 0.5, "l": [1, 0], "r": [0, 1]}))
        with pytest.raises(CorruptModelError, match="outside the spec"):
            load_model(path)

    @pytest.mark.parametrize(
        "bad", [None, [1], "abc", float("inf"), float("nan"), True, 10**400]
    )
    def test_split_threshold_must_be_finite_number(self, rf_small, tmp_path, bad):
        path = tampered(
            tmp_path, rf_small,
            lambda d: d["trees"].__setitem__(0, {"f": 0, "t": bad, "l": [1, 0], "r": [0, 1]}))
        with pytest.raises(CorruptModelError, match="split threshold"):
            load_model(path)

    def test_boolean_split_feature(self, rf_small, tmp_path):
        path = tampered(
            tmp_path, rf_small,
            lambda d: d["trees"].__setitem__(0, {"f": True, "t": 0.5, "l": [1, 0], "r": [0, 1]}))
        with pytest.raises(CorruptModelError, match="split feature"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, bad", [("oob_curve", "0.1"), ("importances", None), ("oob_error", None)]
    )
    def test_non_numeric_oob_fields(self, rf_small, tmp_path, key, bad):
        def smash(d):
            d[key] = [bad] * len(d[key]) if isinstance(d[key], list) else bad

        path = tampered(tmp_path, rf_small, smash)
        with pytest.raises(CorruptModelError, match=key):
            load_model(path)

    @pytest.mark.parametrize("bad, match", [
        ([2, -1], "leaf counts"),
        ({"f": 0, "t": 0.5}, "tree node"),
        ({"f": -1, "t": 0.5, "l": [1, 0], "r": [0, 1]}, "split feature"),
        ({"f": 0, "t": "x", "l": [1, 0], "r": [0, 1]}, "split threshold"),
        ({"f": 6, "t": 0.5, "l": [1, 0], "r": [0, 1]},
         "split feature 6 is outside the spec's 6 features"),
    ], ids=["leaf", "node", "feature", "threshold", "outside"])
    def test_tree_errors_name_the_tree(self, rf_small, tmp_path, bad, match):
        def smash(d):
            d["trees"][3] = {"f": 1, "t": 0.25, "l": [3, 1], "r": {"f": 0, "t": 0.5,
                                                                 "l": bad, "r": [0, 2]}}

        assert rf_small.spec.n_features == 6
        path = tampered(tmp_path, rf_small, smash)
        with pytest.raises(CorruptModelError, match=rf"^tampered\.json: tree 3: .*{match}"):
            load_model(path)

    def test_tree_errors_come_in_file_order(self, rf_small, tmp_path):
        def smash(d):
            d["trees"][1] = {"f": 9, "t": 0.5, "l": [1, 0], "r": [0, 1]}
            d["trees"][2] = [0, 0]

        path = tampered(tmp_path, rf_small, smash)
        with pytest.raises(CorruptModelError,
                           match=r"^tampered\.json: tree 1: split feature 9 is outside"):
            load_model(path)

        def smash_later_node(d):
            d["trees"][1] = {"f": 9, "t": 0.5, "l": [1, 0], "r": [0, 0]}

        path = tampered(tmp_path, rf_small, smash_later_node)
        with pytest.raises(CorruptModelError, match=r"^tampered\.json: tree 1: leaf counts"):
            load_model(path)

    def test_tree_nested_too_deeply(self, rf_small, tmp_path):
        depth = 3000
        deep = '{"f": 0, "t": 0.5, "l": ' * depth + "[1, 0]" + ', "r": [0, 1]}' * depth
        path = tampered(tmp_path, rf_small, lambda d: d["trees"].__setitem__(0, "DEEP"))
        path.write_text(path.read_text().replace('"DEEP"', deep))
        with pytest.raises(CorruptModelError, match="nests too deeply"):
            load_model(path)

    def test_oob_curve_length_mismatch(self, rf_small, tmp_path):
        path = tampered(tmp_path, rf_small,
                        lambda d: d.update(oob_curve=d["oob_curve"][:-1]))
        with pytest.raises(CorruptModelError, match="oob_curve"):
            load_model(path)

    def test_importances_length_mismatch(self, rf_small, tmp_path):
        path = tampered(tmp_path, rf_small,
                        lambda d: d.update(importances=d["importances"] + [0.0]))
        with pytest.raises(CorruptModelError, match="importances"):
            load_model(path)

    def test_registry_spec_with_wrong_members(self, rf_small, tmp_path):
        path = tampered(
            tmp_path, rf_small,
            lambda d: d["feature_spec"].__setitem__("members", ["NDVI"]))
        with pytest.raises(CorruptModelError, match="registry"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, bad", [("members", 5), ("members", None), ("members", [["B6"]]),
                       ("members", []), ("spec_id", ["Model2"])]
    )
    def test_malformed_feature_spec(self, rf_small, tmp_path, field, bad):
        path = tampered(tmp_path, rf_small, lambda d: d["feature_spec"].__setitem__(field, bad))
        with pytest.raises(CorruptModelError, match="feature_spec"):
            load_model(path)

    def test_bad_hyperparams(self, svm_small, tmp_path):
        path = tampered(tmp_path, svm_small,
                        lambda d: d["hyperparams"].update(C=-1.0))
        with pytest.raises(CorruptModelError, match="hyperparams"):
            load_model(path)

    @pytest.mark.parametrize("field, bad", [
        ("mtry", 1.5), ("max_depth", True), ("min_samples_leaf", 2.5),
    ])
    def test_rf_hyperparams_must_be_ints(self, rf_small, tmp_path, field, bad):
        path = tampered(tmp_path, rf_small, lambda d: d["hyperparams"].update({field: bad}))
        with pytest.raises(CorruptModelError, match=f"bad hyperparams: {field} must be an int"):
            load_model(path)

    @pytest.mark.parametrize("field, bad, kind", [
        ("max_passes", True, "an int"), ("seed", 2.5, "an int"), ("C", True, "a number"),
        ("sigma", math.nan, "finite and positive"), ("C", math.inf, "finite and positive"),
        ("tolerance", -math.inf, "finite and positive"),
    ])
    def test_svm_hyperparams_must_be_typed(self, svm_small, tmp_path, field, bad, kind):
        path = tampered(tmp_path, svm_small, lambda d: d["hyperparams"].update({field: bad}))
        with pytest.raises(CorruptModelError, match=f"bad hyperparams: {field} must be {kind}"):
            load_model(path)

    def test_missing_n_train(self, rf_small, tmp_path):
        path = tampered(tmp_path, rf_small, lambda d: d.pop("n_train"))
        with pytest.raises(CorruptModelError, match="n_train"):
            load_model(path)
        path = tampered(tmp_path, rf_small, lambda d: d.update(n_train=True))
        with pytest.raises(CorruptModelError, match="n_train"):
            load_model(path)

    def test_support_count_mismatch(self, svm_small, tmp_path):
        path = tampered(tmp_path, svm_small,
                        lambda d: d.update(n_support=d["n_support"] + 1))
        with pytest.raises(CorruptModelError, match="support vector count"):
            load_model(path)

    def test_dual_coef_length_mismatch(self, svm_small, tmp_path):
        path = tampered(tmp_path, svm_small,
                        lambda d: d.update(dual_coefs=d["dual_coefs"] + [0.1]))
        with pytest.raises(CorruptModelError, match="support vector count"):
            load_model(path)

    def test_scaler_arrays_wrong_size(self, svm_small, tmp_path):
        path = tampered(tmp_path, svm_small,
                        lambda d: d["scaler"].update(mean=[0.0]))
        with pytest.raises(CorruptModelError, match="scaler"):
            load_model(path)

    def test_support_width_vs_kept_mismatch(self, svm_small, tmp_path):
        def widen(d):
            d["support_vectors"] = [row + [0.0] for row in d["support_vectors"]]

        path = tampered(tmp_path, svm_small, widen)
        with pytest.raises(CorruptModelError, match="width"):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.update(dual_coefs=[None] * len(d["dual_coefs"])), "dual_coefs"),
            (lambda d: d.update(support_vectors=[["a"] * len(r) for r in d["support_vectors"]]),
             "support vectors"),
            (lambda d: d["scaler"].update(mean=["x"] * len(d["scaler"]["mean"])), "mean"),
            (lambda d: d["scaler"].update(kept=[1] * len(d["scaler"]["kept"])), "kept"),
        ],
        ids=["dual_coefs", "support_vectors", "mean", "kept"],
    )
    def test_non_numeric_svm_arrays(self, svm_small, tmp_path, mutate, match):
        path = tampered(tmp_path, svm_small, mutate)
        with pytest.raises(CorruptModelError, match=match):
            load_model(path)

    def test_boolean_bias(self, svm_small, tmp_path):
        path = tampered(tmp_path, svm_small, lambda d: d.update(bias=True))
        with pytest.raises(CorruptModelError, match="bias"):
            load_model(path)
