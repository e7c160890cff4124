"""CLI: subcommand pipelines, config merging, exit codes, determinism."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from plastiscan import load_model, read_stack, classify_scene, save_model
from plastiscan import cli
from plastiscan.cli import main
from plastiscan.dataset import FRACTION_CATEGORIES, load_samples
from plastiscan.errors import DataError, InvalidSampleError, MissingBandError
from plastiscan.metrics import METRIC_KEYS
from plastiscan.raster import compute_index_raster, read_label_map, write_stack
from plastiscan.spectra import PLASTIC, WATER
from plastiscan.synth import load_endmembers

CSV_HEADER = "site,date,row,col,lat,lon,B04,B06,B08,B11,label,plastic_fraction"


def write_labeled_csv(path, labels, site="beirut"):
    lines = [CSV_HEADER]
    for i, label in enumerate(labels):
        name = "plastic" if label == PLASTIC else "water"
        lines.append(f"{site},2018-11-02,{i},0,,,0.11,0.09,0.2,0.05,{name},")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pool_csv(tmp_path, capsys):
    path = tmp_path / "pool.csv"
    code = main(["synth-data", "--out", str(path), "--n-plastic", "12",
                 "--n-water", "64", "--seed", "0"])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture()
def scene_files(tmp_path, capsys):
    stack_path = tmp_path / "scene.json"
    truth_path = tmp_path / "truth.pgm"
    code = main(["synth-scene", "--out", str(stack_path),
                 "--truth-out", str(truth_path),
                 "--width", "10", "--height", "6", "--seed", "4",
                 "--patch", "1,1,2,3,1.0"])
    capsys.readouterr()
    assert code == 0
    return stack_path, truth_path


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1
        assert "subcommand is required" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "indices", "--in", str(tmp_path / "x.json"))
        assert code == 1
        assert "--out is required" in err

    def test_unknown_index_choice(self, capsys, tmp_path):
        code, _, err = run(capsys, "indices", "--in", "a", "--out", "b",
                           "--index", "EVI")
        assert code == 1

    def test_bad_model_token(self, capsys, pool_csv, tmp_path):
        code, _, err = run(capsys, "train", "--samples", str(pool_csv),
                           "--model", "Model7", "--algo", "rf",
                           "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "--model" in err

    def test_bad_patch_token(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth-scene", "--out", str(tmp_path / "s.json"),
                           "--patch", "1,2")
        assert code == 1
        assert "--patch" in err

    @pytest.mark.parametrize("flag, token, kind", [
        ("--mtry-grid", "1,x", "integer"),
        ("--mtry-grid", "1.5", "integer"),
        ("--sigma-grid", "0.09,abc", "number"),
        ("--c-grid", "2;10", "number"),
    ])
    def test_bad_grid_list(self, capsys, pool_csv, flag, token, kind):
        code, _, err = run(capsys, "tune", "--samples", str(pool_csv), "--model", "2",
                           "--algo", "rf" if flag == "--mtry-grid" else "svm", flag, token)
        assert code == 1
        assert err == (f"plastiscan: {flag} must be a comma-separated {kind} list, "
                       f"got {token!r}\n")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "plastiscan" in capsys.readouterr().out


COMMANDS = ("indices", "stretch", "synth-data", "synth-scene", "train", "tune",
            "predict-scene", "evaluate", "matrix", "profile")

# argv, and the subcommand that main parses it with alone (None: the full
# parser)
PARSER_CASES = [
    (["--help"], None),
    (["-h", "predict-scene"], None),
    (["--he", "train"], None),
    *(([command, "--help"], command) for command in COMMANDS),
    (["--config", "cfg.json", "predict-scene", "--out", "o.pgm"], "predict-scene"),
    (["--conf", "cfg.json", "predict-scene", "--out", "o.pgm"], "predict-scene"),
    (["--config=cfg.json", "predict-scene", "--out", "o.pgm"], "predict-scene"),
    (["--config", "missing.json", "train"], "train"),
    (["--config"], None),
    ([], None),
    (["frobnicate"], None),
    (["predict-scene", "--in"], "predict-scene"),
    (["predict-scene", "--in", "a.json", "--bogus"], "predict-scene"),
    (["train", "--algo", "xgb"], "train"),
    (["matrix", "--version"], "matrix"),
    (["--", "evaluate", "-h"], "evaluate"),
    (["--config", "cfg.json", "--", "evaluate"], "evaluate"),
    (["--version"], None),
    (["--vers"], None),
]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``; help and version exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserEquivalence:
    @pytest.mark.parametrize("argv, command", PARSER_CASES,
                             ids=[" ".join(argv) or "no-args" for argv, _ in PARSER_CASES])
    def test_same_as_full_parser(self, capsys, monkeypatch, tmp_path, argv, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"in": "missing.json"}', encoding="utf-8")
        assert cli._find_command(argv) == command
        got = outcome(capsys, argv)
        monkeypatch.setattr(cli, "_find_command", lambda argv: None)
        assert outcome(capsys, argv) == got
        assert got[0] in (0, 1, 2) and got[1] + got[2]


class TestExitCodes:
    def test_missing_input_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "profile", "--samples",
                           str(tmp_path / "absent.csv"),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("just,two\n1,2\n", encoding="utf-8")
        code, _, err = run(capsys, "profile", "--samples", str(bad),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2

    def test_duplicate_csv_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(CSV_HEADER + ",B04\n"
                        "beirut,2018-11-02,0,0,,,0.11,0.09,0.2,0.05,plastic,30.0,0.3\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "profile", "--samples", str(path),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2
        assert "duplicate column(s) B04" in err

    def test_solver_failure_is_numeric_error(self, capsys, pool_csv, tmp_path):
        code, _, err = run(capsys, "train", "--samples", str(pool_csv),
                           "--model", "2", "--algo", "svm",
                           "--max-passes", "1", "--tolerance", "1e-12",
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "numeric failure" in err

    def test_corrupt_model_is_data_error(self, capsys, rf_small, scene_files, tmp_path):
        stack_path, _ = scene_files
        model_path = tmp_path / "rf.json"
        save_model(rf_small, model_path)
        doc = json.loads(model_path.read_text())
        doc["trees"][0] = {"f": 0, "t": None, "l": [1, 0], "r": [0, 1]}
        model_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "predict-scene", "--in", str(stack_path),
                           "--model-file", str(model_path),
                           "--out", str(tmp_path / "labels.pgm"))
        assert code == 2
        assert "split threshold" in err
        save_model(rf_small, model_path)
        doc = json.loads(model_path.read_text())
        doc["n_train"] = True
        model_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "predict-scene", "--in", str(stack_path),
                           "--model-file", str(model_path),
                           "--out", str(tmp_path / "labels.pgm"))
        assert code == 2
        assert "n_train" in err

    def test_stack_without_a_model_band_names_the_stack(self, capsys, rf_small, scene_files,
                                                       tmp_path):
        stack = read_stack(scene_files[0])
        path = tmp_path / "no_b6.json"
        write_stack(replace(stack, grids={b: g for b, g in stack.grids.items() if b != "B6"}),
                    path)
        model_path = tmp_path / "rf.json"
        save_model(rf_small, model_path)  # a Model2 forest, which reads B6
        code, _, err = run(capsys, "predict-scene", "--in", str(path),
                           "--model-file", str(model_path), "--out", str(tmp_path / "l.pgm"))
        assert code == 2
        assert err == "plastiscan: no_b6.json: Model2: missing source band(s) B6\n"

    @pytest.mark.parametrize("field, bad", [("max_passes", True), ("seed", 2.5)])
    def test_svm_hyperparam_types_are_data_errors(self, capsys, svm_small, scene_files,
                                                  tmp_path, field, bad):
        stack_path, _ = scene_files
        model_path = tmp_path / "svm.json"
        save_model(svm_small, model_path)
        doc = json.loads(model_path.read_text())
        doc["hyperparams"][field] = bad
        model_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "predict-scene", "--in", str(stack_path),
                           "--model-file", str(model_path),
                           "--out", str(tmp_path / "labels.pgm"))
        assert code == 2
        assert f"{field} must be an int" in err

    @pytest.mark.parametrize("field, bad", [("sigma", float("nan")), ("C", float("inf"))])
    def test_non_finite_svm_hyperparams_are_data_errors(self, capsys, svm_small, scene_files,
                                                        tmp_path, field, bad):
        stack_path, _ = scene_files
        model_path = tmp_path / "svm.json"
        save_model(svm_small, model_path)
        doc = json.loads(model_path.read_text())
        doc["hyperparams"][field] = bad
        model_path.write_text(json.dumps(doc))  # writes NaN and Infinity
        code, _, err = run(capsys, "predict-scene", "--in", str(stack_path),
                           "--model-file", str(model_path),
                           "--out", str(tmp_path / "labels.pgm"))
        assert code == 2
        assert f"{field} must be finite and positive" in err
        assert not (tmp_path / "labels.pgm").exists()

    def test_bad_percentiles_are_usage_error(self, capsys, scene_files, tmp_path):
        stack_path, _ = scene_files
        code, _, err = run(capsys, "stretch", "--in", str(stack_path),
                           "--out", str(tmp_path / "s.json"),
                           "--p-low", "98", "--p-high", "2")
        assert code == 1


class TestConfigMerge:
    def test_flags_beat_config_beats_defaults(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n-plastic": 5, "n_water": 6, "seed": 9}))
        out = tmp_path / "pool.csv"
        code, _, _ = run(capsys, "--config", str(config),
                         "synth-data", "--out", str(out), "--n-plastic", "7")
        assert code == 0
        table = load_samples(out)
        assert len(table.only(PLASTIC)) == 7   # flag wins over config's 5
        assert len(table.only(WATER)) == 6     # config wins over default 270

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_trees": 3}))
        code, _, err = run(capsys, "--config", str(config),
                           "synth-data", "--out", str(tmp_path / "pool.csv"))
        assert code == 1
        assert "not an option" in err

    def test_config_not_json(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{oops")
        code, _, err = run(capsys, "--config", str(config),
                           "synth-data", "--out", str(tmp_path / "pool.csv"))
        assert code == 2
        assert "not valid JSON" in err

    def test_config_binary_file(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(bytes([0x80, 0x81, 0x82]))
        code, _, err = run(capsys, "--config", str(config),
                           "synth-data", "--out", str(tmp_path / "pool.csv"))
        assert code == 2
        assert "not valid JSON" in err

    def test_config_not_an_object(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("[1]")
        code, _, err = run(capsys, "--config", str(config),
                           "synth-data", "--out", str(tmp_path / "pool.csv"))
        assert code == 2

    def test_config_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "--config", str(tmp_path / "none.json"),
                           "synth-data", "--out", str(tmp_path / "pool.csv"))
        assert code == 2

    def test_config_can_satisfy_required_option(self, capsys, tmp_path):
        out = tmp_path / "pool.csv"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": str(out), "n_plastic": 3,
                                      "n_water": 4}))
        code, _, _ = run(capsys, "--config", str(config), "synth-data")
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("command, value", [
        ("synth-scene", {"width": [3]}),
        ("synth-scene", {"width": 3.5}),
        ("synth-scene", {"patch": [1]}),
        ("synth-scene", {"seed": True}),
        ("tune", {"sigma_grid": [None]}),
        ("tune", {"mtry_grid": [1.5]}),
        ("tune", {"n_trees": float("inf")}),
        ("tune", {"algo": "svn"}),
        ("synth-data", {"fractions": {">40%": None}}),
        ("synth-data", {"endmembers": 5}),
        ("tune", {"n_trees": "abc"}),
        ("synth-data", {"noise_sd": "abc"}),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
    def test_config_value_of_wrong_type(self, capsys, tmp_path, pool_csv, command, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(value))
        argv = {
            "synth-scene": ["--out", str(tmp_path / "scene.json")],
            "tune": ["--samples", str(pool_csv), "--model", "1", "--algo", "svm"],
            "synth-data": ["--out", str(tmp_path / "pool.csv")],
        }[command]
        code, _, err = run(capsys, "--config", str(config), command, *argv)
        assert code == 1
        assert f"config key {next(iter(value))!r}" in err


class TestSynthCommands:
    def test_synth_data_round_trip_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, out, _ = run(capsys, "synth-data", "--out", str(path),
                               "--n-plastic", "8", "--n-water", "16",
                               "--seed", "3")
            assert code == 0
            assert "8 plastic + 16 water" in out
        assert a.read_bytes() == b.read_bytes()
        table = load_samples(a)
        assert len(table.only(PLASTIC)) == 8
        assert len(table.only(WATER)) == 16

    def test_synth_data_seed_changes_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "synth-data", "--out", str(a), "--n-plastic", "4",
            "--n-water", "4", "--seed", "1")
        run(capsys, "synth-data", "--out", str(b), "--n-plastic", "4",
            "--n-water", "4", "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    def test_synth_data_fractions_filter(self, capsys, tmp_path):
        out = tmp_path / "pool.csv"
        code, _, _ = run(capsys, "synth-data", "--out", str(out),
                         "--n-plastic", "10", "--n-water", "2",
                         "--fractions", ">40%:1.0", "--seed", "0")
        assert code == 0
        for sample in load_samples(out).only(PLASTIC).rows:
            assert sample.plastic_fraction > 40.0

    def test_synth_data_bad_fraction_bin(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth-data", "--out", str(tmp_path / "p.csv"),
                           "--fractions", "everything:1.0")
        assert code == 1
        assert "fraction bin" in err

    def test_synth_scene_truth_patches(self, capsys, tmp_path):
        stack_path = tmp_path / "scene.json"
        truth_path = tmp_path / "truth.pgm"
        code, out, _ = run(capsys, "synth-scene", "--out", str(stack_path),
                           "--truth-out", str(truth_path),
                           "--width", "9", "--height", "7", "--seed", "1",
                           "--patch", "0,0,2,2,1.0",
                           "--patch", "4,5,1,1,0.5,plastic_bag")
        assert code == 0
        assert "2 patch(es)" in out
        truth = read_label_map(truth_path)
        assert int((truth.labels == PLASTIC).sum()) == 5
        stack = read_stack(stack_path)
        assert stack.width == 9 and stack.height == 7


class TestIndicesAndStretch:
    def test_indices_matches_library(self, capsys, scene_files, tmp_path):
        stack_path, _ = scene_files
        out_path = tmp_path / "fdi.json"
        code, out, _ = run(capsys, "indices", "--in", str(stack_path),
                           "--out", str(out_path), "--index", "FDI")
        assert code == 0
        result = read_stack(out_path)
        assert result.band_ids == ("FDI",)
        assert "FDI" in result.provenance
        expected = compute_index_raster(read_stack(stack_path), "FDI").values
        np.testing.assert_array_equal(
            result.band("FDI").values,
            expected.astype(np.float32).astype(np.float64))

    def test_indices_deterministic_bytes(self, capsys, scene_files, tmp_path):
        stack_path, _ = scene_files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "indices", "--in", str(stack_path), "--out", str(a),
            "--index", "NDVI")
        run(capsys, "indices", "--in", str(stack_path), "--out", str(b),
            "--index", "NDVI")
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".raw").read_bytes() == b.with_suffix(".raw").read_bytes()

    def test_stretch_single_band_range(self, capsys, scene_files, tmp_path):
        stack_path, _ = scene_files
        out_path = tmp_path / "stretched.json"
        code, out, _ = run(capsys, "stretch", "--in", str(stack_path),
                           "--out", str(out_path), "--band", "B8",
                           "--p-low", "5", "--p-high", "95")
        assert code == 0
        result = read_stack(out_path)
        assert result.band_ids == ("B8",)
        values = result.band("B8").values
        assert np.nanmin(values) >= 0.0 and np.nanmax(values) <= 1.0

    def test_stretch_defaults_to_all_bands(self, capsys, scene_files, tmp_path):
        stack_path, _ = scene_files
        out_path = tmp_path / "stretched.json"
        code, _, _ = run(capsys, "stretch", "--in", str(stack_path),
                         "--out", str(out_path))
        assert code == 0
        assert read_stack(out_path).band_ids == read_stack(stack_path).band_ids


class TestTrainTunePredict:
    def test_train_rf_writes_loadable_model(self, capsys, pool_csv, tmp_path):
        model_path = tmp_path / "rf.json"
        code, out, _ = run(capsys, "train", "--samples", str(pool_csv),
                           "--model", "2", "--algo", "rf", "--seed", "0",
                           "--out", str(model_path))
        assert code == 0
        assert "oob_error=" in out
        model = load_model(model_path, expect_algo="rf")
        assert model.spec.spec_id == "Model2"
        # defaults follow the tuned forest profile for the feature count
        assert model.hyperparams.n_trees == 100
        assert model.hyperparams.max_depth == 6

    def test_train_rf_flag_overrides(self, capsys, pool_csv, tmp_path):
        model_path = tmp_path / "rf.json"
        code, _, _ = run(capsys, "train", "--samples", str(pool_csv),
                         "--model", "4", "--algo", "rf",
                         "--n-trees", "20", "--mtry", "3",
                         "--out", str(model_path))
        assert code == 0
        model = load_model(model_path)
        assert model.hyperparams.n_trees == 20
        assert model.hyperparams.mtry == 3

    def test_train_svm(self, capsys, pool_csv, tmp_path):
        model_path = tmp_path / "svm.json"
        code, out, _ = run(capsys, "train", "--samples", str(pool_csv),
                           "--model", "3", "--algo", "svm",
                           "--c", "4.0", "--sigma", "0.05",
                           "--out", str(model_path))
        assert code == 0
        assert "n_support=" in out
        model = load_model(model_path, expect_algo="svm")
        assert model.hyperparams.C == 4.0
        assert model.hyperparams.sigma == 0.05

    def test_tune_rf_single_point(self, capsys, pool_csv, tmp_path):
        cv_path = tmp_path / "cv.csv"
        code, out, _ = run(capsys, "tune", "--samples", str(pool_csv),
                           "--model", "2", "--algo", "rf",
                           "--mtry-grid", "2", "--folds", "2",
                           "--n-trees", "10", "--out", str(cv_path))
        assert code == 0
        assert "best: mtry=2" in out
        with cv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["params", "mean_accuracy", "fold_accuracies"]
        assert len(rows) == 2
        assert rows[1][0] == "mtry=2"
        assert len(rows[1][2].split(";")) == 2

    def test_tune_svm_grid(self, capsys, pool_csv):
        code, out, _ = run(capsys, "tune", "--samples", str(pool_csv),
                           "--model", "5", "--algo", "svm",
                           "--c-grid", "2,10", "--sigma-grid", "0.09",
                           "--folds", "2")
        assert code == 0
        assert "best: C=" in out
        assert out.count("mean_accuracy=") == 2

    def test_predict_scene_matches_library(self, capsys, pool_csv, scene_files,
                                           tmp_path):
        stack_path, _ = scene_files
        model_path = tmp_path / "rf.json"
        run(capsys, "train", "--samples", str(pool_csv), "--model", "4",
            "--algo", "rf", "--n-trees", "15", "--out", str(model_path))
        labels_path = tmp_path / "labels.pgm"
        code, out, _ = run(capsys, "predict-scene", "--in", str(stack_path),
                           "--model-file", str(model_path),
                           "--out", str(labels_path))
        assert code == 0
        written = read_label_map(labels_path)
        expected = classify_scene(read_stack(stack_path), load_model(model_path))
        np.testing.assert_array_equal(written.labels, expected.labels)
        counts = (int((expected.labels == PLASTIC).sum()),
                  int((expected.labels == WATER).sum()))
        assert f"plastic={counts[0]} water={counts[1]}" in out


class TestEvaluate:
    def test_published_shoreline_counts(self, capsys, tmp_path):
        # 31/2/0/53: sensitivity 31/33 = 0.939
        truth_labels = [PLASTIC] * 33 + [WATER] * 53
        pred_labels = [PLASTIC] * 31 + [WATER] * 2 + [WATER] * 53
        truth = write_labeled_csv(tmp_path / "truth.csv", truth_labels)
        pred = write_labeled_csv(tmp_path / "pred.csv", pred_labels)
        out_path = tmp_path / "metrics.csv"
        code, out, _ = run(capsys, "evaluate", "--pred", str(pred),
                           "--truth", str(truth), "--out", str(out_path))
        assert code == 0
        assert "tp=31 fn=2 fp=0 tn=53" in out
        assert "Sensitivity        0.939" in out
        with out_path.open(newline="") as fh:
            rows = dict((r[0], r[1]) for r in list(csv.reader(fh))[1:])
        assert set(rows) == set(METRIC_KEYS)
        assert float(rows["sensitivity"]) == 31 / 33
        assert float(rows["precision"]) == 1.0

    def test_key_mismatch(self, capsys, tmp_path):
        truth = write_labeled_csv(tmp_path / "truth.csv", [PLASTIC, WATER])
        pred = write_labeled_csv(tmp_path / "pred.csv",
                                 [PLASTIC, WATER, WATER])
        code, _, err = run(capsys, "evaluate", "--pred", str(pred),
                           "--truth", str(truth))
        assert code == 2
        assert "keys differ" in err


class TestMatrix:
    def test_full_grid_run_and_parallel_determinism(self, capsys, pool_csv,
                                                    tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            out_path = tmp_path / f"matrix_{jobs}.csv"
            text_path = tmp_path / f"matrix_{jobs}.txt"
            code, out, _ = run(capsys, "matrix",
                               "--plastic", str(pool_csv),
                               "--water", str(pool_csv),
                               "--out", str(out_path),
                               "--text-out", str(text_path),
                               "--seed", "0", "--jobs", jobs,
                               "--folds", "2", "--n-trees", "10",
                               "--mtry-grid", "2", "--sigma-grid", "0.09",
                               "--c-grid", "10")
            assert code == 0
            assert "50 cells, 0 failed" in out
            outs[jobs] = (out_path.read_bytes(), text_path.read_bytes())
        assert outs["1"] == outs["2"]
        with (tmp_path / "matrix_1.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 50 * len(METRIC_KEYS)
        text = (tmp_path / "matrix_1.txt").read_text()
        assert "== Model1 ==" in text and "TC5/rf" in text

    def test_pool_without_plastic_rows(self, capsys, tmp_path):
        water_only = write_labeled_csv(tmp_path / "water.csv", [WATER] * 5)
        code, _, err = run(capsys, "matrix", "--plastic", str(water_only),
                           "--water", str(water_only),
                           "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "no plastic samples" in err


class TestProfile:
    def test_profile_csv(self, capsys, pool_csv, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, out, _ = run(capsys, "profile", "--samples", str(pool_csv),
                           "--out", str(out_path))
        assert code == 0
        with out_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["category", "count", "band", "mean_reflectance"]
        body = rows[1:]
        assert {r[2] for r in body} == {"B4", "B6", "B8", "B11"}
        assert all(r[0] in FRACTION_CATEGORIES for r in body)
        # every bin row repeats the bin count once per band
        plastic_total = sum({(r[0]): int(r[1]) for r in body}.values())
        assert plastic_total == 12

    def test_profile_custom_bands(self, capsys, pool_csv, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, _, _ = run(capsys, "profile", "--samples", str(pool_csv),
                         "--out", str(out_path), "--bands", "B2,B8A")
        assert code == 0
        with out_path.open(newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert {r[2] for r in body} == {"B2", "B8A"}


class TestOptionValues:
    """Flags and config values parse alike, before any input file is read."""

    RF_OPTIONS = {"n_trees": 9, "mtry": 2, "max_depth": 4, "min_samples_split": 3,
                  "min_samples_leaf": 2, "max_leaf_nodes": 7, "seed": 3}
    SVM_OPTIONS = {"c": 4, "sigma": 0.05, "tolerance": 0.001, "max_passes": 200, "seed": 2}

    def train_three_ways(self, capsys, tmp_path, pool_csv, algo, options):
        base = ["train", "--samples", str(pool_csv), "--model", "3", "--algo", algo]
        flags = [token for name, value in options.items()
                 for token in ("--" + name.replace("_", "-"), str(value))]
        paths = [tmp_path / f"{algo}-{way}.json" for way in ("flags", "typed", "strings")]
        configs = [options, {name: str(value) for name, value in options.items()}]
        code, _, err = run(capsys, *base, *flags, "--out", str(paths[0]))
        assert code == 0, err
        for path, config in zip(paths[1:], configs):
            config_path = path.with_suffix(".cfg.json")
            config_path.write_text(json.dumps(config), encoding="utf-8")
            code, _, err = run(capsys, "--config", str(config_path), *base, "--out", str(path))
            assert code == 0, err
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
        return load_model(paths[1])

    def test_train_rf_flags_and_config_values_agree(self, capsys, tmp_path, pool_csv):
        model = self.train_three_ways(capsys, tmp_path, pool_csv, "rf", self.RF_OPTIONS)
        assert model.hyperparams.max_leaf_nodes == 7 and model.hyperparams.seed == 3

    def test_train_svm_flags_and_config_values_agree(self, capsys, tmp_path, pool_csv):
        model = self.train_three_ways(capsys, tmp_path, pool_csv, "svm", self.SVM_OPTIONS)
        assert model.hyperparams.C == 4.0 and type(model.hyperparams.C) is float

    @pytest.mark.parametrize("algo, grids", [
        ("rf", {"mtry_grid": [1, 2]}),
        ("svm", {"sigma_grid": [0.03, 0.09], "c_grid": [2, 10]}),
    ])
    def test_tune_grids_as_lists_and_strings_agree(self, capsys, tmp_path, pool_csv,
                                                   algo, grids):
        outputs = []
        for way, config in (("lists", grids), ("strings", {
                name: ",".join(map(str, values)) for name, values in grids.items()})):
            config_path = tmp_path / f"{way}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            out = tmp_path / f"cv-{way}.csv"
            code, _, err = run(capsys, "--config", str(config_path), "tune",
                               "--samples", str(pool_csv), "--model", "2", "--algo", algo,
                               "--folds", "2", "--n-trees", "5", "--out", str(out))
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + np.prod([len(v) for v in grids.values()])

    @pytest.mark.parametrize("option, message", [
        (["--model", "7"], "--model must be one of 1..5 (or Model1..Model5), got '7'"),
        (["--model", "2", "--mtry-grid", "1,x"],
         "--mtry-grid must be a comma-separated integer list, got '1,x'"),
    ])
    def test_bad_value_reported_before_reading_files(self, capsys, tmp_path, option, message):
        code, _, err = run(capsys, "tune", "--samples", str(tmp_path / "absent.csv"),
                           "--algo", "rf", *option)
        assert (code, err) == (1, f"plastiscan: {message}\n")

    def test_dashdash_before_command_runs_it(self, capsys):
        code, out, _ = outcome(capsys, ["--", "evaluate", "-h"])
        assert code == 0
        assert out.startswith("usage: plastiscan evaluate")


def deep_json(depth=100_000):
    return "[" * depth + "]" * depth


def endmember_doc(**water):
    water_bands = {"B2": 0.05, "B3": 0.04, "B4": 0.03, "B6": 0.02, "B8": 0.01, "B11": 0.005}
    plastic = {"B2": 0.1, "B3": 0.1, "B4": 0.1, "B6": 0.1, "B8": 0.3, "B11": 0.2}
    return json.dumps({"endmembers": {"water": {**water_bands, **water},
                                      "plastic_bottle": plastic}})


# (file name, its content, and the argv that reads it); {path} is the file
MALFORMED_FILES = [
    ("samples.csv", (CSV_HEADER + "\nbeirut,2018-11-02,0,0,,,0.1,0.1,0.2,0.1,pl\xffstic,\n"
                     ).encode("latin-1"),
     ["profile", "--samples", "{path}", "--out", "p.csv"]),
    ("samples.csv", (CSV_HEADER + '\n"' + "s" * 131_073 + '",2018-11-02,0,0,,,0.1,0.1,0.2,0.1,'
                     "plastic,\n").encode(),
     ["profile", "--samples", "{path}", "--out", "p.csv"]),
    ("cfg.json", deep_json().encode(), ["--config", "{path}", "synth-data", "--out", "p.csv"]),
    ("scene.json", deep_json().encode(),
     ["predict-scene", "--in", "{path}", "--model-file", "m.json", "--out", "l.pgm"]),
    ("model.json", deep_json().encode(),
     ["predict-scene", "--in", "{scene}", "--model-file", "{path}", "--out", "l.pgm"]),
    ("members.json", deep_json().encode(),
     ["synth-data", "--endmembers", "{path}", "--out", "p.csv"]),
    ("members.json", b"{oops", ["synth-data", "--endmembers", "{path}", "--out", "p.csv"]),
    ("members.json", b'{"endmembers": {"water": {"B8": 0.01\xff}}}',
     ["synth-data", "--endmembers", "{path}", "--out", "p.csv"]),
    ("members.json", b"[1]", ["synth-data", "--endmembers", "{path}", "--out", "p.csv"]),
    ("members.json", b'{"endmembers": {"water": 5, "plastic_bottle": {}}}',
     ["synth-data", "--endmembers", "{path}", "--out", "p.csv"]),
    ("members.json", endmember_doc(B3=None).encode(),
     ["synth-scene", "--endmembers", "{path}", "--out", "s.json"]),
    ("members.json", endmember_doc(B3="x").encode(),
     ["synth-scene", "--endmembers", "{path}", "--out", "s.json"]),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("name, content, argv", MALFORMED_FILES, ids=[
        "csv-not-utf8", "csv-field-too-large", "config-deep", "header-deep", "model-deep",
        "endmembers-deep", "endmembers-not-json", "endmembers-not-utf8",
        "endmembers-not-object", "endmember-not-object", "reflectance-null", "reflectance-text",
    ])
    def test_data_error_names_the_file(self, capsys, monkeypatch, tmp_path, scene_files,
                                       name, content, argv):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        path.write_bytes(content)
        argv = [token.format(path=path, scene=scene_files[0]) for token in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith(f"plastiscan: {name}:")

    def test_line_of_bad_csv_byte(self, capsys, tmp_path):
        path = write_labeled_csv(tmp_path / "pool.csv", [PLASTIC, WATER, WATER])
        path.write_bytes(path.read_bytes().replace(b"water", b"w\x80ter", 1))
        code, _, err = run(capsys, "profile", "--samples", str(path),
                           "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (2, "plastiscan: pool.csv:3: not UTF-8 text (invalid start byte)\n")

    def test_endmember_message_names_the_member(self, capsys, tmp_path):
        path = tmp_path / "members.json"
        path.write_text(endmember_doc(B3="x"), encoding="utf-8")
        code, _, err = run(capsys, "synth-data", "--endmembers", str(path),
                           "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (
            2, "plastiscan: members.json: endmember 'water' must be an object of numbers\n")


# endmember tables that fail Endmember's own checks, with the error class and
# the message load_endmembers gives, after the file's name
BAD_ENDMEMBERS = [
    ({"": {"B8": 0.3}}, DataError, "endmember names must be non-empty"),
    ({"p": {"B99": 0.3}}, MissingBandError, "endmember p: unknown band(s) ['B99']"),
    ({"p": {"B4": 0.1, "B6": 0.1, "B8": 0.3}}, MissingBandError, "endmember p: missing band B11"),
    ({"p": {"B4": 0.4, "B6": 0.1, "B8": 0.3, "B11": 0.2}}, InvalidSampleError,
     "endmember p: expected B8 > B4 and B8 > B6 (NIR peak)"),
    ({"water": {"B3": 0.01, "B4": 0.03, "B6": 0.02, "B8": 0.05, "B11": 0.005}},
     InvalidSampleError, "endmember water: expected B8 < B3 (NIR absorption)"),
]


@pytest.mark.parametrize("members, error, message", BAD_ENDMEMBERS,
                         ids=["empty-name", "unknown-band", "missing-band", "nir-peak", "water"])
def test_endmember_errors_name_the_file(capsys, tmp_path, members, error, message):
    table = json.loads(endmember_doc())["endmembers"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"endmembers": {**table, **members}}), encoding="utf-8")
    with pytest.raises(error) as raised:
        load_endmembers(path)
    assert str(raised.value) == f"t.json: {message}"
    code, _, err = run(capsys, "synth-data", "--endmembers", str(path),
                       "--out", str(tmp_path / "p.csv"))
    assert (code, err) == (2, f"plastiscan: t.json: {message}\n")


class TestEntryPointArgv:
    """main() with no argv reads sys.argv, as the installed console script does."""

    def test_dashdash_help(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["plastiscan", "--", "evaluate", "-h"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert "usage: plastiscan evaluate" in capsys.readouterr().out

    def test_bad_config_is_data_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{oops", encoding="utf-8")
        monkeypatch.setattr("sys.argv", ["plastiscan", "--config", "bad.json",
                                         "synth-data", "--out", "x.csv"])
        assert main() == 2
        assert "bad.json: config file is not valid JSON" in capsys.readouterr().err
