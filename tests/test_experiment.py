"""Experiment matrix orchestration, CSV/text export, scene classification."""

from __future__ import annotations

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from plastiscan import (
    ExperimentMatrix,
    Grid,
    GridSpec,
    MaskGrid,
    MatrixCell,
    PLASTIC,
    PatchSpec,
    RFHyperParams,
    SynthConfig,
    WATER,
    apply_mask,
    classify_scene,
    export_matrix,
    gen_dataset,
    gen_scene,
    predict_rf,
    predict_rf_batch,
    predict_svm_batch,
    render_matrix_text,
    run_cell,
    run_matrix,
    train_rf,
    train_svm,
)
from plastiscan.dataset import (
    TEST_CASES,
    Sample,
    SampleTable,
    TestCaseSpec as CaseSpec,
    build_test_case,
    split,
)
from plastiscan import experiment
from plastiscan.experiment import ALGOS, MODEL_IDS
from plastiscan.classifiers.svm import _BLOCK_ROWS, SVMHyperParams
from plastiscan.errors import MissingBandError
from plastiscan.metrics import METRIC_KEYS, NotAValue
from plastiscan.raster import BandStack
from plastiscan.rng import derive_seed
from plastiscan.spectra import MODEL_SPECS, PixelSpectrum, feature_vector

import cell_oracle
import scene_oracle
from conftest import band_spec, table_from_features

QUICK_GRID = GridSpec(mtry_grid=(2,), sigma_grid=(0.09,), c_grid=(10.0,), cv_folds=2)
RF_BASE = RFHyperParams(n_trees=10, mtry=2)


@pytest.fixture(scope="module")
def pools():
    table = gen_dataset(SynthConfig(n_plastic=12, n_water=64, seed=11))
    return table.only(PLASTIC), table.only(WATER)


@pytest.fixture(scope="module")
def matrix50(pools):
    plastic, water = pools
    return run_matrix(plastic, water, QUICK_GRID, master_seed=42, rf_base=RF_BASE)


def stack_of(**bands):
    grids = {}
    for band_id, rows in bands.items():
        values = np.asarray(rows, dtype=np.float64)
        grids[band_id] = Grid(width=values.shape[1], height=values.shape[0],
                              values=values)
    return BandStack(grids=grids, resolution_m=10.0)


class TestRunCell:
    def test_deterministic(self, pools):
        plastic, water = pools
        kwargs = dict(model_id="Model2", test_case_id="TC2", algo="rf",
                      grid=QUICK_GRID, master_seed=9, rf_base=RF_BASE)
        assert run_cell(plastic, water, **kwargs) == run_cell(plastic, water, **kwargs)

    @pytest.mark.parametrize("case", TEST_CASES)
    def test_sample_accounting(self, pools, case):
        plastic, water = pools
        cell = run_cell(plastic, water, "Model4", case.case_id, "rf",
                        QUICK_GRID, master_seed=3, rf_base=RF_BASE)
        assert cell.error is None
        expected_total = 12 + 12 * case.water_multiplier
        assert cell.n_train + cell.n_test == expected_total
        assert cell.cm.tp + cell.cm.fn + cell.cm.fp + cell.cm.tn == cell.n_test

    def test_tuned_fields_per_algo(self, pools):
        plastic, water = pools
        rf = run_cell(plastic, water, "Model1", "TC1", "rf",
                      QUICK_GRID, master_seed=1, rf_base=RF_BASE)
        svm = run_cell(plastic, water, "Model1", "TC1", "svm",
                       QUICK_GRID, master_seed=1)
        assert set(rf.tuned) == {"mtry", "n_trees"}
        assert rf.tuned["mtry"] == 2
        assert set(svm.tuned) == {"C", "sigma"}
        assert svm.tuned == {"C": 10.0, "sigma": 0.09}

    def test_svm_cell_converges_at_default_passes(self):
        pool = gen_dataset(SynthConfig(n_plastic=54, n_water=270, seed=7))
        grid = GridSpec(mtry_grid=(1, 2), sigma_grid=(0.03, 0.09), c_grid=(2.0, 10.0),
                        cv_folds=2)
        cell = run_cell(pool.only(PLASTIC), pool.only(WATER), "Model5", "TC4", "svm",
                        grid, master_seed=7)
        assert cell.error is None

    def test_data_error_recorded_not_raised(self, pools):
        plastic, _ = pools
        tiny_water = gen_dataset(SynthConfig(n_plastic=2, n_water=20, seed=1)).only(WATER)
        cell = run_cell(plastic, tiny_water, "Model1", "TC5", "rf",
                        QUICK_GRID, master_seed=0, rf_base=RF_BASE)
        assert cell.report is None and cell.cm is None
        assert "InsufficientWaterPoolError" in cell.error
        assert cell.tuned == {}

    def test_tuned_mapping_is_copied(self):
        tuned = {"mtry": 1}
        cell = MatrixCell(model_id="Model1", test_case_id="TC1", algo="rf",
                          tuned=tuned, report=None, cm=None,
                          n_train=0, n_test=0, error="x")
        tuned["mtry"] = 99
        assert cell.tuned == {"mtry": 1}



# perfbench's reduced matrix grid, on a small pool
PERF_GRID = GridSpec(mtry_grid=(1, 2), sigma_grid=(0.03, 0.09), c_grid=(2.0, 10.0),
                     cv_folds=2)
ORACLE_BASES = {
    "depth-first": dict(rf_base=RFHyperParams.matrix_profile(mtry=1, n_trees=10),
                        svm_base=SVMHyperParams(max_passes=5000)),
    "best-first": dict(rf_base=RFHyperParams(n_trees=10, max_leaf_nodes=4)),
}


def with_bands(sample, **bands):
    """``sample`` with some of its band reflectances replaced."""
    spectrum = PixelSpectrum(dict(sample.spectrum.reflectance, **bands))
    return dataclasses.replace(sample, spectrum=spectrum)


def with_degenerate(pool, positions):
    """``pool`` with B4 + B8 = 0 at ``positions``: PI, NDVI and kNDVI are undefined."""
    rows = list(pool.rows)
    for i in positions:
        rows[i] = with_bands(rows[i], B4=0.0, B8=0.0)
    return SampleTable(tuple(rows))


def train_keys(plastic, water, model_id, case_id, algo, master_seed):
    """Keys of a cell's training part, from the table-based split."""
    cell_seed = derive_seed(master_seed, model_id, case_id, algo)
    table = build_test_case(plastic, water, CaseSpec(case_id),
                            seed=derive_seed(cell_seed, "assemble"))
    parts = cell_oracle.split(table, experiment.TRAIN_FRACTION,
                              seed=derive_seed(cell_seed, "split"))
    return {s.key() for s in parts.train}


class TestCellOracle:
    """A cell in index space equals the table-based cell of ``cell_oracle``."""

    @staticmethod
    def assert_cells_equal(got, want):
        for f in dataclasses.fields(MatrixCell):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got == want

    @pytest.mark.parametrize("base", ORACLE_BASES)
    @pytest.mark.parametrize("master_seed", [1, 987654])
    def test_cells_equal_oracle(self, pools, master_seed, base):
        plastic, water = pools
        algos = ALGOS if base == "depth-first" else ("rf",)
        for model_id in MODEL_IDS:
            for case in TEST_CASES:
                for algo in algos:
                    args = (plastic, water, model_id, case.case_id, algo, PERF_GRID,
                            master_seed)
                    got = run_cell(*args, **ORACLE_BASES[base])
                    assert got.error is None
                    self.assert_cells_equal(got, cell_oracle.run_cell(*args,
                                                                      **ORACLE_BASES[base]))

    @pytest.mark.parametrize("n_plastic, n_water, error", [
        (12, 20, "InsufficientWaterPoolError: TC5 needs 60 water samples, pool has 20"),
        (1, 64, "ClassTooSmallError: class plastic has 1 samples; need at least 2"),
        (2, 64, "FoldTooSmallError: class 1 has 1 samples, fewer than cv_folds=2"),
    ])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_error_cells_equal_oracle(self, pools, n_plastic, n_water, error, algo):
        plastic, water = pools
        plastic = SampleTable(plastic.rows[:n_plastic])
        water = SampleTable(water.rows[:n_water])
        args = (plastic, water, "Model4", "TC5", algo, PERF_GRID, 3)
        got = run_cell(*args, **ORACLE_BASES["depth-first"])
        assert got.error == error
        self.assert_cells_equal(got, cell_oracle.run_cell(*args, **ORACLE_BASES["depth-first"]))

    @pytest.mark.parametrize("part", ["train", "test"])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_degenerate_row_equals_oracle(self, pools, part, algo):
        plastic, water = pools
        plastic = with_degenerate(plastic, [4])
        bad = plastic.rows[4].key()
        master_seed = next(m for m in range(100) if (bad in train_keys(
            plastic, water, "Model4", "TC2", algo, m)) == (part == "train"))
        args = (plastic, water, "Model4", "TC2", algo, PERF_GRID, master_seed)
        got = run_cell(*args, **ORACLE_BASES["depth-first"])
        assert got.error == (f"DegenerateDenominatorError: sample {bad}: "
                             "PI denominator is degenerate")
        self.assert_cells_equal(got, cell_oracle.run_cell(*args, **ORACLE_BASES["depth-first"]))

    @pytest.mark.parametrize("algo", ALGOS)
    def test_several_degenerate_rows_name_the_first_in_canonical_order(self, pools, algo):
        """The table-based cell named the first bad training row in canonical
        order, or, with none in training, the first bad test row in split
        order; a cell now names the first bad row of its whole test case."""
        plastic, water = pools
        plastic = with_degenerate(plastic, [2, 5, 9])
        bad = sorted((s for s in plastic.rows if s.spectrum.band("B8") == 0.0),
                     key=Sample.sort_key)
        first = bad[0].key()

        def first_is_tested_and_another_trained(master_seed):
            keys = train_keys(plastic, water, "Model4", "TC1", algo, master_seed)
            return first not in keys and any(s.key() in keys for s in bad)

        master_seed = next(m for m in range(100) if first_is_tested_and_another_trained(m))
        args = (plastic, water, "Model4", "TC1", algo, PERF_GRID, master_seed)
        got = run_cell(*args, **ORACLE_BASES["depth-first"])
        assert got.error == (f"DegenerateDenominatorError: sample {first}: "
                             "PI denominator is degenerate")
        assert cell_oracle.run_cell(*args, **ORACLE_BASES["depth-first"]).error != got.error

    def test_split_equals_oracle(self, pools):
        plastic, water = pools
        table = build_test_case(plastic, water, CaseSpec("TC3"), seed=5)
        for fraction in (0.3, 0.5, 0.7, 0.9):
            for seed in (0, 1, 987654):
                got = split(table, fraction, seed)
                want = cell_oracle.split(table, fraction, seed)
                assert [s.key() for s in got.train] == [s.key() for s in want.train]
                assert [s.key() for s in got.test] == [s.key() for s in want.test]

    def test_zero_variance_warning_points_at_the_caller(self, pools):
        plastic, water = pools
        # a B6 of 0.0625 is exact in binary, so its column's sd is 0 over any rows
        flat = [SampleTable(tuple(with_bands(s, B6=0.0625) for s in pool))
                for pool in (plastic, water)]
        with pytest.warns(UserWarning, match="zero-variance feature") as record:
            cell = run_cell(*flat, "Model3", "TC1", "svm", QUICK_GRID, master_seed=0)
        assert cell.error is None
        assert {r.filename for r in record} == {__file__}


class TestRunMatrix:
    def test_fifty_cells_in_model_major_order(self, matrix50):
        assert isinstance(matrix50, ExperimentMatrix)
        assert len(matrix50.cells) == 50
        coords = [(c.model_id, c.test_case_id, c.algo) for c in matrix50.cells]
        expected = [(m, t.case_id, a)
                    for m in MODEL_IDS for t in TEST_CASES for a in ALGOS]
        assert coords == expected
        assert all(c.error is None for c in matrix50.cells)

    def test_sub_matrix_cells_match_full_run(self, pools, matrix50):
        plastic, water = pools
        sub = run_matrix(plastic, water, QUICK_GRID, master_seed=42,
                         rf_base=RF_BASE, model_ids=("Model3",),
                         test_case_ids=("TC4",))
        assert len(sub.cells) == 2
        full = {(c.model_id, c.test_case_id, c.algo): c for c in matrix50.cells}
        for cell in sub.cells:
            assert cell == full[(cell.model_id, cell.test_case_id, cell.algo)]

    def test_repeat_run_identical(self, pools, matrix50):
        plastic, water = pools
        again = run_matrix(plastic, water, QUICK_GRID, master_seed=42,
                           rf_base=RF_BASE)
        assert again == matrix50

    def test_parallel_matches_serial(self, pools, matrix50, tmp_path):
        plastic, water = pools
        parallel = run_matrix(plastic, water, QUICK_GRID, master_seed=42,
                              rf_base=RF_BASE, jobs=2)
        assert parallel == matrix50
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        export_matrix(matrix50, a)
        export_matrix(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_master_seed_changes_results(self):
        # overlapping classes: the seed-dependent partition shows in the counts
        table = gen_dataset(SynthConfig(n_plastic=12, n_water=40, seed=11,
                                        noise_sd=0.02,
                                        fraction_distribution={"0-10%": 1.0}))
        plastic, water = table.only(PLASTIC), table.only(WATER)
        a = run_matrix(plastic, water, QUICK_GRID, master_seed=1,
                       rf_base=RF_BASE, model_ids=("Model2",),
                       test_case_ids=("TC3",))
        b = run_matrix(plastic, water, QUICK_GRID, master_seed=2,
                       rf_base=RF_BASE, model_ids=("Model2",),
                       test_case_ids=("TC3",))
        assert any(x.cm != y.cm for x, y in zip(a.cells, b.cells))

    @pytest.mark.parametrize(
        "kwargs, match",
        [(dict(model_ids=("Model9",)), "feature set"),
         (dict(test_case_ids=("TC9",)), "test case"),
         (dict(jobs=0), "jobs")],
    )
    def test_validation(self, pools, kwargs, match):
        plastic, water = pools
        with pytest.raises(ValueError, match=match):
            run_matrix(plastic, water, QUICK_GRID, master_seed=0, **kwargs)


class TestExport:
    def test_csv_layout_and_round_trip(self, matrix50, tmp_path):
        path = tmp_path / "matrix.csv"
        export_matrix(matrix50, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "test_case", "algo", "metric", "value", "error"]
        assert len(rows) == 1 + 50 * len(METRIC_KEYS)
        by_key = {(c.model_id, c.test_case_id, c.algo): c for c in matrix50.cells}
        for model, case, algo, metric, value, error in rows[1:]:
            cell = by_key[(model, case, algo)]
            stored = getattr(cell.report, metric)
            if value == "NA":
                assert isinstance(stored, NotAValue)
            else:
                assert float(value) == stored
                assert error == ""

    def test_metric_rows_grouped_per_cell(self, matrix50, tmp_path):
        path = tmp_path / "matrix.csv"
        export_matrix(matrix50, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        metrics = [r[3] for r in rows[1:]]
        assert metrics == list(METRIC_KEYS) * 50

    def test_failed_cell_rows(self, pools, tmp_path):
        plastic, _ = pools
        tiny_water = gen_dataset(SynthConfig(n_plastic=2, n_water=8, seed=2)).only(WATER)
        matrix = run_matrix(plastic, tiny_water, QUICK_GRID, master_seed=0,
                            rf_base=RF_BASE, model_ids=("Model1",),
                            test_case_ids=("TC5",))
        path = tmp_path / "failed.csv"
        export_matrix(matrix, str(path))
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2 * len(METRIC_KEYS)
        for row in rows:
            assert row[4] == "NA"
            assert "InsufficientWaterPoolError" in row[5]


class TestRenderText:
    def test_blocks_columns_and_tuning_lines(self, matrix50):
        text = render_matrix_text(matrix50)
        for model_id in MODEL_IDS:
            assert f"== {model_id} ==" in text
        assert "TC1/svm" in text and "TC5/rf" in text
        assert "tuned:" in text
        assert text.endswith("\n")

    def test_failed_cells_marked(self, pools):
        plastic, _ = pools
        tiny_water = gen_dataset(SynthConfig(n_plastic=2, n_water=8, seed=2)).only(WATER)
        matrix = run_matrix(plastic, tiny_water, QUICK_GRID, master_seed=0,
                            rf_base=RF_BASE, model_ids=("Model2",),
                            test_case_ids=("TC5",))
        text = render_matrix_text(matrix)
        assert "ERR" in text
        assert "failed: InsufficientWaterPoolError" in text

    def test_sub_matrix_renders_only_present_columns(self, pools):
        plastic, water = pools
        matrix = run_matrix(plastic, water, QUICK_GRID, master_seed=1,
                            rf_base=RF_BASE, model_ids=("Model4",),
                            test_case_ids=("TC2",))
        text = render_matrix_text(matrix)
        assert "== Model4 ==" in text and "== Model1 ==" not in text
        assert "TC2/svm" in text and "TC1/svm" not in text


@pytest.fixture(scope="module")
def scene_model():
    config = SynthConfig(n_plastic=20, n_water=40, seed=5,
                         fraction_distribution={">40%": 1.0})
    table = gen_dataset(config)
    model = train_rf(table, MODEL_SPECS["Model4"],
                     RFHyperParams(n_trees=30, mtry=2, seed=0))
    return config, model


class TestClassifyScene:
    def test_matches_per_pixel_scalar_pipeline(self, scene_model):
        config, model = scene_model
        scene_config = SynthConfig(n_plastic=20, n_water=40, seed=6,
                                   fraction_distribution={">40%": 1.0})
        stack, _ = gen_scene(scene_config, width=6, height=5,
                             patches=(PatchSpec(row=1, col=2, height=2, width=2,
                                                fraction=0.9),))
        labels = classify_scene(stack, model)
        assert labels.width == 6 and labels.height == 5
        for r in range(5):
            for c in range(6):
                pixel = PixelSpectrum(
                    {bid: float(stack.grids[bid].values[r, c])
                     for bid in ("B4", "B6", "B8", "B11")})
                fv = feature_vector(pixel, model.spec)
                assert labels.labels[r, c] == predict_rf(model, fv)

    def test_single_pixel_scene(self, scene_model):
        config, model = scene_model
        stack, _ = gen_scene(
            SynthConfig(n_plastic=2, n_water=2, seed=9), width=1, height=1)
        labels = classify_scene(stack, model)
        pixel = PixelSpectrum({bid: float(stack.grids[bid].values[0, 0])
                               for bid in ("B4", "B6", "B8", "B11")})
        assert labels.labels[0, 0] == predict_rf(model, feature_vector(pixel, model.spec))

    def test_fully_masked_scene_is_all_nodata(self, scene_model):
        config, model = scene_model
        stack, _ = gen_scene(
            SynthConfig(n_plastic=2, n_water=2, seed=9), width=4, height=3)
        blanked = apply_mask(stack, MaskGrid(width=4, height=3,
                                             keep=np.zeros((3, 4), dtype=bool)))
        labels = classify_scene(blanked, model)
        assert (labels.labels == 0).all()

    def test_degenerate_index_pixel_gets_nodata(self, scene_model):
        _, model = scene_model
        b4 = [[0.1, 0.0]]
        b6 = [[0.08, 0.08]]
        b8 = [[0.3, 0.0]]
        b11 = [[0.02, 0.02]]
        stack = stack_of(B4=b4, B6=b6, B8=b8, B11=b11)
        labels = classify_scene(stack, model)
        assert labels.labels[0, 1] == 0
        assert labels.labels[0, 0] in (PLASTIC, WATER)

    def test_missing_band_named(self, scene_model):
        _, model = scene_model
        stack = stack_of(B4=[[0.1]], B6=[[0.08]], B8=[[0.3]])
        with pytest.raises(MissingBandError, match="B11"):
            classify_scene(stack, model)

    def test_raw_band_features(self):
        rng = np.random.default_rng(3)
        y = np.array([PLASTIC, WATER] * 10)
        X = np.where(y[:, None] == PLASTIC, 0.8, 0.2) + rng.normal(0, 0.05, (20, 2))
        model = train_svm(table_from_features(X, y), band_spec(2),
                          SVMHyperParams())
        b2 = rng.uniform(0.1, 0.9, (3, 4))
        b3 = rng.uniform(0.1, 0.9, (3, 4))
        stack = stack_of(B2=b2, B3=b3)
        labels = classify_scene(stack, model)
        flat = predict_svm_batch(model, np.column_stack([b2.reshape(-1),
                                                         b3.reshape(-1)]))
        np.testing.assert_array_equal(labels.labels.reshape(-1), flat)

    def test_cropped_scene_matches_full_classification(self, scene_model):
        _, model = scene_model
        stack, _ = gen_scene(
            SynthConfig(n_plastic=4, n_water=4, seed=13), width=6, height=4,
            patches=(PatchSpec(row=0, col=0, height=2, width=3, fraction=1.0),))
        full = classify_scene(stack, model)
        cropped_grids = {
            bid: Grid(width=2, height=3, values=g.values[1:4, 2:4].copy())
            for bid, g in stack.grids.items()
        }
        crop = BandStack(grids=cropped_grids, resolution_m=stack.resolution_m)
        np.testing.assert_array_equal(
            classify_scene(crop, model).labels, full.labels[1:4, 2:4])


@pytest.fixture(scope="module")
def blocky_scene():
    """48 x 50 cells: 2,400 rows, more than two SVM row blocks, with plastic
    patches and a lattice of masked (nodata) cells."""
    stack, _ = gen_scene(
        SynthConfig(n_plastic=0, n_water=0, seed=21), width=50, height=48,
        patches=(PatchSpec(row=3, col=4, height=10, width=12, fraction=0.9),
                 PatchSpec(row=30, col=20, height=8, width=25, fraction=0.5)))
    keep = np.ones((48, 50), dtype=bool)
    keep[::7, ::5] = False
    return apply_mask(stack, MaskGrid(width=50, height=48, keep=keep))


@pytest.fixture(scope="module")
def streamed_scene():
    """301 x 250 cells: more than two default pixel blocks, with plastic
    patches, a nodata lattice, and masked bottom rows that leave the last
    block without one valid pixel."""
    stack, _ = gen_scene(
        SynthConfig(n_plastic=0, n_water=0, seed=22), width=250, height=301,
        patches=(PatchSpec(row=10, col=30, height=40, width=60, fraction=0.9),
                 PatchSpec(row=120, col=100, height=90, width=120, fraction=0.5),
                 PatchSpec(row=255, col=0, height=6, width=40, fraction=0.8)))
    keep = np.ones((301, 250), dtype=bool)
    keep[::7, ::5] = False
    keep[261:] = False
    return apply_mask(stack, MaskGrid(width=250, height=301, keep=keep))


@pytest.fixture(scope="module")
def scene_models(default_pool):
    """Per feature set: RF ``final_profile``, an unbounded RF whose trees
    need 16-bit codes, and an SVM."""
    cache = {}

    def models(model_id):
        if model_id not in cache:
            spec = MODEL_SPECS[model_id]
            unbounded = train_rf(default_pool, spec,
                                 RFHyperParams.matrix_profile(mtry=1, seed=1, n_trees=15))
            assert max(tree.n_leaves for tree in unbounded.trees) > 9
            cache[model_id] = (
                train_rf(default_pool, spec,
                         RFHyperParams.final_profile(spec.n_features, seed=1)),
                unbounded,
                train_svm(default_pool, spec, SVMHyperParams(seed=1)),
            )
        return cache[model_id]

    return models


class TestClassifySceneMatchesReference:
    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_labels_byte_identical(self, scene_models, blocky_scene, model_id):
        assert blocky_scene.width * blocky_scene.height > 2 * _BLOCK_ROWS
        for model in scene_models(model_id):
            labels = classify_scene(blocky_scene, model).labels
            assert labels.tobytes() == scene_oracle.classify_scene(blocky_scene, model).tobytes()
            assert set(np.unique(labels).tolist()) == {0, PLASTIC, WATER}

    @pytest.mark.parametrize("block_pixels", [1, 7, 1000, None], ids=str)
    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_streamed_blocks_byte_identical(self, scene_models, streamed_scene,
                                            monkeypatch, model_id, block_pixels):
        scene = streamed_scene
        assert scene.width * scene.height > 2 * experiment._BLOCK_PIXELS
        last_block = scene.grids["B8"].values.reshape(-1)[2 * experiment._BLOCK_PIXELS:]
        assert np.isnan(last_block).all()  # the default's last block is all nodata
        if block_pixels is not None:
            monkeypatch.setattr(experiment, "_BLOCK_PIXELS", block_pixels)
        if block_pixels is not None and block_pixels < 100:
            # rows 258..263, columns 28..51: plastic, water, lattice cells
            # and, from row 261, runs of nodata longer than a block
            scene = BandStack(
                grids={bid: Grid(width=24, height=6, values=g.values[258:264, 28:52].copy())
                       for bid, g in scene.grids.items()},
                resolution_m=scene.resolution_m)
        for model in scene_models(model_id):
            labels = classify_scene(scene, model).labels
            assert labels.tobytes() == scene_oracle.classify_scene(scene, model).tobytes()
            assert set(np.unique(labels).tolist()) == {0, PLASTIC, WATER}


def test_scene_memory_does_not_grow_with_the_scene(scene_models):
    # Beyond the stack and the labels, classify_scene holds one block's
    # features at a time; 4 KiB covers small objects such as the grid.
    peaks = {}
    for size in (256, 512):
        stack, _ = gen_scene(
            SynthConfig(n_plastic=0, n_water=0, seed=22), width=size, height=size,
            patches=(PatchSpec(row=10, col=30, height=40, width=60, fraction=0.9),))
        for model in scene_models("Model2")[::2]:
            tracemalloc.start()
            try:
                classify_scene(stack, model)
                peaks[size, type(model).__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for algo in ("RFModel", "SVMModel"):
        assert peaks[256, algo] <= 4.5e6
        assert peaks[512, algo] - peaks[256, algo] <= 512 * 512 - 256 * 256 + 4096
