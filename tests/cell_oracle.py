"""Reference for a matrix cell: the package's earlier table-based pipeline.

``split`` and ``run_cell`` are kept as they were: the split builds each class
view and sorts it canonically, the cell assembles its test case, splits it
into two tables, searches the train table with ``tuning.grid_search``, fits
the winner through the public ``train_rf`` / ``train_svm`` and featurises the
test table on its own.  Tests require ``experiment.run_cell`` to return an
equal ``MatrixCell`` and ``dataset.split`` to return the same tables.
"""

from __future__ import annotations

import math
from dataclasses import replace

from plastiscan.classifiers import (
    grid_search,
    predict_rf_batch,
    predict_svm_batch,
    train_rf,
    train_svm,
)
from plastiscan.dataset import (
    SampleTable,
    SplitResult,
    TestCaseSpec,
    build_test_case,
    feature_matrix,
)
from plastiscan.errors import ClassTooSmallError, PlastiscanError
from plastiscan.experiment import TRAIN_FRACTION, MatrixCell
from plastiscan.metrics import confusion, evaluate
from plastiscan.rng import derive_seed, seeded_rng
from plastiscan.spectra import LABEL_NAMES, MODEL_SPECS, PLASTIC, WATER


def split(table, train_fraction, seed):
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train = []
    test = []
    for label in (PLASTIC, WATER):
        rows = table.only(label).canonical().rows
        if len(rows) < 2:
            raise ClassTooSmallError(
                f"class {LABEL_NAMES[label]} has {len(rows)} samples; need at least 2"
            )
        rng = seeded_rng(seed, "split", label)
        order = rng.permutation(len(rows))
        n_train = math.floor(train_fraction * len(rows) + 0.5)
        train += [rows[i] for i in order[:n_train]]
        test += [rows[i] for i in order[n_train:]]
    return SplitResult(train=SampleTable(tuple(train)), test=SampleTable(tuple(test)),
                       seed=seed)


def run_cell(plastic_pool, water_pool, model_id, test_case_id, algo, grid, master_seed,
             rf_base=None, svm_base=None):
    spec = MODEL_SPECS[model_id]
    case = TestCaseSpec(test_case_id)
    cell_seed = derive_seed(master_seed, model_id, test_case_id, algo)
    try:
        table = build_test_case(
            plastic_pool, water_pool, case, seed=derive_seed(cell_seed, "assemble")
        )
        parts = split(table, TRAIN_FRACTION, seed=derive_seed(cell_seed, "split"))
        found = grid_search(
            parts.train, spec, algo, grid, seed=derive_seed(cell_seed, "tune"),
            rf_base=rf_base, svm_base=svm_base,
        )
        hp = replace(found.best, seed=derive_seed(cell_seed, "fit"))
        if algo == "rf":
            model = train_rf(parts.train, spec, hp)
            tuned = {"mtry": hp.mtry, "n_trees": hp.n_trees}
            predict = predict_rf_batch
        else:
            model = train_svm(parts.train, spec, hp)
            tuned = {"C": hp.C, "sigma": hp.sigma}
            predict = predict_svm_batch
        X, y = feature_matrix(parts.test, spec)
        cm = confusion(y, predict(model, X))
        return MatrixCell(
            model_id=model_id, test_case_id=test_case_id, algo=algo,
            tuned=tuned, report=evaluate(cm), cm=cm,
            n_train=len(parts.train), n_test=len(parts.test),
        )
    except PlastiscanError as exc:
        return MatrixCell(
            model_id=model_id, test_case_id=test_case_id, algo=algo,
            tuned={}, report=None, cm=None, n_train=0, n_test=0,
            error=f"{type(exc).__name__}: {exc}",
        )
