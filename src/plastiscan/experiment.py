"""The 5 x 5 x 2 experiment matrix and whole-scene classification.

Every combination of feature set (Model1..Model5), class-imbalance test case
(TC1..TC5), and algorithm (svm, rf) runs the same pipeline: assemble the test
case from the pools, split 70/30 stratified, grid-search on the 70%, train
the tuned model, evaluate on the held-out 30%.  A cell featurises its test
case once, in canonical order, and fits and scores slices of it: the split is
a row mask.  Each cell derives its own seed from (master_seed, model, case,
algo), so results are identical for any worker count and any cell execution
order.  A cell that fails with a data error is recorded and the run continues.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import csv
import numpy as np

from .classifiers import (
    GridSpec,
    RFHyperParams,
    RFModel,
    SVMHyperParams,
    SVMModel,
    predict_rf_batch,
    predict_svm_batch,
)
from .classifiers.tuning import _searcher
from .dataset import TEST_CASES, SampleTable, TestCaseSpec, feature_matrix
from .dataset import _canonical_test_case, _labels, _train_mask
from .errors import PlastiscanError
from .metrics import (
    METRIC_KEYS,
    ConfusionMatrix,
    MetricsReport,
    confusion,
    evaluate,
    format_value,
)
from .raster import BandStack, LabelGrid, feature_columns
from .rng import derive_seed
from .spectra import MODEL_SPECS

__all__ = [
    "ALGOS",
    "MODEL_IDS",
    "TRAIN_FRACTION",
    "MatrixCell",
    "ExperimentMatrix",
    "run_cell",
    "run_matrix",
    "export_matrix",
    "render_matrix_text",
    "classify_scene",
]

ALGOS: tuple[str, ...] = ("svm", "rf")
MODEL_IDS: tuple[str, ...] = tuple(MODEL_SPECS)
TRAIN_FRACTION = 0.70


@dataclass(frozen=True)
class MatrixCell:
    """Outcome of one (model, test case, algorithm) combination."""

    model_id: str
    test_case_id: str
    algo: str
    tuned: Mapping[str, float]  # searched hyperparameters that won
    report: MetricsReport | None
    cm: ConfusionMatrix | None
    n_train: int
    n_test: int
    error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tuned", dict(self.tuned))


@dataclass(frozen=True)
class ExperimentMatrix:
    cells: tuple[MatrixCell, ...]
    master_seed: int


def run_cell(
    plastic_pool: SampleTable,
    water_pool: SampleTable,
    model_id: str,
    test_case_id: str,
    algo: str,
    grid: GridSpec,
    master_seed: int,
    rf_base: RFHyperParams | None = None,
    svm_base: SVMHyperParams | None = None,
) -> MatrixCell:
    """One matrix cell end to end; data errors come back inside the cell."""
    spec = MODEL_SPECS[model_id]
    case = TestCaseSpec(test_case_id)
    cell_seed = derive_seed(master_seed, model_id, test_case_id, algo)
    try:
        table = _canonical_test_case(
            plastic_pool, water_pool, case, seed=derive_seed(cell_seed, "assemble")
        )
        # Any subset of these rows, taken in index order, is already in its own
        # canonical order: the order that train_rf and train_svm would sort into.
        y = _labels(table.rows)
        train = _train_mask(y, TRAIN_FRACTION, seed=derive_seed(cell_seed, "split"))[0]
        search, fit, predict = _searcher(
            y[train], spec, algo, grid, derive_seed(cell_seed, "tune"), rf_base, svm_base
        )
        X = feature_matrix(table, spec)[0]
        hp = replace(search(X[train]).best, seed=derive_seed(cell_seed, "fit"))
        model = fit(X[train], y[train], spec, hp)
        cm = confusion(y[~train], predict(model, X[~train]))
        tuned = ({"mtry": hp.mtry, "n_trees": hp.n_trees} if algo == "rf"
                 else {"C": hp.C, "sigma": hp.sigma})
        return MatrixCell(
            model_id=model_id, test_case_id=test_case_id, algo=algo,
            tuned=tuned, report=evaluate(cm), cm=cm,
            n_train=int(train.sum()), n_test=int((~train).sum()),
        )
    except PlastiscanError as exc:
        return MatrixCell(
            model_id=model_id, test_case_id=test_case_id, algo=algo,
            tuned={}, report=None, cm=None, n_train=0, n_test=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_cell_args(args) -> MatrixCell:
    return run_cell(*args)


def run_matrix(
    plastic_pool: SampleTable,
    water_pool: SampleTable,
    grid: GridSpec,
    master_seed: int,
    jobs: int = 1,
    rf_base: RFHyperParams | None = None,
    svm_base: SVMHyperParams | None = None,
    model_ids: Sequence[str] = MODEL_IDS,
    test_case_ids: Sequence[str] | None = None,
) -> ExperimentMatrix:
    """All 50 cells (5 feature sets x 5 test cases x 2 algorithms).

    ``jobs`` > 1 distributes cells over processes; per-cell seed derivation
    makes the result identical for every jobs value.  ``model_ids`` and
    ``test_case_ids`` restrict the grid to a sub-matrix; cell seeds depend
    only on the cell coordinates, so a sub-matrix cell matches the full run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    case_ids = tuple(c.case_id for c in TEST_CASES)
    if test_case_ids is None:
        test_case_ids = case_ids
    for model_id in model_ids:
        if model_id not in MODEL_SPECS:
            raise ValueError(f"unknown feature set {model_id!r}")
    for case_id in test_case_ids:
        if case_id not in case_ids:
            raise ValueError(f"unknown test case {case_id!r}")
    tasks = [
        (plastic_pool, water_pool, model_id, case_id, algo,
         grid, master_seed, rf_base, svm_base)
        for model_id in model_ids
        for case_id in test_case_ids
        for algo in ALGOS
    ]
    if jobs == 1:
        cells = [_run_cell_args(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell_args, tasks, chunksize=1))
    return ExperimentMatrix(cells=tuple(cells), master_seed=master_seed)


def export_matrix(matrix: ExperimentMatrix, path: str | Path) -> None:
    """CSV with one row per cell metric; values use shortest round-trip
    decimals, undefined metrics write "NA", failed cells carry their error."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "test_case", "algo", "metric", "value", "error"])
        for cell in matrix.cells:
            for key in METRIC_KEYS:
                if cell.report is None:
                    value, error = "NA", cell.error or "failed"
                else:
                    value, error = format_value(getattr(cell.report, key)), ""
                writer.writerow(
                    [cell.model_id, cell.test_case_id, cell.algo, key, value, error]
                )


def _tuned_text(cell: MatrixCell) -> str:
    if not cell.tuned:
        return "-"
    return ";".join(f"{k}={v!r}" for k, v in sorted(cell.tuned.items()))


def render_matrix_text(matrix: ExperimentMatrix) -> str:
    """Wide text table: one block per feature set, columns TCk x algorithm."""
    by_key = {(c.model_id, c.test_case_id, c.algo): c for c in matrix.cells}
    label_w = 18
    col_w = 9
    blocks: list[str] = []
    present_cases = {c.test_case_id for c in matrix.cells}
    columns = [
        (case.case_id, algo)
        for case in TEST_CASES
        if case.case_id in present_cases
        for algo in ALGOS
    ]
    present_models = {c.model_id for c in matrix.cells}
    for model_id in (m for m in MODEL_IDS if m in present_models):
        lines = [f"== {model_id} =="]
        head = " " * label_w + "".join(f"{f'{tc}/{algo}':>{col_w}}" for tc, algo in columns)
        lines.append(head)
        for key in METRIC_KEYS:
            row = f"{key:<{label_w}}"
            for tc, algo in columns:
                cell = by_key[(model_id, tc, algo)]
                text = (
                    "ERR" if cell.report is None
                    else format_value(getattr(cell.report, key), 3)
                )
                row += f"{text:>{col_w}}"
            lines.append(row)
        for tc, algo in columns:
            cell = by_key[(model_id, tc, algo)]
            if cell.error:
                lines.append(f"  {tc}/{algo} failed: {cell.error}")
            else:
                lines.append(f"  {tc}/{algo} tuned: {_tuned_text(cell)}")
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks)) + "\n"


# Pixels per classification block: 1.5 MiB of Model2 features, so a block's
# features, masks and codes stay within a 2 MiB per-core L2 cache.
_BLOCK_PIXELS = 1 << 15


def classify_scene(stack: BandStack, model: RFModel | SVMModel) -> LabelGrid:
    """Label every pixel of a stack with a trained model.

    Pixels with any missing band value or a degenerate index denominator get
    the nodata label 0.  The flattened scene is featurised and predicted in
    blocks of ``_BLOCK_PIXELS``, so memory beyond the stack and the labels
    does not grow with the scene.
    """
    height, width = stack.height, stack.width
    bands = {b: g.values.reshape(-1) for b, g in stack.grids.items()}
    predict = predict_rf_batch if isinstance(model, RFModel) else predict_svm_batch
    labels = np.zeros(height * width, dtype=np.uint8)
    for at in range(0, len(labels), _BLOCK_PIXELS):
        block = slice(at, at + _BLOCK_PIXELS)
        X = feature_columns({b: v[block] for b, v in bands.items()}, model.spec)
        valid = np.isfinite(X[:, 0])
        for j in range(1, X.shape[1]):
            valid &= np.isfinite(X[:, j])
        if valid.all():
            labels[block] = predict(model, X)
        elif valid.any():
            X = X[valid]  # rebinding frees the whole block's features first
            labels[block][valid] = predict(model, X)
        del X  # before the next block's features are built
    return LabelGrid(width=width, height=height, labels=labels.reshape(height, width))
