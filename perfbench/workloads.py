"""The three benchmark workloads, driven through plastiscan's public API.

Each workload builds its inputs from the seed in ``setup`` and then runs
``step`` in a closed loop with one client.  A step returns a ``Step``: how
many operations it completed, how many failed, the megapixels it labelled,
the latency of each operation and the busy time of the step.  Output checks
that are cheap run inside ``step`` (outside its timing); the rest run in
``check`` after the timed phase.  Every problem found is kept in
``problems``.
"""

from __future__ import annotations

import hashlib
import io
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Traced functions are called through their modules, so that the tracer,
# which rebinds module attributes, sees these calls too.
from plastiscan import cli, experiment, raster, synth
from plastiscan.classifiers import forest, svm
from plastiscan.classifiers import io as model_io
from plastiscan.classifiers import GridSpec, RFHyperParams, SVMHyperParams
from plastiscan.spectra import MODEL_SPECS, PLASTIC, WATER
from plastiscan.synth import PatchSpec, SynthConfig


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark runs FULL, the smoke test a tiny copy."""

    n_plastic: int = 54  # the paper's pool
    n_water: int = 270
    mtry_grid: tuple[int, ...] = (1, 2)  # two points per searched parameter
    sigma_grid: tuple[float, ...] = (0.03, 0.09)
    c_grid: tuple[float, ...] = (2.0, 10.0)
    cv_folds: int = 2
    matrix_trees: int = 25
    scene_px: int = 256
    n_scenes: int = 4
    tile_px: int = 64
    n_tiles: int = 16
    setup_reps: int = 5


FULL = Sizes()

# Output floors, below the minimum measured over seeds 0..15 at FULL:
# cell accuracy 0.656, scene agreement 0.984 (RF) and 0.999 (SVM).
MATRIX_MIN_ACCURACY = 0.6
SCENE_MIN_AGREEMENT = {"rf": 0.97, "svm": 0.99}

# The sample pool stands for the paper's one labelled dataset and is the same
# for every --seed, which drives everything else: the matrix master seed
# (test-case draws, splits, folds, bootstraps), model seeds, scenes, tiles.
# Pools drawn per seed changed the matrix's work by up to +-25% (forest nodes
# 32k..46k per pass), wider than any regression bound; master seeds by +-4%.
POOL_SEED = 0
SMO_MAX_PASSES = 5000
FEATURE_SET = "Model2"  # B6, B8, B11, FDI, PI, KNDVI: bands and three indices


@dataclass
class Step:
    ops: int
    failed: int
    mpix: float
    latencies: list[float]
    busy: float


def _pools(sizes: Sizes):
    config = SynthConfig(n_plastic=sizes.n_plastic, n_water=sizes.n_water, seed=POOL_SEED)
    pool = synth.gen_dataset(config)
    return pool, pool.only(PLASTIC), pool.only(WATER)


def _patches(rng: np.random.Generator, size: int, count: int) -> tuple[PatchSpec, ...]:
    patches = []
    for _ in range(count):
        height, width = (int(v) for v in rng.integers(max(2, size // 16), max(3, size // 5), 2))
        row, col = (int(v) for v in rng.integers(0, size - max(height, width), 2))
        patches.append(PatchSpec(row, col, height, width, float(rng.uniform(0.5, 0.9))))
    return tuple(patches)


def _write_scenes(workdir: Path, seed: int, size: int, count: int, stem: str):
    """Scenes with planted patches, written as bsqf/1; returns paths and truths."""
    paths, truths = [], []
    for i in range(count):
        rng = np.random.default_rng([seed, i, size])
        patches = _patches(rng, size, 3 if size >= 128 else 1)
        config = SynthConfig(n_plastic=0, n_water=0, seed=int(rng.integers(1 << 62)))
        stack, truth = synth.gen_scene(config, size, size, patches)
        path = workdir / f"{stem}{i}.json"
        raster.write_stack(stack, path)
        paths.append(path)
        truths.append(truth.labels)
    return paths, truths


class Matrix:
    """All 50 cells of run_matrix on the paper-sized pool, a reduced CV grid."""

    name = "matrix"
    min_steps = 2  # the CSV must repeat byte for byte across passes

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.grid = GridSpec(mtry_grid=sizes.mtry_grid, sigma_grid=sizes.sigma_grid,
                             c_grid=sizes.c_grid, cv_folds=sizes.cv_folds)
        self.rf_base = RFHyperParams.matrix_profile(mtry=1, n_trees=sizes.matrix_trees)
        # At the default 1000 passes SMO stops short of the KKT tolerance on
        # some pools (seed 7, Model5/TC4, C=10, sigma=0.09) and the cell fails.
        self.svm_base = SVMHyperParams(max_passes=SMO_MAX_PASSES)
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def setup(self) -> None:
        _, self.plastic, self.water = _pools(self.sizes)

    def step(self, clock) -> Step:
        first_span = len(clock.spans)
        csv_path = self.workdir / "matrix.csv"
        start = perf_counter()
        matrix = experiment.run_matrix(self.plastic, self.water, self.grid, self.seed,
                                       jobs=1, rf_base=self.rf_base, svm_base=self.svm_base)
        experiment.export_matrix(matrix, csv_path)
        busy = perf_counter() - start
        self.digests.add(hashlib.sha256(csv_path.read_bytes()).hexdigest())
        failed = 0
        for cell in matrix.cells:
            where = f"{cell.model_id}/{cell.test_case_id}/{cell.algo}"
            if cell.error:
                failed += 1
                self.problems.append(f"cell {where} failed: {cell.error}")
            elif not float(cell.report.accuracy) >= MATRIX_MIN_ACCURACY:
                self.problems.append(
                    f"cell {where} accuracy {cell.report.accuracy} < {MATRIX_MIN_ACCURACY}")
        latencies = [end - start for name, start, end, _, _ in clock.spans[first_span:]
                     if name == "experiment.run_cell"]
        return Step(ops=len(matrix.cells), failed=failed,
                    mpix=sum(c.n_test for c in matrix.cells) / 1e6,
                    latencies=latencies, busy=busy)

    def check(self) -> None:
        if len(self.digests) != 1:
            self.problems.append(f"matrix CSV differs across passes: {sorted(self.digests)}")

    def summary(self) -> str:
        return f"matrix CSV sha256 {' '.join(sorted(self.digests))}"


def _train_models(seed: int, sizes: Sizes):
    pool, _, _ = _pools(sizes)
    spec = MODEL_SPECS[FEATURE_SET]
    rf = forest.train_rf(pool, spec, RFHyperParams.final_profile(spec.n_features, seed=seed))
    return pool, spec, rf


class Scene:
    """Read, classify with RF and SVM, and write whole scenes."""

    name = "scene"
    min_steps = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.problems: list[str] = []
        self.first: dict[tuple[int, str], np.ndarray] = {}
        self.last: dict[tuple[int, str], np.ndarray] = {}
        self.k = 0

    def setup(self) -> None:
        pool, spec, rf = _train_models(self.seed, self.sizes)
        self.models = {"rf": rf, "svm": svm.train_svm(pool, spec, SVMHyperParams(seed=self.seed))}
        size = self.sizes.scene_px
        self.paths, self.truths = _write_scenes(
            self.workdir, self.seed, size, self.sizes.n_scenes, "scene")

    def _out(self, i: int, algo: str) -> Path:
        return self.workdir / f"scene{i}-{algo}.pgm"

    def step(self, clock) -> Step:
        i = self.k % len(self.paths)
        self.k += 1
        start = perf_counter()
        try:
            stack = raster.read_stack(self.paths[i])
            labels = {}
            for algo, model in self.models.items():
                labels[algo] = experiment.classify_scene(stack, model)
                raster.write_label_map(labels[algo], self._out(i, algo))
        except Exception:  # a failed scene is counted and the loop goes on
            self.problems.append(f"scene {i}: {traceback.format_exc(limit=3).strip()}")
            return Step(ops=1, failed=1, mpix=0.0, latencies=[], busy=perf_counter() - start)
        busy = perf_counter() - start
        for algo, grid in labels.items():
            agreement = float(np.mean(grid.labels == self.truths[i]))
            if not agreement >= SCENE_MIN_AGREEMENT[algo]:
                self.problems.append(
                    f"scene {i} {algo} agreement {agreement:.4f} < {SCENE_MIN_AGREEMENT[algo]}")
            first = self.first.setdefault((i, algo), grid.labels)
            if not np.array_equal(first, grid.labels):
                self.problems.append(f"scene {i} {algo} labels changed between repeats")
            self.last[(i, algo)] = grid.labels
        size = self.sizes.scene_px
        return Step(ops=1, failed=0, mpix=size * size / 1e6, latencies=[busy], busy=busy)

    def check(self) -> None:
        for (i, algo), labels in self.last.items():
            if not np.array_equal(raster.read_label_map(self._out(i, algo)).labels, labels):
                self.problems.append(f"scene {i} {algo}: written label map differs")

    def summary(self) -> str:
        return f"scene {self.sizes.scene_px}x{self.sizes.scene_px}, {len(self.paths)} scenes"


class Tiles:
    """One client sending `plastiscan predict-scene` requests for small tiles."""

    name = "tiles"
    min_steps = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.problems: list[str] = []
        self.k = 0

    def setup(self) -> None:
        _, _, rf = _train_models(self.seed, self.sizes)
        self.model_path = self.workdir / "tiles-rf.json"
        model_io.save_model(rf, self.model_path)
        self.paths, _ = _write_scenes(
            self.workdir, self.seed, self.sizes.tile_px, self.sizes.n_tiles, "tile")
        model = model_io.load_model(self.model_path)
        self.expected = [experiment.classify_scene(raster.read_stack(p), model).labels for p in self.paths]

    def step(self, clock) -> Step:
        i = self.k % len(self.paths)
        self.k += 1
        out = self.workdir / f"tile{i}.pgm"
        argv = ["predict-scene", "--in", str(self.paths[i]),
                "--model-file", str(self.model_path), "--out", str(out)]
        captured = io.StringIO()
        with redirect_stdout(captured), redirect_stderr(captured):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a request that raises is counted as failed
                code = None
                captured.write(traceback.format_exc(limit=3))
            busy = perf_counter() - start
        if code != 0:
            self.problems.append(f"request {self.k} (tile {i}) exited {code}: "
                                 f"{captured.getvalue().strip()}")
            return Step(ops=1, failed=1, mpix=0.0, latencies=[busy], busy=busy)
        if not np.array_equal(raster.read_label_map(out).labels, self.expected[i]):
            self.problems.append(f"request {self.k} (tile {i}): labels differ from classify_scene")
        size = self.sizes.tile_px
        return Step(ops=1, failed=0, mpix=size * size / 1e6, latencies=[busy], busy=busy)

    def check(self) -> None:
        pass

    def summary(self) -> str:
        return f"tiles {self.sizes.tile_px}x{self.sizes.tile_px}, {len(self.paths)} distinct"


WORKLOADS = {cls.name: cls for cls in (Matrix, Scene, Tiles)}
