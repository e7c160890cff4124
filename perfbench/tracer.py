"""Spans around calls into plastiscan's public functions, recorded from outside.

The tracer replaces each traced function in every ``plastiscan`` module
namespace that holds it (the defining module and every module that imported
it by name), so calls between modules are seen without any change to the
package.  Spans are kept in memory as ``(name, start, end, parent, op)``
tuples and written out once, when the benchmark ends.  A span's self time is
its duration minus the time covered by its direct child spans; calls run on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module under plastiscan, function) pairs, one layer per module.
TRACED = (
    ("dataset", "feature_matrix"),
    ("dataset", "build_test_case"),
    ("dataset", "split"),
    ("spectra", "feature_vector"),
    ("rng", "seeded_rng"),
    ("synth", "gen_dataset"),
    ("synth", "gen_scene"),
    ("raster", "read_stack"),
    ("raster", "index_arrays"),
    ("raster", "write_label_map"),
    ("classifiers.forest", "train_rf"),
    ("classifiers.forest", "predict_rf_batch"),
    ("classifiers.svm", "train_svm"),
    ("classifiers.svm", "predict_svm_batch"),
    ("classifiers.tuning", "grid_search"),
    ("classifiers.io", "load_model"),
    ("metrics", "confusion"),
    ("metrics", "evaluate"),
    ("experiment", "run_cell"),
    ("experiment", "classify_scene"),
    ("cli", "main"),
)

# Per-layer metrics: (name, unit, better, what it should move).  Times and
# counts are per operation of the workload (one matrix cell, one scene, one
# request), so they do not depend on how many operations fit in a run; the
# synth times are per set-up.  Byte counts are computed from file and array
# sizes, not measured at the device.
LAYER_METRICS = (
    ("classifiers.forest.train_rf.s", "s/op", "lower", "ops_per_s on matrix"),
    ("classifiers.forest.train_rf.calls", "1/op", "lower", "ops_per_s on matrix"),
    ("classifiers.forest.trees", "1/op", "lower", "ops_per_s on matrix"),
    ("classifiers.forest.nodes", "1/op", "lower", "ops_per_s on matrix"),
    ("classifiers.svm.train_svm.s", "s/op", "lower", "ops_per_s on matrix"),
    ("classifiers.svm.train_svm.calls", "1/op", "lower", "ops_per_s on matrix"),
    ("classifiers.svm.support_vectors", "1/op", "lower", "ops_per_s on matrix"),
    ("classifiers.svm.kernel_entries_train", "1/op", "lower", "ops_per_s on matrix"),
    ("classifiers.tuning.grid_search.self_s", "s/op", "lower", "ops_per_s on matrix"),
    ("classifiers.tuning.cv_fits", "1/op", "lower", "ops_per_s on matrix"),
    ("dataset.feature_matrix.s", "s/op", "lower", "ops_per_s on matrix"),
    ("dataset.feature_matrix.rows", "1/op", "lower", "ops_per_s on matrix"),
    ("dataset.build_test_case.s", "s/op", "lower", "ops_per_s on matrix"),
    ("dataset.split.s", "s/op", "lower", "ops_per_s on matrix"),
    ("spectra.feature_vector.s", "s/op", "lower", "ops_per_s on matrix"),
    ("spectra.feature_vector.calls", "1/op", "lower", "ops_per_s on matrix"),
    ("rng.seeded_rng.s", "s/op", "lower", "ops_per_s on matrix"),
    ("rng.seeded_rng.calls", "1/op", "lower", "ops_per_s on matrix"),
    ("metrics.confusion.s", "s/op", "lower", "nothing (control)"),
    ("metrics.evaluate.s", "s/op", "lower", "nothing (control)"),
    ("experiment.run_cell.self_s", "s/op", "lower", "ops_per_s on matrix"),
    ("classifiers.forest.predict_rf_batch.s", "s/op", "lower",
     "mpix_per_s on scene; latency_ms.* on tiles; a small share of matrix"),
    ("classifiers.forest.tree_visits", "1/op", "lower",
     "mpix_per_s on scene; latency_ms.* on tiles"),
    ("classifiers.svm.predict_svm_batch.s", "s/op", "lower",
     "mpix_per_s and peak_rss_mb on scene"),
    ("classifiers.svm.kernel_evals", "1/op", "lower", "mpix_per_s and peak_rss_mb on scene"),
    ("raster.index_arrays.s", "s/op", "lower", "mpix_per_s on scene"),
    ("experiment.classify_scene.self_s", "s/op", "lower", "mpix_per_s on scene"),
    ("raster.read_stack.s", "s/op", "lower", "mpix_per_s on scene; latency_ms.* on tiles"),
    ("raster.read_stack.bytes", "B/op", "lower", "mpix_per_s on scene; latency_ms.* on tiles"),
    ("raster.write_label_map.s", "s/op", "lower", "mpix_per_s on scene; latency_ms.* on tiles"),
    ("raster.write_label_map.bytes", "B/op", "lower",
     "mpix_per_s on scene; latency_ms.* on tiles"),
    ("classifiers.io.load_model.s", "s/op", "lower",
     "latency_ms.* and ops_per_s on tiles; no share of scene"),
    ("classifiers.io.load_model.bytes", "B/op", "lower",
     "latency_ms.* and ops_per_s on tiles; no share of scene"),
    ("cli.main.self_s", "s/op", "lower", "latency_ms.* and ops_per_s on tiles"),
    ("synth.gen_dataset.s", "s", "lower", "setup_s on every workload"),
    ("synth.gen_scene.s", "s", "lower", "setup_s on scene and tiles"),
    ("trace.overhead_pct", "%", "lower", "nothing; traced minus untraced time per op"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(path) -> int:
    return Path(path).stat().st_size


# Counters taken at the same boundaries as the spans: f(args, kwargs, result)
# returns the increments for one call.
COUNTERS = {
    "classifiers.forest.train_rf": lambda a, k, m: {
        "classifiers.forest.trees": len(m.trees),
        "classifiers.forest.nodes": sum(len(t.feature) for t in m.trees),
    },
    "classifiers.svm.train_svm": lambda a, k, m: {
        "classifiers.svm.support_vectors": m.n_support,
        "classifiers.svm.kernel_entries_train": m.n_train ** 2,
    },
    "classifiers.forest.predict_rf_batch": lambda a, k, r: {
        "classifiers.forest.tree_visits": len(r) * len(_arg(a, k, 0, "model").trees),
    },
    "classifiers.svm.predict_svm_batch": lambda a, k, r: {
        "classifiers.svm.kernel_evals": len(r) * _arg(a, k, 0, "model").n_support,
    },
    "dataset.feature_matrix": lambda a, k, r: {"dataset.feature_matrix.rows": len(r[1])},
    "raster.read_stack": lambda a, k, s: {
        "raster.read_stack.bytes": _file_size(_arg(a, k, 0, "path"))
        + 4 * s.width * s.height * len(s.band_ids),
    },
    "raster.write_label_map": lambda a, k, r: {
        "raster.write_label_map.bytes": _file_size(_arg(a, k, 1, "path")),
    },
    "classifiers.io.load_model": lambda a, k, r: {
        "classifiers.io.load_model.bytes": _file_size(_arg(a, k, 0, "path")),
    },
}


class Tracer:
    """Records spans for the functions in ``targets`` while installed."""

    def __init__(self, targets=TRACED):
        self.targets = targets
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1  # operation the current spans belong to
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "plastiscan" or n.startswith("plastiscan.")) and m is not None]
        for module_name, func in self.targets:
            original = getattr(importlib.import_module(f"plastiscan.{module_name}"), func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and number of calls."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
        return total, own, calls

    def cv_fits(self) -> int:
        """Model fits made inside a grid search (the tuning layer's work)."""
        return sum(
            1 for name, _, _, parent, _ in self.spans
            if parent >= 0 and self.spans[parent][0] == "classifiers.tuning.grid_search"
            and name in ("classifiers.forest.train_rf", "classifiers.svm.train_svm")
        )

    def write(self, path: Path) -> None:
        """Tab-separated spans: name, start and end (s), parent row, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
