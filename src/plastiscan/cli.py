"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.

A JSON config file (``--config``) may hold any of the active subcommand's
options, keyed by flag name (dashes or underscores); explicit flags win over
the config, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

from . import __version__
from .classifiers import (
    DEFAULT_C_GRID,
    DEFAULT_SIGMA_GRID,
    GridSpec,
    RFHyperParams,
    SVMHyperParams,
    grid_search,
    load_model,
    save_model,
    train_rf,
    train_svm,
)
from .dataset import (
    FRACTION_CATEGORIES,
    SampleTable,
    load_samples,
    save_samples,
    spectral_profile,
)
from .errors import DataError, EmptyInputError, NumericError
from .experiment import classify_scene, export_matrix, render_matrix_text, run_matrix
from .metrics import (
    confusion,
    evaluate as evaluate_cm,
    format_value,
    metrics_rows,
    render_metrics_text,
)
from .raster import (
    BandStack,
    compute_index_raster,
    histogram_stretch,
    read_stack,
    write_label_map,
    write_stack,
)
from .spectra import INDEX_IDS, MODEL_SPECS, PLASTIC, WATER
from .synth import PatchSpec, SynthConfig, gen_dataset, gen_scene, load_endmembers

__all__ = ["main", "RunConfig"]

_USAGE_EXIT = 1
_DATA_EXIT = 2
_NUMERIC_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(f"{message}\n{self.format_usage()}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one subcommand plus its merged options."""

    command: str
    options: Mapping[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def __getitem__(self, key: str):
        return self.options[key]


# Per-command option table: name -> (default, required).  Defaults live here,
# not in argparse, so config-file values can sit between flags and defaults.
_OPTIONS: dict[str, dict[str, tuple[object, bool]]] = {
    "indices": {"in": (None, True), "out": (None, True), "index": (None, True)},
    "stretch": {
        "in": (None, True), "out": (None, True), "band": (None, False),
        "p_low": (2.0, False), "p_high": (98.0, False),
    },
    "synth-data": {
        "out": (None, True), "n_plastic": (54, False), "n_water": (270, False),
        "noise_sd": (0.005, False), "seed": (0, False),
        "endmembers": (None, False), "fractions": (None, False),
    },
    "synth-scene": {
        "out": (None, True), "truth_out": (None, False),
        "width": (64, False), "height": (64, False),
        "noise_sd": (0.005, False), "seed": (0, False),
        "endmembers": (None, False), "patch": ([], False),
    },
    "train": {
        "samples": (None, True), "model": (None, True), "algo": (None, True),
        "out": (None, True), "seed": (0, False),
        "n_trees": (None, False), "mtry": (None, False), "max_depth": (None, False),
        "min_samples_split": (None, False), "min_samples_leaf": (None, False),
        "max_leaf_nodes": (None, False),
        "c": (None, False), "sigma": (None, False),
        "tolerance": (None, False), "max_passes": (None, False),
    },
    "tune": {
        "samples": (None, True), "model": (None, True), "algo": (None, True),
        "seed": (0, False), "folds": (5, False), "out": (None, False),
        "mtry_grid": (None, False), "sigma_grid": (None, False),
        "c_grid": (None, False), "n_trees": (500, False),
    },
    "predict-scene": {
        "in": (None, True), "model_file": (None, True), "out": (None, True),
    },
    "evaluate": {"pred": (None, True), "truth": (None, True), "out": (None, False)},
    "matrix": {
        "plastic": (None, True), "water": (None, True), "out": (None, True),
        "seed": (0, False), "jobs": (1, False), "folds": (5, False),
        "mtry_grid": (None, False), "sigma_grid": (None, False),
        "c_grid": (None, False), "n_trees": (500, False),
        "text_out": (None, False),
    },
    "profile": {
        "samples": (None, True), "out": (None, True),
        "bands": ("B4,B6,B8,B11", False),
    },
}


_COMMAND_HELP = {
    "indices": "compute a spectral-index raster from a band stack",
    "stretch": "percentile-stretch bands onto [0, 1] for display",
    "synth-data": "generate a synthetic labelled sample pool CSV",
    "synth-scene": "generate a synthetic scene raster and truth map",
    "train": "train one classifier on a sample CSV",
    "tune": "grid-search hyperparameters with stratified CV",
    "predict-scene": "classify every pixel of a stack with a saved model",
    "evaluate": "score predicted labels against truth labels",
    "matrix": "run the feature-set x test-case x algorithm grid",
    "profile": "per-band mean reflectance by plastic-coverage bin",
}


def _is_number(value: object) -> bool:
    """A finite JSON number; bools, NaN and infinities are not."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_int(value: object) -> bool:
    return type(value) is int


def _list_of(test: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(test, value))


# Option kinds by option name; an option not listed is free text.  A kind holds
# the flag's add_argument keywords, then what a config-file value may be other
# than a string (its wording in error messages, and its test).
_Kind = tuple[dict[str, object], str, Callable[[object], bool]]
_TEXT: _Kind = ({}, "", lambda value: False)
_KINDS: dict[str, _Kind] = {
    **dict.fromkeys((
        "n_plastic", "n_water", "seed", "width", "height", "n_trees", "mtry", "max_depth",
        "min_samples_split", "min_samples_leaf", "max_leaf_nodes", "max_passes", "folds", "jobs",
    ), ({"type": int}, "an integer", _is_int)),
    **dict.fromkeys(("noise_sd", "p_low", "p_high", "c", "sigma", "tolerance"),
                    ({"type": float}, "a number", _is_number)),
    **dict.fromkeys(("sigma_grid", "c_grid"), ({}, "a list of numbers", _list_of(_is_number))),
    "mtry_grid": ({}, "a list of integers", _list_of(_is_int)),
    "model": ({}, "an integer", _is_int),
    "index": ({"choices": INDEX_IDS}, "", lambda value: False),
    "algo": ({"choices": ("svm", "rf")}, "", lambda value: False),
    "patch": ({"action": "append", "help": "row,col,height,width,fraction[,endmember]"},
              "a list of strings", _list_of(lambda item: isinstance(item, str))),
    "fractions": ({"help": 'e.g. ">40%%:0.6,30-40%%:0.4"'}, "an object of numbers",
                  lambda value: isinstance(value, dict) and all(map(_is_number, value.values()))),
}


def _build_parser(only: str | None = None) -> _Parser:
    """The full parser, or with ``only`` a parser that knows just that one
    subcommand.  For an argv whose subcommand is ``only`` the two parse
    alike, with the same help, usage and error text; building one
    subparser's options is a fraction of the cost of building all ten."""
    parser = _Parser(prog="plastiscan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"plastiscan {__version__}")
    parser.add_argument("--config", help="JSON file of option defaults for the subcommand")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in _OPTIONS if only is None else (only,):
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for name in _OPTIONS[command]:
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_KINDS.get(name, _TEXT)[0])
    return parser


def _find_command(argv: list[str] | None) -> str | None:
    """The subcommand that ``argv`` runs, or None when the full parser must
    run: no or an unknown command, help or version asked for before it, or a
    top-level error.

    argparse itself finds it, over the option strings of the full parser's
    top level (so abbreviations resolve alike), with the command a plain
    positional that takes, like the full parser's subparsers action, the
    command and the rest of ``argv`` unparsed.
    """
    finder = _Parser(prog="plastiscan", add_help=False)
    finder.add_argument("-h", "--help", "--version", dest="full", action="store_true")
    finder.add_argument("--config")
    finder.add_argument("command", nargs=argparse.PARSER)
    try:
        args = finder.parse_args(argv)
    except _UsageError:
        return None
    command = args.command[0]
    return None if args.full or command not in _OPTIONS else command


def _check_config_value(key: str, name: str, value: object) -> None:
    flag, wording, test = _KINDS.get(name, _TEXT)
    choices = flag.get("choices")
    if choices is not None and value not in choices:
        raise _UsageError(f"config key {key!r} must be one of {', '.join(choices)}, "
                          f"got {json.dumps(value)}")
    if not isinstance(value, str) and not test(value):
        expected = f"{wording} or a string" if wording else "a string"
        raise _UsageError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    convert = flag.get("type")
    if isinstance(value, str) and convert is not None:
        try:
            convert(value)
        except ValueError:
            raise _UsageError(
                f"config key {key!r} must be {wording}, got {json.dumps(value)}"
            ) from None


def _merge_options(command: str, args: argparse.Namespace, config_path: str | None) -> RunConfig:
    table = _OPTIONS[command]
    config: dict[str, object] = {}
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read config file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError("config file must hold a JSON object")
        for key, value in raw.items():
            norm = key.replace("-", "_")
            if norm not in table:
                raise _UsageError(
                    f"config key {key!r} is not an option of '{command}'"
                )
            _check_config_value(key, norm, value)
            config[norm] = value
    merged: dict[str, object] = {}
    for name, (default, required) in table.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
        elif name in config:
            merged[name] = config[name]
        else:
            merged[name] = default
        if required and merged[name] is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required for '{command}'")
    return RunConfig(command=command, options=merged)


# --- helpers ----------------------------------------------------------------

def _parse_model(token) -> str:
    text = str(token)
    spec_id = text if text.startswith("Model") else f"Model{text}"
    if spec_id not in MODEL_SPECS:
        raise _UsageError(f"--model must be one of 1..5 (or Model1..Model5), got {token!r}")
    return spec_id


def _parse_list(token, what: str, cast: Callable, kind: str) -> tuple:
    if isinstance(token, (list, tuple)):
        return tuple(cast(v) for v in token)
    try:
        return tuple(cast(tok) for tok in str(token).split(",") if tok.strip())
    except ValueError:
        raise _UsageError(f"--{what} must be a comma-separated {kind} list, got {token!r}")


def _write_csv(path, header: list[str], rows) -> None:
    with Path(str(path)).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _grid_from(cfg: RunConfig) -> GridSpec:
    return GridSpec(
        mtry_grid=(
            _parse_list(cfg["mtry_grid"], "mtry-grid", int, "integer")
            if cfg["mtry_grid"] else None
        ),
        sigma_grid=(
            _parse_list(cfg["sigma_grid"], "sigma-grid", float, "number")
            if cfg["sigma_grid"] else DEFAULT_SIGMA_GRID
        ),
        c_grid=(
            _parse_list(cfg["c_grid"], "c-grid", float, "number")
            if cfg["c_grid"] else DEFAULT_C_GRID
        ),
        cv_folds=int(cfg["folds"]),
    )


def _parse_fractions(token) -> dict[str, float]:
    dist: dict[str, float] = {}
    parts = token.items() if isinstance(token, dict) else (
        pair.split(":") for pair in str(token).split(",")
    )
    for item in parts:
        if len(item) != 2:
            raise _UsageError(f"--fractions entries must look like 'bin:prob', got {item!r}")
        name, prob = item
        name = name.strip()
        if name not in FRACTION_CATEGORIES:
            raise _UsageError(
                f"unknown fraction bin {name!r}; expected one of {', '.join(FRACTION_CATEGORIES)}"
            )
        try:
            dist[name] = float(prob)
        except ValueError:
            raise _UsageError(f"--fractions probability {prob!r} is not a number")
    return dist


def _parse_patch(token: str) -> PatchSpec:
    parts = [p.strip() for p in token.split(",")]
    if len(parts) not in (5, 6):
        raise _UsageError(
            f"--patch must be row,col,height,width,fraction[,endmember], got {token!r}"
        )
    try:
        row, col, height, width = (int(p) for p in parts[:4])
        fraction = float(parts[4])
    except ValueError:
        raise _UsageError(f"--patch has non-numeric fields: {token!r}")
    if len(parts) == 6:
        return PatchSpec(row, col, height, width, fraction, endmember=parts[5])
    return PatchSpec(row, col, height, width, fraction)


def _load_pool(path: str, label: int, what: str) -> SampleTable:
    pool = load_samples(path).only(label)
    if len(pool) == 0:
        raise EmptyInputError(f"{path}: no {what} samples")
    return pool


# --- command implementations -------------------------------------------------

def _cmd_indices(cfg: RunConfig) -> None:
    stack = read_stack(cfg["in"])
    grid = compute_index_raster(stack, cfg["index"])
    out = BandStack(
        grids={cfg["index"]: grid},
        resolution_m=stack.resolution_m,
        provenance=f"{cfg['index']} from {Path(str(cfg['in'])).name}",
    )
    write_stack(out, cfg["out"])
    print(f"wrote {cfg['out']} ({cfg['index']}, {grid.width}x{grid.height})")


def _cmd_stretch(cfg: RunConfig) -> None:
    stack = read_stack(cfg["in"])
    band_ids = [cfg["band"]] if cfg["band"] else list(stack.band_ids)
    grids = {bid: histogram_stretch(stack.band(bid), float(cfg["p_low"]), float(cfg["p_high"]))
             for bid in band_ids}
    out = BandStack(
        grids=grids,
        resolution_m=stack.resolution_m,
        provenance=f"stretch p{cfg['p_low']}-p{cfg['p_high']} of {Path(str(cfg['in'])).name}",
    )
    write_stack(out, cfg["out"])
    print(f"wrote {cfg['out']} ({len(band_ids)} band(s))")


def _cmd_synth_data(cfg: RunConfig) -> None:
    kwargs = {}
    if cfg["endmembers"]:
        kwargs["endmembers"] = load_endmembers(cfg["endmembers"])
    if cfg["fractions"]:
        kwargs["fraction_distribution"] = _parse_fractions(cfg["fractions"])
    config = SynthConfig(
        n_plastic=int(cfg["n_plastic"]), n_water=int(cfg["n_water"]),
        seed=int(cfg["seed"]), noise_sd=float(cfg["noise_sd"]), **kwargs,
    )
    table = gen_dataset(config)
    save_samples(table, cfg["out"])
    print(f"wrote {cfg['out']} ({config.n_plastic} plastic + {config.n_water} water)")


def _cmd_synth_scene(cfg: RunConfig) -> None:
    kwargs = {}
    if cfg["endmembers"]:
        kwargs["endmembers"] = load_endmembers(cfg["endmembers"])
    config = SynthConfig(
        n_plastic=0, n_water=0, seed=int(cfg["seed"]),
        noise_sd=float(cfg["noise_sd"]), **kwargs,
    )
    raw_patches = cfg["patch"] or []
    if isinstance(raw_patches, str):
        raw_patches = [raw_patches]
    patches = tuple(_parse_patch(tok) for tok in raw_patches)
    stack, truth = gen_scene(config, int(cfg["width"]), int(cfg["height"]), patches)
    write_stack(stack, cfg["out"])
    message = f"wrote {cfg['out']} ({stack.width}x{stack.height}, {len(patches)} patch(es))"
    if cfg["truth_out"]:
        write_label_map(truth, cfg["truth_out"])
        message += f" and {cfg['truth_out']}"
    print(message)


def _rf_hp_from(cfg: RunConfig, n_features: int) -> RFHyperParams:
    hp = RFHyperParams.final_profile(n_features, seed=int(cfg["seed"]))
    overrides = {}
    for name in ("n_trees", "mtry", "max_depth", "min_samples_split", "min_samples_leaf",
                 "max_leaf_nodes"):
        if cfg[name] is not None:
            overrides[name] = int(cfg[name])
    return replace(hp, **overrides)


def _svm_hp_from(cfg: RunConfig) -> SVMHyperParams:
    hp = SVMHyperParams(seed=int(cfg["seed"]))
    overrides = {}
    if cfg["c"] is not None:
        overrides["C"] = float(cfg["c"])
    if cfg["sigma"] is not None:
        overrides["sigma"] = float(cfg["sigma"])
    if cfg["tolerance"] is not None:
        overrides["tolerance"] = float(cfg["tolerance"])
    if cfg["max_passes"] is not None:
        overrides["max_passes"] = int(cfg["max_passes"])
    return replace(hp, **overrides)


def _cmd_train(cfg: RunConfig) -> None:
    table = load_samples(cfg["samples"])
    spec = MODEL_SPECS[_parse_model(cfg["model"])]
    if cfg["algo"] == "rf":
        model = train_rf(table, spec, _rf_hp_from(cfg, spec.n_features))
        summary = f"oob_error={format_value(model.oob_error)}"
    else:
        model = train_svm(table, spec, _svm_hp_from(cfg))
        summary = f"n_support={model.n_support}"
    save_model(model, cfg["out"])
    print(f"wrote {cfg['out']} ({cfg['algo']} {spec.spec_id}, {summary})")


def _cmd_tune(cfg: RunConfig) -> None:
    table = load_samples(cfg["samples"])
    spec = MODEL_SPECS[_parse_model(cfg["model"])]
    grid = _grid_from(cfg)
    rf_base = RFHyperParams(n_trees=int(cfg["n_trees"]), seed=int(cfg["seed"]))
    svm_base = SVMHyperParams(seed=int(cfg["seed"]))
    result = grid_search(
        table, spec, cfg["algo"], grid, int(cfg["seed"]),
        rf_base=rf_base, svm_base=svm_base,
    )
    searched = result.cv_table[0].params
    print("best: " + " ".join(f"{k}={getattr(result.best, k)!r}" for k in searched))
    rows = [
        [";".join(f"{k}={v!r}" for k, v in entry.params.items()), repr(entry.mean_accuracy),
         ";".join(repr(a) for a in entry.fold_accuracies)]
        for entry in result.cv_table
    ]
    for params, mean, _ in rows:
        print(f"  {params}: mean_accuracy={mean}")
    if cfg["out"]:
        _write_csv(cfg["out"], ["params", "mean_accuracy", "fold_accuracies"], rows)
        print(f"wrote {cfg['out']}")


def _cmd_predict_scene(cfg: RunConfig) -> None:
    stack = read_stack(cfg["in"])
    model = load_model(cfg["model_file"])
    labels = classify_scene(stack, model)
    write_label_map(labels, cfg["out"])
    n_plastic = int((labels.labels == PLASTIC).sum())
    n_water = int((labels.labels == WATER).sum())
    n_nodata = int((labels.labels == 0).sum())
    print(f"wrote {cfg['out']} (plastic={n_plastic} water={n_water} nodata={n_nodata})")


def _labels_by_key(table: SampleTable) -> dict[tuple, int]:
    return {sample.key(): sample.label for sample in table.rows}


def _cmd_evaluate(cfg: RunConfig) -> None:
    pred = _labels_by_key(load_samples(cfg["pred"]))
    truth = _labels_by_key(load_samples(cfg["truth"]))
    if set(pred) != set(truth):
        only_pred = len(set(pred) - set(truth))
        only_truth = len(set(truth) - set(pred))
        raise DataError(
            f"prediction and truth keys differ ({only_pred} only in --pred, "
            f"{only_truth} only in --truth)"
        )
    keys = sorted(truth)
    cm = confusion([truth[k] for k in keys], [pred[k] for k in keys])
    report = evaluate_cm(cm)
    print(
        f"confusion: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn}"
    )
    print(render_metrics_text(report), end="")
    if cfg["out"]:
        _write_csv(cfg["out"], ["metric", "value"],
                   [[key, format_value(value)] for key, value in metrics_rows(report)])
        print(f"wrote {cfg['out']}")


def _cmd_matrix(cfg: RunConfig) -> None:
    plastic = _load_pool(str(cfg["plastic"]), PLASTIC, "plastic")
    water = _load_pool(str(cfg["water"]), WATER, "water")
    grid = _grid_from(cfg)
    matrix = run_matrix(
        plastic, water, grid, int(cfg["seed"]), jobs=int(cfg["jobs"]),
        rf_base=RFHyperParams(n_trees=int(cfg["n_trees"])),
    )
    export_matrix(matrix, cfg["out"])
    failed = [c for c in matrix.cells if c.error]
    print(f"wrote {cfg['out']} ({len(matrix.cells)} cells, {len(failed)} failed)")
    for cell in failed:
        print(f"  {cell.model_id}/{cell.test_case_id}/{cell.algo}: {cell.error}")
    if cfg["text_out"]:
        Path(str(cfg["text_out"])).write_text(render_matrix_text(matrix), encoding="utf-8")
        print(f"wrote {cfg['text_out']}")


def _cmd_profile(cfg: RunConfig) -> None:
    table = load_samples(cfg["samples"])
    bands = tuple(tok.strip() for tok in str(cfg["bands"]).split(",") if tok.strip())
    profile = spectral_profile(table, bands)
    _write_csv(cfg["out"], ["category", "count", "band", "mean_reflectance"], [
        [category, profile.counts[gi], band_id, repr(float(profile.means[gi, bi]))]
        for gi, category in enumerate(profile.categories)
        for bi, band_id in enumerate(profile.bands)
    ])
    print(f"wrote {cfg['out']} ({len(profile.categories)} bins x {len(profile.bands)} bands)")


_HANDLERS: dict[str, Callable[[RunConfig], None]] = {
    "indices": _cmd_indices,
    "stretch": _cmd_stretch,
    "synth-data": _cmd_synth_data,
    "synth-scene": _cmd_synth_scene,
    "train": _cmd_train,
    "tune": _cmd_tune,
    "predict-scene": _cmd_predict_scene,
    "evaluate": _cmd_evaluate,
    "matrix": _cmd_matrix,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser(_find_command(argv))
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError(f"a subcommand is required\n{parser.format_usage()}")
        cfg = _merge_options(args.command, args, args.config)
        _HANDLERS[args.command](cfg)
        return 0
    except _UsageError as exc:
        print(f"plastiscan: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except ValueError as exc:
        print(f"plastiscan: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except NumericError as exc:
        print(f"plastiscan: numeric failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except (DataError, OSError) as exc:
        print(f"plastiscan: {exc}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
