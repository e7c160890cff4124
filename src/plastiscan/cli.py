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
from dataclasses import replace
from pathlib import Path
from typing import Callable

from . import __version__
from .classifiers import (
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
from .errors import DataError, EmptyInputError, MissingBandError, NumericError, _read_json
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
from .synth import DEFAULT_FRACTIONS, PatchSpec, SynthConfig, gen_dataset, gen_scene, load_endmembers

__all__ = ["main"]

_USAGE_EXIT = 1
_DATA_EXIT = 2
_NUMERIC_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(f"{message}\n{self.format_usage()}")

    def _get_values(self, action, arg_strings):
        # argparse passes a "--" that ends the top-level options on to the
        # command, as if it were the command; drop it, so that
        # "plastiscan -- evaluate" runs evaluate.
        if action.nargs == argparse.PARSER and arg_strings[:1] == ["--"]:
            arg_strings = arg_strings[1:]
        return super()._get_values(action, arg_strings)


# --- option values ------------------------------------------------------------
# Each option kind has one parse function: its flag's argparse ``type``, which
# _check_config_value also applies to a config-file value.  A parse function
# raises ValueError for argparse's own message, or _UsageError for its own.

def _is_number(value: object) -> bool:
    """A finite JSON number; bools, NaN and infinities are not."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_int(value: object) -> bool:
    return type(value) is int


def _list_of(test: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(test, value))


def _parse_model(token) -> str:
    text = str(token)
    spec_id = text if text.startswith("Model") else f"Model{text}"
    if spec_id not in MODEL_SPECS:
        raise _UsageError(f"--model must be one of 1..5 (or Model1..Model5), got {token!r}")
    return spec_id


def _comma_list(cast: Callable, flag: str, kind: str) -> Callable[[object], tuple | None]:
    """Parser of a comma-separated list, or of a config file's JSON list, into a
    tuple; an empty value parses to None, which keeps the built-in default."""
    def parse(token) -> tuple | None:
        if not token:
            return None
        items = token if isinstance(token, list) else [t for t in token.split(",") if t.strip()]
        try:
            return tuple(map(cast, items))
        except ValueError:
            raise _UsageError(
                f"--{flag} must be a comma-separated {kind} list, got {token!r}") from None
    return parse


def _parse_fractions(token) -> dict[str, float]:
    """``bin:prob,...`` or a config file's JSON object; empty parses to {}."""
    dist: dict[str, float] = {}
    parts = token.items() if isinstance(token, dict) else (
        [pair.split(":") for pair in token.split(",")] if token else []
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


def _parse_patch(token: str) -> tuple:
    """The PatchSpec fields in ``row,col,height,width,fraction[,endmember]``."""
    parts = [p.strip() for p in token.split(",")]
    if len(parts) not in (5, 6):
        raise _UsageError(
            f"--patch must be row,col,height,width,fraction[,endmember], got {token!r}"
        )
    try:
        return (*map(int, parts[:4]), float(parts[4]), *parts[5:])
    except ValueError:
        raise _UsageError(f"--patch has non-numeric fields: {token!r}")


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
    "mtry_grid": ({"type": _comma_list(int, "mtry-grid", "integer")}, "a list of integers",
                  _list_of(_is_int)),
    "sigma_grid": ({"type": _comma_list(float, "sigma-grid", "number")}, "a list of numbers",
                   _list_of(_is_number)),
    "c_grid": ({"type": _comma_list(float, "c-grid", "number")}, "a list of numbers",
               _list_of(_is_number)),
    "bands": ({"type": _comma_list(str.strip, "bands", "name")}, "", lambda value: False),
    "model": ({"type": _parse_model}, "an integer", _is_int),
    "index": ({"choices": INDEX_IDS}, "", lambda value: False),
    "algo": ({"choices": ("svm", "rf")}, "", lambda value: False),
    "patch": ({"type": _parse_patch, "action": "append",
               "help": "row,col,height,width,fraction[,endmember]"},
              "a list of strings", _list_of(lambda item: isinstance(item, str))),
    "fractions": ({"type": _parse_fractions, "help": 'e.g. ">40%%:0.6,30-40%%:0.4"'},
                  "an object of numbers",
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
    for command in _COMMANDS if only is None else (only,):
        help_text, _, options = _COMMANDS[command]
        # a flag not given sets no attribute, so _merge_options can tell
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for name in options:
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
    return None if args.full or command not in _COMMANDS else command


def _check_config_value(key: str, name: str, value: object) -> object:
    """The value of config key ``key`` for option ``name``, parsed as its flag's."""
    flag, wording, test = _KINDS.get(name, _TEXT)
    choices = flag.get("choices")
    if choices is not None and value not in choices:
        raise _UsageError(f"config key {key!r} must be one of {', '.join(choices)}, "
                          f"got {json.dumps(value)}")
    if not isinstance(value, str) and not test(value):
        expected = f"{wording} or a string" if wording else "a string"
        raise _UsageError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    parse = flag.get("type", lambda token: token)
    if flag.get("action") == "append":  # a list of values, or one; "" is none
        return [parse(item) for item in ([value] if isinstance(value, str) else value) if value]
    try:
        return parse(value)
    except ValueError:
        raise _UsageError(
            f"config key {key!r} must be {wording}, got {json.dumps(value)}"
        ) from None


def _merge_options(command: str, args: argparse.Namespace) -> dict[str, object]:
    """Each option of ``command``: its flag's value if given, else its
    config-file value, else its default."""
    options = _COMMANDS[command][2]
    merged: dict[str, object] = {}
    if args.config:
        try:
            raw = _read_json(args.config, "config file", DataError)
        except OSError as exc:
            raise DataError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError(f"{Path(args.config).name}: config file must hold a JSON object")
        try:
            for key, value in raw.items():
                name = key.replace("-", "_")
                if name not in options:
                    raise _UsageError(f"config key {key!r} is not an option of '{command}'")
                merged[name] = _check_config_value(key, name, value)
        except _UsageError as err:
            raise _UsageError(f"{Path(args.config).name}: {err}") from None
    merged.update((name, value) for name, value in vars(args).items() if name in options)
    for name, default in options.items():
        if merged.setdefault(name, default) is ...:
            raise _UsageError(f"--{name.replace('_', '-')} is required for '{command}'")
    return merged


# --- helpers ----------------------------------------------------------------

def _write_csv(path, header: list[str], rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _grid_from(cfg: dict) -> GridSpec:
    grids = {name: cfg[name] for name in ("mtry_grid", "sigma_grid", "c_grid")
             if cfg[name] is not None}
    return GridSpec(cv_folds=cfg["folds"], **grids)


def _synth_config(cfg: dict, **kwargs) -> SynthConfig:
    if cfg["endmembers"]:
        kwargs["endmembers"] = load_endmembers(cfg["endmembers"])
    return SynthConfig(seed=cfg["seed"], noise_sd=cfg["noise_sd"], **kwargs)


def _load_pool(path: str, label: int, what: str) -> SampleTable:
    pool = load_samples(path).only(label)
    if len(pool) == 0:
        raise EmptyInputError(f"{path}: no {what} samples")
    return pool


# --- command implementations -------------------------------------------------

def _cmd_indices(cfg: dict) -> None:
    stack = read_stack(cfg["in"])
    grid = compute_index_raster(stack, cfg["index"])
    out = BandStack(
        grids={cfg["index"]: grid},
        resolution_m=stack.resolution_m,
        provenance=f"{cfg['index']} from {Path(cfg['in']).name}",
    )
    write_stack(out, cfg["out"])
    print(f"wrote {cfg['out']} ({cfg['index']}, {grid.width}x{grid.height})")


def _cmd_stretch(cfg: dict) -> None:
    stack = read_stack(cfg["in"])
    band_ids = [cfg["band"]] if cfg["band"] else list(stack.band_ids)
    grids = {bid: histogram_stretch(stack.band(bid), cfg["p_low"], cfg["p_high"])
             for bid in band_ids}
    out = BandStack(
        grids=grids,
        resolution_m=stack.resolution_m,
        provenance=f"stretch p{cfg['p_low']}-p{cfg['p_high']} of {Path(cfg['in']).name}",
    )
    write_stack(out, cfg["out"])
    print(f"wrote {cfg['out']} ({len(band_ids)} band(s))")


def _cmd_synth_data(cfg: dict) -> None:
    config = _synth_config(cfg, n_plastic=cfg["n_plastic"], n_water=cfg["n_water"],
                           fraction_distribution=cfg["fractions"] or DEFAULT_FRACTIONS)
    table = gen_dataset(config)
    save_samples(table, cfg["out"])
    print(f"wrote {cfg['out']} ({config.n_plastic} plastic + {config.n_water} water)")


def _cmd_synth_scene(cfg: dict) -> None:
    config = _synth_config(cfg, n_plastic=0, n_water=0)
    patches = tuple(PatchSpec(*fields) for fields in cfg["patch"])
    stack, truth = gen_scene(config, cfg["width"], cfg["height"], patches)
    write_stack(stack, cfg["out"])
    message = f"wrote {cfg['out']} ({stack.width}x{stack.height}, {len(patches)} patch(es))"
    if cfg["truth_out"]:
        write_label_map(truth, cfg["truth_out"])
        message += f" and {cfg['truth_out']}"
    print(message)


def _cmd_train(cfg: dict) -> None:
    table = load_samples(cfg["samples"])
    spec = MODEL_SPECS[cfg["model"]]
    if cfg["algo"] == "rf":
        hp, train = RFHyperParams.final_profile(spec.n_features, seed=cfg["seed"]), train_rf
        names = ("n_trees", "mtry", "max_depth", "min_samples_split", "min_samples_leaf",
                 "max_leaf_nodes")
    else:
        hp, train = SVMHyperParams(seed=cfg["seed"]), train_svm
        names = ("c", "sigma", "tolerance", "max_passes")
    model = train(table, spec, replace(hp, **{"C" if name == "c" else name: cfg[name]
                                             for name in names if cfg[name] is not None}))
    summary = (f"oob_error={format_value(model.oob_error)}" if cfg["algo"] == "rf"
               else f"n_support={model.n_support}")
    save_model(model, cfg["out"])
    print(f"wrote {cfg['out']} ({cfg['algo']} {spec.spec_id}, {summary})")


def _cmd_tune(cfg: dict) -> None:
    table = load_samples(cfg["samples"])
    result = grid_search(
        table, MODEL_SPECS[cfg["model"]], cfg["algo"], _grid_from(cfg), cfg["seed"],
        rf_base=RFHyperParams(n_trees=cfg["n_trees"], seed=cfg["seed"]),
        svm_base=SVMHyperParams(seed=cfg["seed"]),
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


def _cmd_predict_scene(cfg: dict) -> None:
    stack = read_stack(cfg["in"])
    model = load_model(cfg["model_file"])
    try:
        labels = classify_scene(stack, model)
    except MissingBandError as exc:  # the stack lacks a band of the model's feature set
        raise MissingBandError(f"{Path(cfg['in']).name}: {exc}") from None
    write_label_map(labels, cfg["out"])
    n_plastic = int((labels.labels == PLASTIC).sum())
    n_water = int((labels.labels == WATER).sum())
    n_nodata = int((labels.labels == 0).sum())
    print(f"wrote {cfg['out']} (plastic={n_plastic} water={n_water} nodata={n_nodata})")


def _labels_by_key(table: SampleTable) -> dict[tuple, int]:
    return {sample.key(): sample.label for sample in table.rows}


def _cmd_evaluate(cfg: dict) -> None:
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


def _cmd_matrix(cfg: dict) -> None:
    plastic = _load_pool(cfg["plastic"], PLASTIC, "plastic")
    water = _load_pool(cfg["water"], WATER, "water")
    matrix = run_matrix(
        plastic, water, _grid_from(cfg), cfg["seed"], jobs=cfg["jobs"],
        rf_base=RFHyperParams(n_trees=cfg["n_trees"]),
    )
    export_matrix(matrix, cfg["out"])
    failed = [c for c in matrix.cells if c.error]
    print(f"wrote {cfg['out']} ({len(matrix.cells)} cells, {len(failed)} failed)")
    for cell in failed:
        print(f"  {cell.model_id}/{cell.test_case_id}/{cell.algo}: {cell.error}")
    if cfg["text_out"]:
        Path(cfg["text_out"]).write_text(render_matrix_text(matrix), encoding="utf-8")
        print(f"wrote {cfg['text_out']}")


def _cmd_profile(cfg: dict) -> None:
    table = load_samples(cfg["samples"])
    profile = spectral_profile(table, cfg["bands"] or ())
    _write_csv(cfg["out"], ["category", "count", "band", "mean_reflectance"], [
        [category, profile.counts[gi], band_id, repr(float(profile.means[gi, bi]))]
        for gi, category in enumerate(profile.categories)
        for bi, band_id in enumerate(profile.bands)
    ])
    print(f"wrote {cfg['out']} ({len(profile.categories)} bins x {len(profile.bands)} bands)")


# Each subcommand: its help, its handler, and its options with their defaults.
# Defaults live here, not in argparse, so config-file values can sit between
# flags and defaults; ``...`` marks an option that has none and must be given.
_GRID = {"mtry_grid": None, "sigma_grid": None, "c_grid": None, "n_trees": 500}
_COMMANDS: dict[str, tuple[str, Callable[[dict], None], dict[str, object]]] = {
    "indices": ("compute a spectral-index raster from a band stack", _cmd_indices,
                {"in": ..., "out": ..., "index": ...}),
    "stretch": ("percentile-stretch bands onto [0, 1] for display", _cmd_stretch,
                {"in": ..., "out": ..., "band": None, "p_low": 2.0, "p_high": 98.0}),
    "synth-data": ("generate a synthetic labelled sample pool CSV", _cmd_synth_data, {
        "out": ..., "n_plastic": 54, "n_water": 270, "noise_sd": 0.005, "seed": 0,
        "endmembers": None, "fractions": None,
    }),
    "synth-scene": ("generate a synthetic scene raster and truth map", _cmd_synth_scene, {
        "out": ..., "truth_out": None, "width": 64, "height": 64, "noise_sd": 0.005, "seed": 0,
        "endmembers": None, "patch": (),
    }),
    "train": ("train one classifier on a sample CSV", _cmd_train, {
        "samples": ..., "model": ..., "algo": ..., "out": ..., "seed": 0,
        **dict.fromkeys(("n_trees", "mtry", "max_depth", "min_samples_split",
                         "min_samples_leaf", "max_leaf_nodes", "c", "sigma", "tolerance",
                         "max_passes")),
    }),
    "tune": ("grid-search hyperparameters with stratified CV", _cmd_tune, {
        "samples": ..., "model": ..., "algo": ..., "seed": 0, "folds": 5, "out": None, **_GRID,
    }),
    "predict-scene": ("classify every pixel of a stack with a saved model", _cmd_predict_scene,
                      {"in": ..., "model_file": ..., "out": ...}),
    "evaluate": ("score predicted labels against truth labels", _cmd_evaluate,
                 {"pred": ..., "truth": ..., "out": None}),
    "matrix": ("run the feature-set x test-case x algorithm grid", _cmd_matrix, {
        "plastic": ..., "water": ..., "out": ..., "seed": 0, "jobs": 1, "folds": 5, **_GRID,
        "text_out": None,
    }),
    "profile": ("per-band mean reflectance by plastic-coverage bin", _cmd_profile,
                {"samples": ..., "out": ..., "bands": ("B4", "B6", "B8", "B11")}),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser(_find_command(argv))
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError(f"a subcommand is required\n{parser.format_usage()}")
        _COMMANDS[args.command][1](_merge_options(args.command, args))
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
