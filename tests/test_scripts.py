"""Smoke tests: the example scripts run end to end and write their outputs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    ("name", "args", "outputs"),
    [
        (
            "demo_scene_pipeline",
            [],
            ["pool.csv", "model.json", "scene.json", "scene.raw", "truth.pgm",
             "fdi.json", "fdi.raw", "labels.pgm"],
        ),
        ("run_synthetic_matrix", ["--quick"], ["pool.csv", "matrix.csv", "matrix.txt"]),
    ],
)
def test_script_runs_and_writes_outputs(tmp_path, name, args, outputs):
    assert load_script(name).main([*args, "--outdir", str(tmp_path)]) == 0
    for output in outputs:
        assert (tmp_path / output).stat().st_size > 0, output
