"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_sizes():
    return replace(
        run._import_workloads().FULL,
        n_plastic=20, n_water=100, matrix_trees=5,
        scene_px=32, n_scenes=2, tile_px=16, n_tiles=2, setup_reps=1,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, tmp_path, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)],
        sizes=tiny_sizes(), workdir=tmp_path,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
                   for line in lines[:-1])
        if not trace:
            assert printed["value"] > 0


def test_layer_metrics_match_benchmark_json():
    from tracer import LAYER_METRICS

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
