"""plastiscan benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload matrix|scene|tiles --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; plastiscan is imported from its
``src`` directory and from nowhere else.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs the loop untraced for
half the time and traced for the other half, and prints the per-layer
metrics together with the tracing overhead.  Scratch files go to
``.perfbench/`` in the checkout; the spans of a traced run are left there.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYER_METRICS, TRACED, Tracer

# One process on one thread: the load model of every workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _import_workloads():
    """Import the workloads against the checkout's own plastiscan."""
    src = ROOT / "src"
    if not (src / "plastiscan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no plastiscan package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import workloads

    return workloads


def _setup(workload) -> float:
    """One set-up: a fresh interpreter importing plastiscan, as every CLI call
    pays it, plus the workload's own set-up.  Returns the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import plastiscan"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    workload.setup()
    return perf_counter() - start


def _loop(workload, seconds: float, clock, between=lambda busy: None) -> dict:
    """Run steps until ``seconds`` of busy time (and at least min_steps);
    ``between`` runs after every step, outside the busy time."""
    ops = failed = steps = 0
    mpix = busy = 0.0
    latencies: list[float] = []
    while steps < workload.min_steps or busy < seconds:
        clock.op = steps
        step = workload.step(clock)
        steps += 1
        ops += step.ops
        failed += step.failed
        mpix += step.mpix
        busy += step.busy
        latencies.extend(step.latencies)
        between(busy)
    return {"ops": ops, "failed": failed, "mpix": mpix, "busy": busy,
            "latencies": latencies, "steps": steps}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _end_to_end(run: dict, setup_s: float) -> dict:
    lat_ms = [v * 1000.0 for v in run["latencies"]]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run["ops"] / run["busy"], "1/s"),
        "mpix_per_s": (run["mpix"] / run["busy"], "Mpix/s"),
        "latency_ms.p95": (_percentile(lat_ms, 0.95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, setup_tracer, setup_reps: int, ops: int, overhead_pct: float) -> dict:
    total, own, calls = tracer.totals()
    setup_total, _, _ = setup_tracer.totals()
    out = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name.startswith("synth."):
            value = setup_total[name[: -len(".s")]] / setup_reps
        elif name == "trace.overhead_pct":
            value = overhead_pct
        elif name == "classifiers.tuning.cv_fits":
            value = tracer.cv_fits() / ops
        elif name.endswith(".self_s"):
            value = own[name[: -len(".self_s")]] / ops
        elif name.endswith(".s"):
            value = total[name[: -len(".s")]] / ops
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]] / ops
        else:
            value = tracer.counters[name] / ops
        out[name] = (value, unit)
    return out


def main(argv: list[str] | None = None, sizes=None, workdir: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "scene", "tiles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_workloads()
    sizes = sizes or workloads.FULL
    scratch = workdir or ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, work)
        setup_tracer = Tracer([t for t in TRACED if t[0] == "synth"])
        setup_times = []
        seconds = args.seconds / 2 if args.trace else args.seconds
        # Matrix cell latency is the duration of each run_cell call.
        clock = Tracer([("experiment", "run_cell")])
        if args.trace:
            with setup_tracer:
                setup_times += [_setup(workload) for _ in range(sizes.setup_reps)]
            with clock:
                plain = _loop(workload, seconds, clock)
        else:
            # The host's speed drifts over tens of seconds, so the repeated
            # set-ups are spread over the timed phase; their median is steady.
            def between(busy: float) -> None:
                if len(setup_times) < min(sizes.setup_reps, sizes.setup_reps * busy / seconds):
                    setup_times.append(_setup(workload))

            setup_times.append(_setup(workload))
            with clock:
                plain = _loop(workload, seconds, clock, between)
            while len(setup_times) < sizes.setup_reps:
                setup_times.append(_setup(workload))
        runs = [plain]
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced = _loop(workload, seconds, tracer)
            runs.append(traced)
            tracer.write(scratch / f"spans-{args.workload}.tsv")
            overhead_pct = 100.0 * (
                (traced["busy"] / traced["ops"]) / (plain["busy"] / plain["ops"]) - 1.0)
            metrics = _per_layer(tracer, setup_tracer, sizes.setup_reps, traced["ops"],
                                 overhead_pct)
        else:
            metrics = _end_to_end(plain, statistics.median(setup_times))
        workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not workload.problems
    for problem in workload.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {workload.summary()}; "
          f"{sum(r['steps'] for r in runs)} steps, {attempted} ops, "
          f"{len(plain['latencies'])} latency samples untraced; "
          f"failed_ratio {failed}/{attempted}; setup_s median of {sizes.setup_reps}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        p50 = _percentile(plain["latencies"], 0.5) * 1000.0
        print(f"  (latency median {p50:.6g} ms over {len(plain['latencies'])} samples; "
              "printed only, as it swings with the host's load)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
