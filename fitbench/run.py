#!/usr/bin/env python3
"""Benchmark for countreg: converged maximum-likelihood fits and a CLI session.

Run from the root of a repository checkout:

    python3 fitbench/run.py --workload zinb-rows --seed 1 --seconds 30 --trace 0
    python3 fitbench/run.py --workload all --seed 1      # every workload in turn
    python3 fitbench/run.py --workload all --smoke       # reduced sizes, under 30 s

countreg is imported from ``src/`` of the checkout and driven only through
its public calls.  Each run is a closed loop: one client in one process.

``--trace 0`` prints the end-to-end metrics.  Rounds of the workload's fixed
task list repeat until another round would pass ``--seconds`` (at least one
round runs).  ``--trace 1`` prints the per-layer metrics.  It runs a traced,
an untraced and a traced round.  The spans and counters of the traced
rounds go to ``fitbench/out/trace-<workload>-seed<seed>.json``.  The
counters of the two traced rounds must agree exactly.

Metric names and units come from BENCHMARK.json at the checkout root.  The
last line of stdout is the JSON result.  A failed correctness check is
counted in ``failed`` and does not stop the run.
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy
import scipy.special  # noqa: F401  loaded once, outside the timed set-up

from spans import Tracer, counters, install, layer_metrics
from workloads import WORKLOADS, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMBA_NUM_THREADS")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fresh_import():
    """Import countreg (and its cli) anew, so set-up repeats pay module
    execution each time; numpy and scipy are already loaded."""
    for name in [m for m in sys.modules if m == "countreg" or m.startswith("countreg.")]:
        del sys.modules[name]
    cr = importlib.import_module("countreg")
    importlib.import_module("countreg.cli")
    return cr


def run_record(cr, args):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    numba = importlib.util.find_spec("numba") is not None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "backend": cr.BACKEND,
        "numba": "importable" if numba
        else "not importable: the numba backend is unmeasured",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def end_to_end(run_round, cr, inputs, seconds, setup_times):
    tally, rounds = Tally(), []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        run_round(cr, inputs, tally, None)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break
    fits = tally.fit_seconds
    print(f"rounds {len(rounds)}; fit samples {len(fits)}; operations {tally.attempted}; "
          f"failed_frac {tally.failed / tally.attempted!r}")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rounds),
        "fit_s_p50": statistics.median(fits) if fits else 0.0,
        "converged_frac": tally.converged / tally.fits if tally.fits else 0.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics, None


def per_layer(run_round, cr, inputs, record):
    tally, rounds = Tally(), []
    # the untraced round sits between the traced ones, so a steady drift in
    # machine speed cancels out of the overhead ratio
    for traced in (True, False, True):
        if not traced:
            t0 = time.perf_counter()
            run_round(cr, inputs, tally, None)
            untraced_s = time.perf_counter() - t0
            continue
        tracer = Tracer()
        install(tracer, cr)
        try:
            t0 = time.perf_counter()
            with tracer.span("round"):
                run_round(cr, inputs, tally, tracer)
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        rounds.append({"wall_s": wall, "absent": tracer.absent,
                       "metrics": layer_metrics(tracer.spans), "spans": tracer.spans})
    first, second = (counters(r["metrics"]) for r in rounds)
    mismatched = sorted(k for k in first if first[k] != second[k])
    tally.check(not mismatched, f"counters differ between traced rounds: {mismatched}")
    metrics = dict(rounds[0]["metrics"])
    metrics["trace.overhead_ratio"] = statistics.mean(r["wall_s"] for r in rounds) / untraced_s
    metrics["trace.selfcheck_mismatches"] = len(mismatched)
    metrics["trace.absent_names"] = len(rounds[0]["absent"])
    if rounds[0]["absent"]:
        print(f"absent names: {', '.join(rounds[0]['absent'])}")
    trace = {"run_record": record, "untraced_wall_s": untraced_s, "metrics": metrics,
             "rounds": rounds}
    return tally, metrics, trace


def run_one(args, spec):
    setup, run_round = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(2 if args.smoke else SETUP_REPEATS):
            t0 = time.perf_counter()
            cr = fresh_import()
            inputs = setup(cr, args.seed, args.smoke, workdir)
            setup_times.append(time.perf_counter() - t0)
        if not Path(cr.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: countreg imported from {cr.__file__}, not {SRC}", file=sys.stderr)
            return 2
        record = run_record(cr, args)
        print("run-record " + json.dumps(record, sort_keys=True))
        if args.trace:
            tally, metrics, trace = per_layer(run_round, cr, inputs, record)
        else:
            tally, metrics, trace = end_to_end(run_round, cr, inputs, args.seconds,
                                               setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(declared))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    if trace is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace, sort_keys=True) + "\n")
        print(f"trace written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {declared[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def check_result(line, declared):
    """Problems with one run's result line: shape, names, units, gate."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correctness gate: {result['failed']} of {result['attempted']} failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    metrics = result["metrics"]
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')!r}, not {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value")
    problems += [f"metric {name} is not declared" for name in metrics if name not in declared]
    return problems


def run_all(args, spec):
    """Run every workload in its own process; with --smoke, both trace modes."""
    traces = (0, 1) if args.smoke else (args.trace,)
    seconds = 1 if args.smoke else args.seconds
    combined, attempted, failed, ok = {}, 0, 0, True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
            lines = proc.stdout.splitlines()
            print(f"== {workload} --trace {trace}: exit {proc.returncode}")
            for line in lines[:-1]:
                print("   " + line)
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            problems = [f"exit code {proc.returncode}"] if proc.returncode else []
            problems += check_result(lines[-1] if lines else "", declared)
            for problem in problems:
                print(f"   PROBLEM: {problem}")
            if problems:
                ok = False
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                combined[f"{workload}.{name}"] = m
    print(f"all workloads: {'every metric printed with its unit' if ok else 'PROBLEMS above'}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes on the same code path")
    args = parser.parse_args(argv)
    if not (SRC / "countreg" / "__init__.py").is_file():
        print(f"error: no countreg sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
