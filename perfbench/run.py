"""Run one benchmark workload in this process and print its result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload srg-pcn --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout around this file; the
run stops with exit code 3 and prints no result if that tree is missing.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``ops_per_s``, ``op_ms.p50``, ``peak_rss_mb``).  With
``--trace 1`` the run does a fixed number of rounds twice, first without and
then with span wrappers, and the last line carries the per-layer metrics.
The line before the last is the environment record.  A fuller record,
including each operation's time and check messages, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
import time

# Pin every BLAS and OpenMP pool to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3  # set-up runs per process; setup_s takes the median
IMPORT_SAMPLES = 5  # this process's import plus fresh-interpreter probes
TRACE_ROUNDS = {"srg-pcn": 1, "srg-pwl": 1, "er-pairs": 2}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import pathcomplex, pathcomplex.bench; "
    "print(time.perf_counter() - t)"
)

EXIT_NO_PROGRAM = 3


@dataclass
class Record:
    """One attempted operation."""

    round: int
    desc: Any
    inputs: Any
    result: Any
    error: Optional[str]
    seconds: float


def timed_phase(wl, state, seconds, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed (or ``rounds`` rounds)."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        for desc in wl.round(state, r):
            inputs = wl.inputs(state, desc)
            if tracer is not None:
                tracer.op = f"op-{len(records)}"
            t = time.perf_counter()
            try:
                result, error = wl.operation(state, inputs), None
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(r, desc, inputs, result, error,
                                  time.perf_counter() - t))
        r += 1
        done = r >= rounds if rounds is not None else (
            time.perf_counter() - start >= seconds)
        if done:
            if tracer is not None:
                tracer.op = "setup"
            return records, time.perf_counter() - start


def import_probe() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_id = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def judge(wl, state, records):
    """Per-operation check messages, and the (correct, failed) pair.

    An operation fails when it raised or a check on its answer failed;
    ``correct`` is false when any answer that was produced failed a check.
    """
    messages = wl.check(state, records)
    failed = sum(1 for rec, msgs in zip(records, messages) if rec.error or msgs)
    correct = not any(msgs for rec, msgs in zip(records, messages) if rec.error is None)
    return messages, correct, failed


def plain_run(wl, import_s, seconds):
    imports = [import_s] + [import_probe() for _ in range(IMPORT_SAMPLES - 1)]
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t)
    gc.collect()
    records, _ = timed_phase(wl, state, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    messages, correct, failed = judge(wl, state, records)
    times = [rec.seconds for rec in records]
    completed = sum(1 for rec in records if rec.error is None)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(times), "op/s"),
        "op_ms.p50": (statistics.median(times) * 1000.0, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {"import_s": imports, "setup_runs_s": setups}
    return records, messages, correct, failed, metrics, detail


def traced_run(wl, pc, rounds, trace_path):
    """Set-up and ``rounds`` rounds twice, untraced and then traced.

    ``trace.overhead_s`` is the traced pass minus the untraced one.  On a
    shared machine that difference is mostly noise (a pass moves by several
    per cent either way); the spans file also gives the wrappers' own cost,
    timed on a function that does nothing.
    """
    from tracing import Tracer

    def one_pass(tracer=None):
        gc.collect()
        t = time.perf_counter()
        state = wl.setup()
        records, _ = timed_phase(wl, state, None, rounds=rounds, tracer=tracer)
        return state, records, time.perf_counter() - t

    untraced_s = one_pass()[2]
    tracer = Tracer(pc)
    with tracer:
        state, records, traced_s = one_pass(tracer)
    messages, correct, failed = judge(wl, state, records)
    layer = tracer.metrics(traced_s - untraced_s)
    tracer.dump(trace_path, layer)
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in layer.items()}
    detail = {"untraced_s": untraced_s, "traced_s": traced_s,
              "trace_file": os.path.relpath(trace_path, ROOT)}
    return records, messages, correct, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "pathcomplex", "__init__.py")):
        print(f"no program source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import pathcomplex as pc
    import pathcomplex.bench  # noqa: F401 - the package __init__ leaves it out
    import_s = time.perf_counter() - t
    if not os.path.abspath(pc.__file__).startswith(SRC + os.sep):
        print(f"imported pathcomplex from {pc.__file__}, not from {SRC}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    # imported after the program, so that numpy's import counts as the program's
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    wl = WORKLOADS[args.workload](pc, ROOT, args.seed)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome = traced_run(wl, pc, TRACE_ROUNDS[args.workload],
                             os.path.join(OUT, f"spans-{stem}.json"))
    else:
        outcome = plain_run(wl, import_s, args.seconds)
    records, messages, correct, failed, metrics, detail = outcome

    env = environment()
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "result": result,
        "detail": detail,
        "operations": [
            {"round": rec.round, "desc": rec.desc, "seconds": rec.seconds,
             "error": rec.error, "check_failures": msgs}
            for rec, msgs in zip(records, messages)
        ],
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    for rec, msgs in zip(records, messages):
        for msg in ([rec.error] if rec.error else []) + msgs:
            print(f"op {rec.desc}: {msg}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
