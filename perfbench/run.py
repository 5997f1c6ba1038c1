"""Benchmark for mcni: three workloads, timed from outside the program.

    python3 perfbench/run.py                       # all workloads, in turn
    python3 perfbench/run.py --workload mc_predict --seed 3 --seconds 30
    python3 perfbench/run.py --workload fit_grid --trace 1   # per-layer run
    python3 perfbench/run.py --small --seconds 1   # every workload in seconds

Run from the root of a checkout. Each workload runs in worker processes of
its own (perfbench/worker.py), started one after another, with BLAS pinned
to one thread. An untraced run starts WORKERS of them, each taking an equal
share of --seconds, and reports the end-to-end metrics: set-up time is the
median over the workers, throughput pools every call.
A traced run starts one worker that alternates untraced and traced calls
and reports the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 0 on a finished run;
2 when the checkout lacks the program or its data; 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit_grid", "mc_predict", "gp_check")
REQUIRED = ("src/mcni/__init__.py", "datasets/synth_regression.csv",
            "BENCHMARK.json")
WORKERS, SMALL_WORKERS = 4, 2
DEADLINE_S = 170.0     # per workload, set-up and checks included
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="timed phase per workload, summed over its workers")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="shrunken configs, for checking the benchmark itself")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, workload: str, seconds: float, first_call: int,
               deadline: float, final: bool, repeat=None) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--first-call", str(first_call), "--trace", str(args.trace),
           "--t0", repr(t0)]
    if args.small:
        cmd.append("--small")
    if final:
        cmd.append("--final")
    if repeat:
        cmd += ["--repeat", str(repeat[0]), repeat[1]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker passed the {DEADLINE_S:.0f} s "
                          f"deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run_workload(args, workload: str, deadline: float) -> dict:
    """Run one workload's workers in turn and fold their reports."""
    n = 1 if args.trace else (SMALL_WORKERS if args.small else WORKERS)
    reports = []
    first_call = 0
    repeat = None
    for k in range(n):
        final = k == n - 1
        rep = run_worker(args, workload, args.seconds / n, first_call,
                         deadline, final, repeat)
        first_call += len(rep["untraced_s"]) + len(rep["traced_s"])
        repeat = repeat or rep["first_digest"]
        reports.append(rep)

    failures = [f for r in reports for f in r["failures"]]
    final_problems = [p for r in reports for p in r["final_problems"]]
    for f in failures:
        print(f"{workload}: call {f['call']} failed: {'; '.join(f['problems'])}",
              file=sys.stderr)
    for p in final_problems:
        print(f"{workload}: once-per-run check failed: {p}", file=sys.stderr)
    # a repeat of call j that disagrees fails call j a second time; count once
    failed_calls = {f["call"] for f in failures}
    result = {"correct": not final_problems, "attempted": first_call,
              "failed": len(failed_calls)}
    if args.trace:
        layers = reports[0]["layers"]
        wanted = metric_units("per_layer")
        unknown = [name for name, _ in wanted if name not in layers]
        if unknown:
            raise WorkerError(f"the tracer records no metric {unknown}")
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in wanted}
    else:
        times = [t for r in reports for t in r["untraced_s"]]
        items = reports[0]["items_per_call"] * len(times)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "items_per_s": items / sum(times),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in metric_units("end_to_end")}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an mcni checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {str(res['correct']).lower()}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": m
                             for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
