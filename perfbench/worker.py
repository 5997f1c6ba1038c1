"""One workload process: set up, run timed calls, check them, report JSON.

Started by run.py with the checkout root as working directory; not meant
to be run by hand. ``--t0`` is the parent's monotonic clock just before it
started this process, so set-up time covers interpreter start, imports,
inputs, networks and the warm-up call. The report is the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-call", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--final", action="store_true",
                   help="run the once-per-run checks after the timed calls")
    p.add_argument("--repeat", nargs=2, metavar=("CALL", "DIGEST"),
                   help="with --final, repeat this earlier call (default: "
                        "this process's first) and compare its digest")
    return p.parse_args(argv)


def timed_calls(wl, args, tracer=None):
    """Calls until the time share is used; with a tracer, every other call
    is traced, so traced and untraced calls share one process state."""
    times = {False: [], True: []}
    failures = []
    j = args.first_call
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and (j - args.first_call) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_call(j)
        t = time.perf_counter()
        try:
            out = wl.call(j)
            err = None
        except Exception as exc:        # a failed call is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if traced:
            tracer.end_call()
            tracer.uninstall()
        problems = [err] if err else wl.check(j, out)
        times[traced].append(dt)
        if problems:
            failures.append({"call": j, "problems": problems})
        j += 1
        done = time.perf_counter() - begin >= args.seconds
        if done and (tracer is None or times[True]):
            return times, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import mcni
    if Path(mcni.__file__).resolve().parent != ROOT / "src" / "mcni":
        print(f"imported mcni from {mcni.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.small)
    wl.warmup()
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    times, failures = timed_calls(wl, args, tracer)

    final_problems = wl.final_checks() if args.final else []
    first = wl.first_digest
    if args.repeat:
        first = int(args.repeat[0]), args.repeat[1]
    if args.final and first is not None:
        problems = wl.repeat_check(*first)
        if problems:
            failures.append({"call": first[0], "problems": problems})
    report = {
        "setup_s": setup_s,
        "untraced_s": times[False],
        "traced_s": times[True],
        "items_per_call": wl.items_per_call,
        "failures": failures,
        "final_problems": final_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_digest": wl.first_digest,
    }
    if tracer is not None:
        out = workloads.OUT / args.workload
        out.mkdir(parents=True, exist_ok=True)
        tracer.save(out / "trace.npz")
        report["layers"] = layer_metrics(tracer, times)
    print(json.dumps(report))
    return 0


def layer_metrics(tracer, times) -> dict[str, float]:
    """Per-layer metrics, each per traced workload call."""
    n = tracer.calls_traced
    totals = tracer.totals()
    out = {}
    for name, (count, self_s) in totals.items():
        out[f"{name}.calls"] = count / n
        out[f"{name}.self_s"] = self_s / n
    out["metrics.self_s"] = sum(s for nm, (c, s) in totals.items()
                                if nm.startswith("metrics.")) / n
    out["noise.layer_weight_std.useful_ratio"] = (
        tracer.weight_states / tracer.sigma_computations
        if tracer.sigma_computations else 0.0)
    out["gpcheck.bytes_drawn"] = tracer.bytes_drawn / n
    out["runio.bytes_written"] = tracer.bytes_written / n
    untraced = statistics.fmean(times[False])
    traced = statistics.fmean(times[True])
    out["trace.overhead_pct"] = 100.0 * (1.0 - untraced / traced)
    return out


if __name__ == "__main__":
    sys.exit(main())
