#!/usr/bin/env python3
"""The chainform benchmark: one seeded workload, every metric checked.

Run from the root of a checkout:

  python3 perfbench/run.py --workload moded-deep --seed 1 --seconds 30 --trace 0

The workload runs in a worker process (worker.py) so that a call which kills
the interpreter counts as one failed operation instead of ending the run: the
worker is restarted with that operation skipped.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; each result is also appended,
with its provenance, to .perfbench/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("moded-deep", "definite-unify", "large-program")
MAX_WORKERS = 8  # one start plus a restart per crashing operation
HARD_LIMIT_S = 170  # a run must end within 180 s
# End-to-end times are reported at the speed of a machine on which
# worker.py's calibration task takes this long.  The machines this
# benchmark was tuned on drift in speed by up to 1.7x over seconds to
# minutes, because they are shared; each repetition is scaled by the
# calibration measured around it, which the drift slows alike.
REFERENCE_CALIBRATION_S = 0.004


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def supervise(args, root):
    """Run workers until one finishes; collect their events."""
    state = {
        "info": None,
        "failures": {},  # op id -> (reason, wrong answer)
        "times": {},  # end-to-end metric -> operation -> seconds, per iteration
        "layers": {},  # per-layer metric -> values
        "peak_rss_mb": 0.0,
    }
    skip = []
    deadline = time.monotonic() + args.seconds
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    for _ in range(MAX_WORKERS):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "%.3f" % max(deadline - time.monotonic(), 1.0),
            "--trace", str(args.trace), "--skip", ",".join(skip),
        ]
        env = dict(os.environ, PYTHONHASHSEED="0")
        with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(max(hard_deadline - time.monotonic(), 1.0), proc.kill)
            watchdog.start()
            try:
                current, finished = read_events(proc.stdout, state)
            finally:
                watchdog.cancel()
            rc = proc.wait()
        if finished and rc == 0:
            return state
        if time.monotonic() >= hard_deadline:
            raise RuntimeError("the run exceeded %d s" % HARD_LIMIT_S)
        if current is None:
            raise RuntimeError("the worker failed outside any operation (exit code %d)" % rc)
        state["failures"].setdefault(current, (describe_exit(rc), False))
        skip.append(current)
    raise RuntimeError("the worker crashed %d times" % MAX_WORKERS)


def read_events(stream, state):
    current = None
    finished = False
    for line in stream:
        event = json.loads(line)
        kind = event["ev"]
        if kind == "start":
            current = event["op"]
        elif kind == "end":
            current = None
        elif kind == "fail":
            state["failures"].setdefault(event["op"], (event["why"], event["wrong"]))
        elif kind == "time":
            ops = state["times"].setdefault(event["metric"], {})
            ops.setdefault(event["op"], []).append((event["s"], event["c"]))
        elif kind == "layers":
            for name, value in event["metrics"].items():
                state["layers"].setdefault(name, []).append(value)
        elif kind == "info":
            state["info"] = event
        elif kind == "done":
            state["peak_rss_mb"] = max(state["peak_rss_mb"], event["peak_rss_mb"])
            finished = True
    return current, finished


def describe_exit(rc):
    if rc < 0:
        return "killed the worker by %s" % signal.Signals(-rc).name
    return "ended the worker with exit code %d" % rc


def collect_metrics(spec, state):
    """Each metric BENCHMARK.json lists, with its sample count.

    A time is the sum over its operations of each one's median, where each
    repetition is scaled to the reference speed by the calibration taken
    around it.  A layer metric is the median over traced iterations."""
    samples = {  # metric -> operation -> values
        name: {op: [s * REFERENCE_CALIBRATION_S / c for s, c in pairs]
               for op, pairs in ops.items()}
        for name, ops in state["times"].items()
    }
    samples["peak_rss_mb"] = {"worker": [state["peak_rss_mb"]]}
    for name, values in state["layers"].items():
        samples[name] = {"iterations": values}
    metrics = {}
    counts = {}
    for m in spec:
        ops = samples.get(m["name"])
        if not ops:
            raise RuntimeError("no measurement of %s" % m["name"])
        value = sum(statistics.median(values) for values in ops.values())
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        counts[m["name"]] = max(len(values) for values in ops.values())
    return metrics, counts


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chainform", "__init__.py")):
        print("perfbench: no chainform sources at src/chainform under %s" % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    try:
        state = supervise(args, root)
        spec = bench["per_layer"] if args.trace else bench["end_to_end"]
        metrics, counts = collect_metrics(spec, state)
    except RuntimeError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1

    info = state["info"]
    failures = state["failures"]
    attempted = info["attempted"]
    result = {
        "correct": not any(wrong for _, wrong in failures.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": info["backend"],
        "python": info["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    print("provenance %s" % json.dumps(provenance))
    for name, m in metrics.items():
        print("%-24s %14.6g %-9s (%d samples)" % (name, m["value"], m["unit"], counts[name]))
    print("%-24s %14.6g %-9s (%d failed of %d operations)" % (
        "error_rate", len(failures) / attempted, "ratio", len(failures), attempted))
    for op, (why, _) in sorted(failures.items()):
        print("failed %s: %s" % (op, why))

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**provenance, **result, "samples": counts}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
