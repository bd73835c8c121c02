"""Benchmark of the unirat pipeline: one workload per process, in-process ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each op is one call into the program's public entry points (`cli.main` or
`singular_dimension_experiment`), timed with `perf_counter` around the call
alone, after a `gc.collect()`.  The run repeats whole rounds of the same ops
until `--seconds` have passed, so the share of failed ops is the same in
every run.  With `--trace 0` the last line of output is a JSON object with
the end-to-end metrics; with `--trace 1` the program's public functions are
wrapped (see spans.py) and the last line carries the per-layer metrics.  The
outputs are checked after the metrics are taken.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# the standard library modules that the program and the benchmark use,
# loaded from their installed caches before the sources below are compiled
import copy, dataclasses, fractions, hashlib, heapq  # noqa: E401,E402,F401

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

SETUP_REPEATS = 3
NAMES = ("certify-n8", "singdim", "parametrize", "replay")


def timed_round(ops, results, tracer):
    for op in ops:
        gc.collect()
        root = tracer.root("op") if tracer else None
        t0 = time.perf_counter()
        value = op.fn()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
        results.append((op, value, dt))


def import_program():
    """Import the program and the benchmark's modules that call it, compiled
    from source, after forgetting any earlier import of them."""
    for mod in [m for m in sys.modules
                if m in ("unirat", "workloads", "oracle")
                or m.startswith("unirat.")]:
        del sys.modules[mod]
    # A cache prefix that names no directory hides every cached bytecode
    # file, and none is written, so a __pycache__ left in the tree cannot
    # move setup_s.
    sys.pycache_prefix = os.path.join(HERE, "work", "no-bytecode")
    try:
        return importlib.import_module("workloads")
    finally:
        sys.pycache_prefix = None


def run_workload(name, seed, seconds, trace):
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    start_s = time.perf_counter() - T_START

    work = os.path.join(HERE, "work", "%s-%d" % (name, os.getpid()))
    prep = []
    try:
        # each set-up imports the program anew and makes every input
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            gc.collect()
            t0 = time.perf_counter()
            workloads = import_program()
            import_s = time.perf_counter() - t0
            if tracer:
                # the wrappers go on the modules just imported
                uninstall = tracer.install()
                root = tracer.root("setup")
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[name](seed)
            wl.setup(work)
            prep.append(import_s + time.perf_counter() - t0)
            if tracer:
                tracer.close(root)

        results = []
        t_phase = time.perf_counter()
        while True:
            timed_round(wl.ops, results, tracer)
            phase_s = time.perf_counter() - t_phase
            if phase_s >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            uninstall()

        failed, problems = workloads.judge(wl, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))

    good = [dt for op, value, dt in results if not op.failed(value)]
    if not good:
        raise RuntimeError("no op of %s succeeded" % name)
    e2e = {
        "op_p50_s": {"value": statistics.median(good), "unit": "s"},
        "ops_per_s": {"value": len(good) / phase_s, "unit": "1/s"},
        "setup_s": {"value": start_s + statistics.median(prep), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    for line in problems:
        print("CHECK FAILED: %s" % line)
    faults = sorted({op.fault for op, value, _ in results
                     if op.failed(value) and op.fault})
    print("%s seed=%d: %d ops in %d rounds, %d failed (known faults: %s)"
          % (name, seed, len(results), len(results) // len(wl.ops), failed,
             ", ".join(faults) or "none"))
    print(", ".join("%s %.4f %s" % (key, m["value"], m["unit"])
                    for key, m in e2e.items()))
    metrics = e2e
    if tracer:
        metrics = tracer.metrics(len(results), SETUP_REPEATS)
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, "%s-seed%d" % (name, seed))
        tracer.dump(stem + ".spans.jsonl")
        with open(stem + ".trace.json", "w") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)
        for key, m in metrics.items():
            print("  %-48s %14.6g %s" % (key, m["value"], m["unit"]))
    return {"correct": not problems, "attempted": len(results),
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after the other."""
    summary = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join("[%s] %s" % (name, line) for line in lines[:-1]))
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(r and r["correct"] for r in summary.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
