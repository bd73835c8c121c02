"""Two traced runs of one workload give the same counters.

    python3 perfbench/counters.py --workload NAME --seeds A B

Runs `run.py --trace 1` with seed A, then with seed B, each for the run
length of BENCHMARK.json, and compares every per-layer metric that is not a
time: S-pairs processed and skipped, reductions to zero, basis size, largest
degree, early stops, program nodes swept and call counts.  Counters are per
op, and every run repeats whole rounds of the same ops, so they repeat
exactly when the two runs fit different numbers of rounds.  With A = B the
runs repeat one seed; with A != B they show that the work of an op does not
depend on the seed.  Exits 0 when all agree, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    first, second = (traced(args.workload, s, seconds) for s in args.seeds)
    differ = 0
    for name, m in first.items():
        if m["unit"] in ("s/op", "s/setup"):
            continue
        a, b = m["value"], second[name]["value"]
        same = a == b
        differ += not same
        print("%-4s %-42s %14.6g %14.6g %s" % ("ok" if same else "DIFF", name,
                                               a, b, m["unit"]))
    print("%d counters differ" % differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
