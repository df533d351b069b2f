"""Steadiness check: run the benchmark once per seed and report each
end-to-end metric's spread against its bound in BENCHMARK.json, then make
the traced run twice and check that its counts repeat.

    python3 perfbench/steady.py --workload kernel-bound --runs 10

The spread is the distance between the first and third quartile of the
runs' values, as ``statistics.quantiles(values, n=4)`` cuts them, as a share
of their median.  Every metric's spread must stay below a third of its
bound.  The traced run is made twice with the first seed, and every count
and byte total must be the same in both.  Exits with 1 when a run is
incorrect or a check fails; the values are also written to
``perfbench/out/steady-<workload>-<first seed>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def spread(values):
    """(first quartile, median, third quartile, spread) of ``values``; the
    spread is (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_once(workload, seed, seconds, trace):
    """The result object of one run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = run_once(args.workload, seed, seconds, 0)
        ok &= res["correct"]
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print("seed %d: correct=%s attempted=%d failed=%d %s"
              % (seed, res["correct"], res["attempted"], res["failed"],
                 " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
              flush=True)
    for name, bound in bounds.items():
        q1, med, q3, share = spread(values[name])
        held = share < bound / 3
        ok &= held
        print("%-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
              "(bound %.2f, a third %.4f) %s" % (
                  name, med, q1, q3, share, bound, bound / 3,
                  "ok" if held else "TOO WIDE"), flush=True)
    first, second = (run_once(args.workload, args.first_seed, seconds, 1)
                     for _ in range(2))
    ok &= first["correct"] and second["correct"]
    for m in spec["per_layer"]:
        if m["unit"] in ("count", "bytes"):
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            ok &= a == b
            print("%-26s %s %s" % (m["name"], a,
                                   "repeats" if a == b else
                                   "DIFFERS: %s" % b))
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / ("steady-%s-%d.json" % (args.workload, args.first_seed))
     ).write_text(json.dumps(values, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
