#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise every end-to-end
metric by its median and quartiles, the form of perfbench/BASELINE.json.

Run from the root of a clusteer checkout:

    python3 perfbench/trajectory.py --seeds 1-10 --out perfbench/out/trajectory.json
    python3 perfbench/trajectory.py --workloads fabric-storm --seeds 1-5

The spread printed per metric is (Q3 - Q1) / median, with the quartiles
of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    if not run.build():
        return 2
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values, failed = {}, 0
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [run.EXE, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(vs)}
            print("%-13s %-22s median %14.6g  spread %.3f  (bound %.2f)"
                  % (workload, name, med, spread, bounds.get(name, 0)), flush=True)
        summary[workload] = {"failed": failed, "metrics": rows}
    doc = {"seeds": args.seeds, "seconds": args.seconds,
           "host": "%s, %d cpus" % (platform.machine(), os.cpu_count()),
           "workloads": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
