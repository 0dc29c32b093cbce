#!/usr/bin/env python3
"""Self-test of the clusteer benchmark, at tiny sizes (about a minute).

Run from the root of a clusteer checkout:

    python3 perfbench/selftest.py

Checks that
  * every workload prints a result line that parses, with exactly the
    metric names and units BENCHMARK.json declares, in both modes;
  * a clean run is correct, and a corrupted reference digest makes the
    sweeps report failures (ok_frac below 1), so the check bites;
  * a run recorded with --ledger is listed by `csteer runs list`;
  * run.py fails, without a result, where only BENCHMARK.json and
    perfbench/ exist.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep the checkout clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

UOPS = "600"
WORK = os.path.join("perfbench", "out", "selftest")
DIGESTS = os.path.join(WORK, "digests.json")
SWEEPS = ["fig5-sweep", "fabric-storm"]
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, digests=DIGESTS, extra=()):
    out = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--uops", UOPS, "--digests", digests]
        + list(extra),
        capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        print(out.stdout[-2000:], out.stderr[-2000:])
        return None
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def main():
    if not run.build():
        return 2
    spec = json.load(open("BENCHMARK.json"))
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    subprocess.run([run.EXE, "gen-digests", "--uops", UOPS,
                    "--digests", DIGESTS], check=True, stdout=subprocess.DEVNULL)

    # fabric-storm is not in BENCHMARK.json but stays runnable.
    for workload in [w["name"] for w in spec["workloads"]] + ["fabric-storm"]:
        for trace, declared in groups.items():
            res = bench(workload, trace)
            check(res is not None, "%s trace=%d prints a result" % (workload, trace))
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s trace=%d result keys" % (workload, trace))
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units, "%s trace=%d metric names and units" % (workload, trace))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  "%s trace=%d is correct" % (workload, trace))

    # Corrupt one digest per salt: the sweeps must count failures.
    doc = json.load(open(DIGESTS))
    for w in SWEEPS:
        doc[w]["salts"] = [["0" * 16] + row[1:] for row in doc[w]["salts"]]
    bad = os.path.join(WORK, "corrupt.json")
    json.dump(doc, open(bad, "w"))
    for w in SWEEPS:
        res = bench(w, 0, digests=bad)
        ok_frac = res and res["metrics"]["ok_frac"]["value"]
        check(res is not None and not res["correct"] and res["failed"] > 0
              and ok_frac < 1.0, "%s: corrupted digest drives ok_frac below 1" % w)

    ledger = os.path.join(WORK, "ledger")
    bench("fabric-storm", 0, extra=["--ledger", ledger])
    subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                    "./bin/csteer.exe"], check=True, stdout=sys.stderr)
    listed = subprocess.run(
        [os.path.join("_build", "default", "bin", "csteer.exe"), "runs", "list",
         "--dir", ledger, "--json"], capture_output=True, text=True)
    check(listed.returncode == 0 and '"bench"' in listed.stdout,
          "csteer runs list shows the bench entry")

    bare = tempfile.mkdtemp(dir=WORK)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    lone = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "fig5-sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(lone.returncode != 0 and '"metrics"' not in lone.stdout,
          "run.py fails without a result outside a checkout")

    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest: %s" % ("OK" if not failures else "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
