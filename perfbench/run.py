#!/usr/bin/env python3
"""Build the clusteer benchmark from source, then run it.

Run from the root of a clusteer checkout:

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 15 --trace 0

The program is built with dune (the shared dune cache disabled, so that
nothing is written outside the checkout) and the arguments are passed
to perfbench/main.exe, whose last stdout line is the result JSON;
main.exe starts perfbench/calib/calib.exe, the host-speed reference.
The run is killed, together with any server or reference process it
started, if it overruns; it then exits non-zero without a result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
CALIB = os.path.join("_build", "default", "perfbench", "calib", "calib.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: not at the root of a clusteer checkout "
              "(no dune-project and lib/ here)", file=sys.stderr)
        return False
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/main.exe", "./perfbench/calib/calib.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return False
    if done.returncode != 0 or not all(map(os.path.isfile, [EXE, CALIB])):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run(args, timeout=RUN_TIMEOUT_S):
    """Run main.exe in its own process group; return its exit code."""
    proc = subprocess.Popen([EXE] + args, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s, killed" % timeout,
              file=sys.stderr)
        return 3
    finally:
        # A server child left behind by a crash shares the group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    if not build():
        return 2
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
