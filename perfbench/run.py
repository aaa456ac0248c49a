#!/usr/bin/env python3
"""Build hppa-serve and the benchmark from source, then run one benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result printed by
perfbench/bench.exe; build output and progress go to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

SERVER = "_build/default/bin/hppa_served.exe"
BENCH = "_build/default/perfbench/bench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{argv[0]} did not finish within {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["warm_zipf", "cold32", "exec_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for path in ("dune-project", "bin/hppa_served.ml", "lib/server/server.ml",
                 "perfbench/dune"):
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of a source checkout")

    # The dune cache would write outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run_group(["dune", "build", "--root", ".", "./bin/hppa_served.exe",
                      "./perfbench/bench.exe"],
                     BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")

    sys.stdout.flush()
    code = run_group([BENCH, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--server", SERVER],
                     RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
