#!/usr/bin/env python3
"""Build the layered cost ledger from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scale-passive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one command
    python3 perfbench/run.py --self-test             # tiny sizes, every check

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Traces and a machine-tagged
ledger of every result go to .perfbench/ under the repository root.
"""

import argparse
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/ledger.exe"
EXE = os.path.join("_build", "default", "perfbench", "ledger.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def commit():
    # never read the revision of a repository enclosing this one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload and check at tiny sizes")
    a = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: the library sources are missing; "
              "run from the repository root", file=sys.stderr)
        return 2
    tool = dune()
    if tool is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # no shared build cache: everything the build writes stays in _build/
    build = subprocess.run(tool + ["build", "--root", ".", "--cache=disabled", TARGET],
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    args = [EXE, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--commit", commit()]
    if a.self_test:
        # traced mode runs the untraced repetitions too, so every check runs
        args = [EXE, "--workload", "all", "--seed", str(a.seed), "--seconds", "0",
                "--trace", "1", "--commit", commit(), "--tiny"]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
