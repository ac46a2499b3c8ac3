#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tpcc-pl --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The Go program in perfbench/ is built
into .bench_build/perfbench/ with a build cache kept there too, so the
benchmark reads and writes nothing outside the checkout. A traced run
(--trace 1) writes its spans to .bench_build/perfbench/spans-<workload>.jsonl.
The last line of standard output is the program's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 175


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    exe = os.path.join(OUT, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run passed %d s and was stopped" % RUN_TIMEOUT, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
