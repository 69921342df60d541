#!/usr/bin/env python3
"""Build and run the reproduction benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload insitu --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in perfbench/, a module of its own that
imports the repository's packages through a replace directive. This
script builds it into the build directory ($CARGO_TARGET_DIR, default
.bench_build) with the Go build cache, temporary files and Go's user
configuration kept there as well, then runs it with the same arguments.
The program prints a JSON result as its last line; the script checks
that the result carries exactly the metrics BENCHMARK.json names for
the mode (--trace 0: end_to_end, --trace 1: per_layer).
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    for d in ("go-cache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if b.returncode != 0:
        fail("build failed:\n" + b.stdout.decode(errors="replace"))

    args = sys.argv[1:]
    try:
        p = subprocess.run([binary] + args + ["--out", build], cwd=root, env=env,
                           stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = p.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if p.returncode != 0:
        sys.exit(p.returncode)

    lines = out.strip().splitlines()
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--trace", default="0")
    traced = mode.parse_known_args(args)[0].trace == "1"
    want = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(want - got), sorted(got - want)))


if __name__ == "__main__":
    main()
