#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The OCaml program (perfbench/main.ml) is built with dune into .bench_build/
at the root of the repository, in the release profile and without dune's
shared cache, so the build reads and writes nothing outside the repository.
It then runs from the repository root with the same arguments.  Its standard
output is passed through: the last line is the JSON result.  That line's
metric names and units are checked against BENCHMARK.json.  The exit code is
the program's, or non-zero when the build fails, the run times out or the
metrics do not match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache=disabled", "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def check_metrics(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))


def main():
    args = sys.argv[1:]
    build()
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    opts = dict(zip(args[::2], args[1::2]))
    if done.returncode in (0, 1) and lines and opts.get("--workload") != "all":
        check_metrics(lines[-1], opts.get("--trace"))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
