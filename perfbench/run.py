#!/usr/bin/env python3
"""Builds the repo benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload clinical_olap --seed 1 \
        --seconds 15 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench under the
checkout root and is incremental. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. A traced run
(--trace 1) also writes its span dump to .bench_build/traces/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("clinical_olap", "retail_wire", "clinical_ingest")


def source_stamp():
    """Hash of every library and benchmark source: ties a result to code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources (src/CMakeLists.txt) "
                 "in this checkout")
    generated = [os.path.join(BUILD, name) for name in
                 ("build.ninja", "Makefile")]
    if not any(os.path.isfile(path) for path in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "--parallel", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--stamp", source_stamp()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
