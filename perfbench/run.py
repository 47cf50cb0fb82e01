#!/usr/bin/env python3
"""Builds the perfbench program from the checkout's sources and runs it.

Run from the root of an ipdb checkout:

    python3 perfbench/run.py --workload serve_circuit --seed 1 \
        --seconds 30 --trace 0

The library and the program are built (CMake, Release, -O2 -DNDEBUG) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only re-check the build. The program's working files (span files, durable
stores) go to .bench_build/run. Everything the program prints is passed
through; its last line is the result object. Build output goes to
stderr. See WORKLOADS.md for what each workload measures.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def source_id(root):
    """The git sha when the checkout is a git work tree, else a digest of
    the library and benchmark sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, _, files in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(root, build_dir, env):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no src/CMakeLists.txt here; run from the root of "
              "an ipdb checkout", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"],
            stdout=sys.stderr, env=env)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                              stdout=sys.stderr, env=env)
    return compiled.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    target = os.path.join(root,
                          os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(target, "run")
    tmp_dir = os.path.join(target, "tmp")
    for directory in (build_dir, work_dir, tmp_dir):
        os.makedirs(directory, exist_ok=True)
    # Compiler and library temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(root, build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", work_dir, "--source-id", source_id(root)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
