#!/usr/bin/env python3
"""End-to-end benchmark of the LDP join-size fleet.

Builds the load generator (perfbench/CMakeLists.txt, which compiles the
repository's own `ldpjs` library target) from the checkout this script
lives in, then runs one workload:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads: ingest, serve_mixed, federate_wide, plus_offline (see
BENCHMARK.json and the header comment of each perfbench/workload_*.cc).
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; a traced run writes its span file to <build>/traces/. Build
output goes to stderr; the program's stdout is passed through unchanged, so
its last line is the result JSON. The exit status is the program's (0 when
every correctness check passed); a failed build or a missing source tree
exits 1 without printing a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no source tree next to perfbench/ (CMakeLists.txt and src/ "
             "are required)")
    cmake_dir = out / "cmake"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (cmake_dir / "CMakeCache.txt").is_file() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", str(cmake_dir), "--target", "ldpjs_loadgen",
              "-j", "4"]]
    # Compiler scratch files stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    binary = cmake_dir / "ldpjs_loadgen"
    if not binary.is_file():
        fail("build produced no ldpjs_loadgen")
    return binary


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds, so a result names the
    code it measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(traces),
               "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
