#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the repository root. The first run configures and builds
perfbench/ (and the simulator sources it compiles from ../src) into
build-perfbench/; later runs only re-check the build. Build output goes to
stderr, so the benchmark's last stdout line stays its JSON result. Exits
non-zero, printing no result, when the sources are missing or the build or
the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path("build-perfbench")
WORKLOADS = ("fleet_boot", "paper_rows", "audited_memops")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_rev():
    """Digest of the sources the binary is built from; a checkout need not
    be a git repository, so this stands in for the commit id."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt"):
                h.update(path.relative_to(ROOT).as_posix().encode())
                h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to perfbench/")
    build_dir = ROOT / BUILD
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--rev", source_rev()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
