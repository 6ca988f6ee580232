#!/usr/bin/env python3
"""The figure, ablation and parity benches print the same bytes at any --jobs.

    bench_jobs_invariant.py PATH/TO/BUILD/bench

Runs each bench below at --jobs 1 and at --jobs 4, each run in its own
temporary directory, and requires byte-identical stdout and BENCH_*.json
files. Trial counts, samples and simulated seconds are kept small so every
run takes well under a second on a release build.

Exits 0 when every bench agrees, 1 with a message naming the first that
does not.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

BENCHES = [
    ["fig04_06_selfish"],
    ["fig07_08_memory", "4"],
    ["fig09_10_nas", "2"],
    ["abl_irq_routing"],
    ["abl_noise"],
    ["abl_scale", "3"],
    ["abl_secure_world"],
    ["abl_stage2_tlb"],
    ["abl_tick_rate"],
    ["isa_parity", "5"],
]


def fail(msg):
    print(f"bench_jobs_invariant: {msg}", file=sys.stderr)
    sys.exit(1)


def run(bench_dir, args, jobs, workdir):
    r = subprocess.run([str(bench_dir / args[0]), *args[1:], "--jobs", str(jobs)],
                       cwd=workdir, capture_output=True, timeout=300)
    if r.returncode != 0:
        fail(f"{args[0]} at --jobs {jobs} exited {r.returncode}; stderr:\n"
             f"{r.stderr.decode(errors='replace')}")
    reports = {p.name: p.read_bytes() for p in Path(workdir).glob("BENCH_*.json")}
    if not reports:
        fail(f"{args[0]} at --jobs {jobs} wrote no BENCH_*.json")
    return r.stdout, reports


def main():
    if len(sys.argv) != 2:
        fail("usage: bench_jobs_invariant.py PATH/TO/BUILD/bench")
    bench_dir = Path(sys.argv[1]).resolve()
    for args in BENCHES:
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d4:
            out1, reports1 = run(bench_dir, args, 1, d1)
            out4, reports4 = run(bench_dir, args, 4, d4)
        if out1 != out4:
            fail(f"{args[0]}: stdout differs between --jobs 1 and 4:\n--- jobs 1\n"
                 f"{out1.decode(errors='replace')}--- jobs 4\n"
                 f"{out4.decode(errors='replace')}")
        if reports1 != reports4:
            fail(f"{args[0]}: BENCH_*.json differs between --jobs 1 and 4 "
                 f"({sorted(reports1)} vs {sorted(reports4)})")
        print(f"{' '.join(args)}: identical at --jobs 1 and 4")


if __name__ == "__main__":
    main()
