#!/usr/bin/env python3
"""Smoke test of the host-time sampler and its layer fold.

    hostprof_smoke.py PATH/TO/libhostprof.so PATH/TO/hpcsec_cli PATH/TO/prof_layers.py

Runs a short hpcsec_cli workload with the sampler preloaded, then folds
the samples. Passes when the run succeeds, the sampler wrote samples, the
fold resolved some of them to hpcsec functions, and the layer shares add
up to 100 %. Exits 0 when the check holds, 1 with a message when it does
not.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CLI_ARGS = ["--workload", "stream", "--config", "linux", "--trials", "20", "--jobs", "1"]


def fail(msg):
    print(f"hostprof_smoke: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 4:
        fail(f"usage: {sys.argv[0]} LIBHOSTPROF HPCSEC_CLI PROF_LAYERS")
    lib, cli, fold = (str(Path(a).resolve()) for a in sys.argv[1:])
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "prof.txt"
        env = dict(os.environ, LD_PRELOAD=lib, HOSTPROF_OUT=str(out))
        r = subprocess.run([cli, *CLI_ARGS], cwd=d, env=env, capture_output=True,
                           text=True, timeout=300)
        if r.returncode != 0:
            fail(f"hpcsec_cli exited {r.returncode} under the sampler:\n{r.stderr}")
        if not out.is_file():
            fail("the sampler wrote no profile")
        r = subprocess.run([sys.executable, fold, str(out), "--json", "--top", "5"],
                           capture_output=True, text=True, timeout=300)
        if r.returncode != 0:
            fail(f"prof_layers.py exited {r.returncode}:\n{r.stderr}")
        report = json.loads(r.stdout)
    if report["samples"] < 10:
        fail(f"only {report['samples']} samples")
    total = sum(report["layers"].values())
    if abs(total - 100.0) > 1e-6:
        fail(f"layer shares add up to {total} %")
    if not any("hpcsec::" in name for name, _ in report["top"]):
        fail(f"no hpcsec function among the top five: {report['top']}")


if __name__ == "__main__":
    main()
