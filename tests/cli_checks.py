#!/usr/bin/env python3
"""End-to-end checks of hpcsec_cli's exit status and flight-recorder dumps.

    cli_checks.py failed-run PATH/TO/hpcsec_cli
    cli_checks.py flight-dumps PATH/TO/hpcsec_cli

failed-run: HPCG under chaos kills with the restart policy cannot finish
within the harness timeout; the CLI must print one
"hpcsec_cli: error: ..." line to stderr and exit 1, not abort.

flight-dumps: the observability soak runs at --jobs 1 and at --jobs 4, each
in its own temporary directory. Both runs must print the same stdout and
leave the same dump files with the same bytes, and the "last:" dump the
summary names must be among them.

Exits 0 when the check holds, 1 with a message when it does not.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

SOAK_ARGS = ["--workload", "gups", "--config", "linux", "--trials", "4",
             "--profile", "--flight-depth", "64", "--chaos=10",
             "--restart-policy=1000", "--check=sampled"]


def fail(msg):
    print(f"cli_checks: {msg}", file=sys.stderr)
    sys.exit(1)


def failed_run(cli):
    r = subprocess.run([cli, "--workload", "hpcg", "--chaos", "--restart-policy"],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 1:
        fail(f"expected exit status 1, got {r.returncode}; stderr:\n{r.stderr}")
    lines = r.stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("hpcsec_cli: error: "):
        fail(f"expected one 'hpcsec_cli: error: ' line on stderr, got:\n{r.stderr}")


def soak(cli, jobs, workdir):
    r = subprocess.run([cli, *SOAK_ARGS, "--jobs", str(jobs)], cwd=workdir,
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        fail(f"soak at --jobs {jobs} exited {r.returncode}; stderr:\n{r.stderr}")
    dumps = {p.name: p.read_bytes() for p in Path(workdir).iterdir()}
    return r.stdout, dumps


def flight_dumps(cli):
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d4:
        out1, dumps1 = soak(cli, 1, d1)
        out4, dumps4 = soak(cli, 4, d4)
    if out1 != out4:
        fail(f"stdout differs between --jobs 1 and 4:\n--- jobs 1\n{out1}"
             f"--- jobs 4\n{out4}")
    if sorted(dumps1) != sorted(dumps4):
        only1 = sorted(set(dumps1) - set(dumps4))
        only4 = sorted(set(dumps4) - set(dumps1))
        fail(f"dump names differ: only at jobs 1 {only1}, only at jobs 4 {only4}")
    if not dumps1:
        fail("the soak wrote no flight dumps")
    changed = [name for name in sorted(dumps1) if dumps1[name] != dumps4[name]]
    if changed:
        fail(f"dump contents differ between --jobs 1 and 4: {changed}")
    last = [ln.split("last: ", 1)[1] for ln in out1.splitlines()
            if ln.startswith("flight: ") and "last: " in ln]
    if len(last) != 1 or last[0] not in dumps1:
        fail(f"the 'last:' dump {last} is not among the {len(dumps1)} files written")


def main():
    checks = {"failed-run": failed_run, "flight-dumps": flight_dumps}
    if len(sys.argv) != 3 or sys.argv[1] not in checks:
        fail(f"usage: {sys.argv[0]} {{{'|'.join(checks)}}} PATH/TO/hpcsec_cli")
    checks[sys.argv[1]](str(Path(sys.argv[2]).resolve()))


if __name__ == "__main__":
    main()
