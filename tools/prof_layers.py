#!/usr/bin/env python3
"""Fold a hostprof sample file into the simulator's layers.

    prof_layers.py PROFILE [--top N] [--symbol REGEX ...] [--json]

PROFILE is what tools/hostprof/libhostprof.so writes at exit: the
executable segments of every loaded object and one interrupted PC per
SIGPROF sample. Each PC is mapped to the function that holds it with
`nm -C` over the object's own symbol table (its dynamic table when it has
no other), then each function to one layer by its demangled name, first
match wins:

    audit        hpcsec::check, the stage-2 run walks, owner-run scans
    crypto       hpcsec::crypto
    stats/obs    hpcsec::obs and the sim:: statistics
    engine       the rest of hpcsec::sim (event queue, deadlines, RNG)
    executor     arch::Executor, arch::PerfModel, arch::Core
    spm          hafnium:: and hf::, the SPM gate and handlers
    platform     the rest of hpcsec::arch: stage-2 tables, memory map, GIC
    guest        hpcsec::kitten and hpcsec::linux_fwk
    workloads    hpcsec::wl
    node         hpcsec::core, cluster and resil: boot, harness, teardown
    runtime      std::, operator new/delete, and every other loaded object
                 (libc, libm, libstdc++, the loader)
    other        the rest of the program (main, perfbench's rep loop), and
                 PCs outside every object

Every sample lands in exactly one layer, so the shares add up to 100 %.
Prints the layer table and the top functions; --symbol prints the share
of the functions matching each REGEX; --json prints the same as JSON.
"""

import argparse
import bisect
import json
import os
import re
import subprocess
import sys
from collections import Counter

LAYERS = [
    ("audit", r"hpcsec::check::|PageTable::(visit_mappings|for_each_mapping|"
              r"refresh_runs|refresh_range)|MemoryMap::for_each_owner_run"),
    ("crypto", r"hpcsec::crypto::"),
    ("stats/obs", r"hpcsec::obs::|hpcsec::sim::(RunningStats|LogHistogram|"
                  r"Sample|Stats)"),
    ("engine", r"hpcsec::sim::"),
    ("executor", r"hpcsec::arch::(Executor|PerfModel|Core)\b"),
    ("spm", r"hpcsec::(hafnium|hf)::"),
    ("platform", r"hpcsec::arch::"),
    ("guest", r"hpcsec::(kitten|linux_fwk)::"),
    ("workloads", r"hpcsec::wl::"),
    ("node", r"hpcsec::(core|cluster|resil)::"),
    ("runtime", r"^(std::|__gnu_cxx::|operator (new|delete)|__)"),
]
OTHER = "other"
RUNTIME = "runtime"


def fail(msg):
    print(f"prof_layers: {msg}", file=sys.stderr)
    sys.exit(1)


def read_profile(path):
    """Header fields, executable segments sorted by address, PCs, and the
    program itself: the object of the first segment written."""
    segs, pcs, header = [], [], {}
    with open(path) as f:
        first = f.readline().split()
        if first != ["hostprof", "1"]:
            fail(f"{path}: not a hostprof file")
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "seg":
                start, end, bias, obj = rest.split(" ", 3)
                segs.append((int(start, 16), int(end, 16), int(bias, 16), obj))
            elif kind in ("samples", "dropped"):
                header[kind] = int(rest)
    program = segs[0][3] if segs else None
    segs.sort()
    return header, segs, pcs, program


def text_symbols(obj):
    """(sorted addresses, names) of the functions `nm -C` lists for obj.
    A stripped object lists only its exported functions, so a PC there is
    named after the exported function below it, as "OBJ: near NAME"."""
    for extra in ([], ["-D"]):
        r = subprocess.run(["nm", "-C", "-n", "--defined-only", *extra, obj],
                           capture_output=True, text=True)
        addrs, names = [], []
        for line in r.stdout.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "TtWwi" and parts[0]:
                addrs.append(int(parts[0], 16))
                names.append(parts[2] if not extra else
                             f"{os.path.basename(obj)}: near {parts[2]}")
        if addrs:
            return addrs, names
    return [], []


def classify(name, obj, program):
    for layer, pattern in LAYERS:
        if re.search(pattern, name):
            return layer
    return OTHER if obj in (program, "?") else RUNTIME


def fold(path):
    header, segs, pcs, program = read_profile(path)
    starts = [s[0] for s in segs]
    symbols = {}
    functions = Counter()  # (object, function) -> samples
    for pc in pcs:
        k = bisect.bisect_right(starts, pc) - 1
        if k < 0 or pc >= segs[k][1]:
            functions[("?", "?")] += 1
            continue
        _, _, bias, obj = segs[k]
        if obj not in symbols:
            symbols[obj] = text_symbols(obj)
        addrs, names = symbols[obj]
        i = bisect.bisect_right(addrs, pc - bias) - 1
        name = names[i] if i >= 0 else f"?({os.path.basename(obj)})"
        functions[(obj, name)] += 1
    layers = Counter()
    for (obj, name), n in functions.items():
        layers[classify(name, obj, program)] += n
    return header, len(pcs), layers, functions


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("profile")
    p.add_argument("--top", type=int, default=15, help="functions to list")
    p.add_argument("--symbol", action="append", default=[],
                   help="print the share of functions matching this regex")
    p.add_argument("--json", action="store_true")
    args = p.parse_args()

    header, total, layers, functions = fold(args.profile)
    if total == 0:
        fail(f"{args.profile}: no samples")
    pct = lambda n: 100.0 * n / total
    order = [name for name, _ in LAYERS] + [OTHER]
    by_name = Counter()
    for (_, name), n in functions.items():
        by_name[name] += n
    matched = {rx: sum(n for name, n in by_name.items() if re.search(rx, name))
               for rx in args.symbol}
    if args.json:
        json.dump({"samples": total, "dropped": header.get("dropped", 0),
                   "layers": {l: pct(layers[l]) for l in order},
                   "symbols": {rx: pct(n) for rx, n in matched.items()},
                   "top": [[name, pct(n)] for name, n in by_name.most_common(args.top)]},
                  sys.stdout, indent=1)
        print()
        return
    print(f"{total} samples ({header.get('dropped', 0)} dropped)")
    print(f"{'layer':<12} {'samples':>8} {'share':>8}")
    for layer in order:
        print(f"{layer:<12} {layers[layer]:>8} {pct(layers[layer]):>7.1f}%")
    print(f"{'total':<12} {total:>8} {100.0:>7.1f}%")
    for rx, n in matched.items():
        print(f"symbol /{rx}/: {n} samples, {pct(n):.1f}%")
    print(f"top {args.top} functions:")
    for name, n in by_name.most_common(args.top):
        print(f"  {pct(n):5.1f}%  {name[:110]}")


if __name__ == "__main__":
    main()
