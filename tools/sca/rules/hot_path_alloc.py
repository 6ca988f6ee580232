"""hot-path-alloc: the steady-state dispatch loop must stay off the heap.

Functions reachable from the engine's dispatch loop and from the hypercall
table (the per-event and per-call hot paths) must not perform global heap
allocation: no non-placement `new`, no make_unique/make_shared, and no
growing container call (push_back, emplace_back, emplace, insert, resize,
assign). Long-lived state belongs in the per-trial sim::Arena; per-event
state belongs in preallocated slabs or fixed arrays (tests/test_alloc.cpp
proves the invariant end to end with a counting global operator new). The
match is by name, so a call of one of those names on a fixed-size type
(IrqBitset::insert) needs the same reviewed suppression.

Reachability is the same over-approximating name-matched walk as
no-throw-guest-path, seeded from `hot_path_entry_functions` plus every
`&Spm::on_*` handler in the dispatch table. std::function seams the name
matcher cannot see (event closures, the per-core IRQ handler) are bridged
by `hot_path_extra_edges`.

Escape hatches, both deliberate and reviewable:

  * a call site annotated `// sca-suppress(hot-path-alloc): reason` is a
    traversal barrier (use where the callee runs only on a cold/control
    path, e.g. boot-time construction);
  * an allocation annotated the same way is accepted (use for amortized
    growth into a container that is warmed before steady state, or for
    arena-backed containers whose allocator never touches the heap).
"""

from __future__ import annotations

import re

from sca.model import Finding
from sca.registry import rule
from sca.rules.guest_paths import _table_handlers

RULE = "hot-path-alloc"

# `new (` is placement form (arena/slab construction) and stays allowed;
# `new (std::nothrow)` would slip through this heuristic, but the project
# has no nothrow-new call sites and det-* rules keep it that way in spirit.
_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
_GROW_RE = re.compile(
    r"\b(make_unique|make_shared|push_back|emplace_back|emplace|insert|resize|assign)\b")


@rule(RULE,
      "dispatch-loop and hypercall paths never allocate on the heap",
      "move the state into the trial arena or a preallocated slab; if the "
      "growth is warmed before steady state or the container is "
      "arena-backed, annotate it with sca-suppress(hot-path-alloc) and the "
      "justification")
def hot_path_alloc(analysis):
    cg = analysis.callgraph
    seeds: list[str] = list(analysis.config["hot_path_entry_functions"])
    seeds += _table_handlers(analysis)
    extra: dict[str, list[str]] = {}
    for src, dst in analysis.config["hot_path_extra_edges"]:
        extra.setdefault(src, []).append(dst)

    def barrier(sf, line) -> bool:
        return sf.suppression_for(RULE, line) is not None

    # BFS with parent pointers for the diagnostic chain.
    parent: dict[int, tuple[int | None, str]] = {}
    queue: list = []
    seen: set[int] = set()

    def visit(fd, from_id) -> None:
        if id(fd) in seen:
            return
        seen.add(id(fd))
        parent[id(fd)] = (from_id, fd.qname)
        queue.append(fd)

    for qname in seeds:
        for fd in cg.resolve(qname):
            visit(fd, None)
    while queue:
        fd = queue.pop(0)
        callees = [name for name, _site in cg.callees(fd, barrier)]
        callees += extra.get(fd.name, []) + extra.get(fd.qname, [])
        for callee_name in callees:
            for target in cg.resolve(callee_name):
                visit(target, id(fd))

    def chain(fd) -> str:
        names = []
        key: int | None = id(fd)
        while key is not None:
            prev, name = parent[key]
            names.append(name)
            key = prev
        return " <- ".join(names)

    reachable = sorted((fd for fd in cg.functions if id(fd) in seen),
                       key=lambda f: (f.file.rel, f.line))
    for fd in reachable:
        clean = fd.file.clean
        hits = [(m.start(), "non-placement new")
                for m in _NEW_RE.finditer(clean, fd.body_start, fd.body_end)]
        hits += [(m.start(), f"{m.group(1)} (heap growth)")
                 for m in _GROW_RE.finditer(clean, fd.body_start, fd.body_end)]
        for off, what in sorted(hits):
            yield Finding(
                RULE, fd.file.rel, fd.file.line_of(off),
                f"{what} in {fd.qname}, on the dispatch hot path via "
                f"{chain(fd)}")
