"""Project configuration: the declared invariants the rules enforce.

Defaults describe the real hpcsec tree. A fixture tree (or a downstream
fork) can override any top-level key by placing an `sca-project.json` at
its root, or via `--config FILE`.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULTS: dict = {
    # ---- include-layer DAG (layer-dag) ------------------------------------
    # Directory under src/ -> directories it may #include from. Self-edges
    # are always allowed. The graph must be acyclic; the rule validates
    # that too. Layering story: sim < {obs, crypto} < arch < hafnium <
    # {kitten, linux_fwk} < core < {resil, cluster}; obs/check/resil are
    # observer layers with the narrow edges listed here. `obs` must never
    # see `hafnium` (call names are injected by core::Node instead).
    "layers": {
        "sim": [],
        "crypto": [],
        "obs": ["sim"],
        "arch": ["sim", "obs"],
        "hafnium": ["arch", "crypto", "obs", "sim"],
        "kitten": ["arch", "hafnium"],
        "linux_fwk": ["arch", "hafnium"],
        # workloads -> hafnium/check: the adversarial suite (attack.*) drives
        # real SPM access paths and borrows check's corruption backdoor for
        # its exploit primitive. Compute workloads must not grow such edges.
        "workloads": ["arch", "check", "hafnium", "obs", "sim"],
        "check": ["arch", "hafnium", "obs"],
        "core": ["arch", "check", "crypto", "hafnium", "kitten",
                 "linux_fwk", "obs", "sim", "workloads"],
        "resil": ["core", "hafnium", "sim"],
        "cluster": ["core", "sim", "workloads"],
    },

    # ---- ISA backend isolation (isa-portability) --------------------------
    # Include prefixes that resolve inside an ISA backend. The layer DAG
    # can't see the arch/ split (arch/arm/gic.h and arch/isa.h are both
    # layer "arch"), so isa-portability separately forbids these prefixes
    # outside src/arch/ — across the whole corpus, tests/bench included.
    "isa_backend_dirs": ["arch/arm", "arch/riscv"],

    # ---- enum/to_string coverage (enum-string-coverage) -------------------
    # Enum name -> [header declaring it, source whose to_string must cover
    # every enumerator].
    "enums": {
        "Call": ["src/hafnium/hypercall.h", "src/hafnium/hypercall.cpp"],
        "HfError": ["src/hafnium/hypercall.h", "src/hafnium/hypercall.cpp"],
        "VcpuState": ["src/hafnium/vm.h", "src/hafnium/vm.cpp"],
        "ExitReason": ["src/hafnium/vm.h", "src/hafnium/vm.cpp"],
        "VmRole": ["src/hafnium/manifest.h", "src/hafnium/manifest.cpp"],
        "Rule": ["src/check/check.h", "src/check/check.cpp"],
        "Mode": ["src/check/check.h", "src/check/check.cpp"],
        "CorruptionKind": ["src/check/corrupt.h", "src/check/corrupt.cpp"],
        "EventType": ["src/obs/events.h", "src/obs/recorder.cpp"],
        "ProfPath": ["src/obs/profiler.h", "src/obs/profiler.cpp"],
        "VmHealth": ["src/resil/resil.h", "src/resil/resil.cpp"],
        "FailureKind": ["src/resil/resil.h", "src/resil/resil.cpp"],
        "ChaosFault": ["src/resil/chaos.h", "src/resil/chaos.cpp"],
        "ContainmentPolicy": ["src/resil/contain.h", "src/resil/contain.cpp"],
        "AttackKind": ["src/workloads/attack.h", "src/workloads/attack.cpp"],
    },

    # ---- Stats completeness (stats-publish-coverage) ----------------------
    # [class, header with its nested `struct Stats`, source defining
    # <Class>::publish_metrics].
    "stats_classes": [
        ["Spm", "src/hafnium/spm.h", "src/hafnium/spm.cpp"],
        ["Supervisor", "src/resil/resil.h", "src/resil/resil.cpp"],
        ["ChaosInjector", "src/resil/chaos.h", "src/resil/chaos.cpp"],
        ["ContainmentEngine", "src/resil/contain.h", "src/resil/contain.cpp"],
        ["AdversaryWorkload", "src/workloads/attack.h",
         "src/workloads/attack.cpp"],
    ],

    # ---- dispatch table (dispatch-table-complete) -------------------------
    "dispatch": {
        "enum": "Call",
        "header": "src/hafnium/hypercall.h",
        "source": "src/hafnium/spm.cpp",
        "table": "kCallTable",
        "count_constant": "kCallCount",
    },

    # ---- guest-reachable paths (no-throw-guest-path) ----------------------
    # Entry points are the dispatch gate itself plus every handler listed in
    # the dispatch table (discovered automatically from &Spm::on_xxx rows).
    "guest_entry_functions": [
        "Spm::hypercall", "Spm::hypercall_intercepted", "Spm::dispatch",
    ],
    # Unqualified callee names too generic to resolve by name: calls to
    # these are not traversed (they are overwhelmingly std:: container
    # methods). Project methods with these names must be reached through an
    # explicit edge in `extra_call_edges` if they matter.
    "ambiguous_callees": [
        "begin", "end", "size", "empty", "clear", "find", "count", "at",
        "front", "back", "insert", "erase", "push_back", "emplace_back",
        "pop_back", "reserve", "resize", "get", "reset", "str", "c_str",
        "data", "swap", "contains", "value", "reason", "what", "first",
        "second", "min", "max", "move", "forward", "to_string",
        # `schedule` exists on EventQueue and ChaosInjector;
        # name-matching would weld those class graphs together.
        "schedule",
        # `add` exists on RunningStats, LogHistogram, Sample, BenchReport
        # and MetricsAggregate; the hot-path observe() only ever reaches
        # the O(1) streaming pair, so welding them is pure noise.
        "add",
    ],
    # Extra edges "Caller::name -> Callee::name" for calls the name matcher
    # cannot see (ambiguous names, function pointers).
    "extra_call_edges": [
        # Spm::enter_vcpu calls arch::Executor::begin ("core already
        # running" guard); 'begin' is in ambiguous_callees.
        ["enter_vcpu", "Executor::begin"],
    ],

    # ---- hot-path allocation (hot-path-alloc) -----------------------------
    # The per-event dispatch loop; the hypercall-table handlers are added
    # automatically (same discovery as no-throw-guest-path).
    "hot_path_entry_functions": ["Engine::dispatch_one"],
    # std::function seams the name matcher cannot see: event closures the
    # engine dispatches and the per-core IRQ handler registration.
    "hot_path_extra_edges": [
        # engine events: timer deadlines are Engine::at closures over fire().
        ["dispatch_one", "GenericTimer::fire"],
        # Core::signal_irq invokes the registered IrqHandler std::function.
        ["signal_irq", "Spm::handle_phys_irq"],
        ["signal_irq", "KittenKernel::native_irq"],
    ],

    # ---- determinism bans (det-wall-clock / det-random) -------------------
    # Identifier patterns banned under src/ (the simulator must be a pure
    # function of its seed; bench/ and tests/ may time the host).
    "wall_clock_bans": [
        ["steady_clock", "host wall-clock read"],
        ["system_clock", "host wall-clock read"],
        ["high_resolution_clock", "host wall-clock read"],
        ["clock_gettime", "host wall-clock read"],
        ["gettimeofday", "host wall-clock read"],
        ["__rdtsc", "host cycle-counter read"],
        ["getrusage", "host resource-usage read"],
    ],
    "random_bans": [
        ["random_device", "non-deterministic entropy source"],
        ["rand", "C PRNG with global hidden state"],
        ["srand", "C PRNG with global hidden state"],
        ["drand48", "C PRNG with global hidden state"],
        ["mt19937", "std engine; streams not part of the seed protocol"],
        ["mt19937_64", "std engine; streams not part of the seed protocol"],
        ["minstd_rand", "std engine; streams not part of the seed protocol"],
        ["default_random_engine", "implementation-defined engine"],
        ["uniform_int_distribution",
         "std distribution; output differs across standard libraries"],
        ["uniform_real_distribution",
         "std distribution; output differs across standard libraries"],
        ["normal_distribution",
         "std distribution; output differs across standard libraries"],
    ],
    # Files allowed to hold the one blessed PRNG implementation.
    "random_allowed_files": ["src/sim/rng.h", "src/sim/rng.cpp"],

    # ---- lock discipline (lock-discipline) --------------------------------
    # file -> { field: required lock token }: every statement writing the
    # field must sit in a function that locks the named mutex (or carry a
    # guarded-by / suppression annotation).
    "guarded_fields": {
        "src/obs/metrics.cpp": {
            "entries_": "reg_mutex_",
        },
    },

    # ---- exhaustive switches (exhaustive-switch) --------------------------
    # Functions whose switches must be exhaustive even when they carry a
    # `default:` (a default there is exactly what hides a missing case).
    "exhaustive_switch_contexts": ["to_string"],
}


def load(root: Path, config_path: str | None = None) -> dict:
    cfg = dict(DEFAULTS)
    override = Path(config_path) if config_path else root / "sca-project.json"
    if override.is_file():
        loaded = json.loads(override.read_text())
        cfg.update(loaded)
        cfg["_config_source"] = str(override)
    return cfg
