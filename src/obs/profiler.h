// Cycle-attribution profiler: a "perf top" for the simulator.
//
// PR 1's metrics can say *that* hypervisor overhead exists; this sink says
// *where* it went. Every cycle a core spends on a kernel or hypervisor
// path reaches it through arch::Executor::charge, under the path the
// charge site names (world-switch, vGIC route, timer tick, ...), so the
// paths add up to CoreUsage::overhead by construction. The executor also
// attributes stage-2 walk cycles at chunk boundaries, and hypercalls are
// counted per call number. Cycles are bucketed per (VM, core). Attribution
// is purely observational: the profiler never charges the Executor, so
// figure benches stay bit-identical with the profiler attached.
//
// Cost model: a detached profiler (the default) costs the Executor one
// predicted branch per charge. When enabled, the engine's dispatch probe
// drives deterministic sampling of the cumulative per-path totals, which
// export as Perfetto counter tracks; the final tree exports as
// collapsed-stack text ("vm;core;path cycles") that flamegraph.pl /
// speedscope consume directly.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace hpcsec::obs {

/// Attribution paths — the SPM/kernel code paths the paper's figures
/// account cycles to. Keep to_string in profiler.cpp in sync (tools/sca
/// fails the build otherwise).
enum class ProfPath : std::uint8_t {
    kWorldSwitch,  ///< full VM context switch through EL2 (enter/exit)
    kHypercall,    ///< hypercalls by call number (counts only: handlers
                   ///< charge their cycles under their own paths)
    kStage2Walk,   ///< nested-walk TLB refill transients under stage 2
    kVgicRoute,    ///< virq drain/injection on VCPU entry
    kIrqRoute,     ///< IRQ entry and routing (kernel vector, SPM paths)
    kTimerTick,    ///< vtimer/kernel tick service
    kSchedule,     ///< scheduler picks and guest thread switches
};
inline constexpr std::size_t kProfPathCount = 7;

[[nodiscard]] const char* to_string(ProfPath p);

/// Hierarchical cycle sink. Disabled (the default) it is a null object:
/// charge()/count_call() cost one predicted branch, set_context() is a
/// store, and nothing allocates.
class CycleProfiler final : public sim::DispatchProbe {
public:
    struct PathCell {
        std::uint64_t cycles = 0;
        std::uint64_t count = 0;
    };

    /// One (vm, core) attribution bucket. vm 0 is the EL2/host context
    /// (charges landing before any VM context is installed).
    struct Slot {
        int vm = 0;
        int core = 0;
        std::array<PathCell, kProfPathCount> paths{};
        std::vector<PathCell> calls;  ///< indexed by raw hypercall number
    };

    /// Cumulative per-path totals sampled at a deterministic event cadence.
    struct CounterSample {
        sim::SimTime when = 0;
        std::array<std::uint64_t, kProfPathCount> cycles{};
    };

    /// Arm the profiler for `ncores` cores. Idempotent; resets nothing on
    /// a second call with the same core count.
    void enable(int ncores);
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Counter-track sampling cadence in engine dispatches (default 4096;
    /// 0 disables sampling but keeps attribution).
    void set_sample_period(std::uint64_t dispatches) { sample_period_ = dispatches; }

    /// Resolve hypercall numbers to names in exports (set by core::Node so
    /// obs never depends on the hafnium layer). Unset numbers render as
    /// "call_<n>".
    void set_call_namer(std::function<std::string(unsigned)> namer) {
        call_namer_ = std::move(namer);
    }

    // --- hot paths ----------------------------------------------------------
    /// Install the VM context charges on `core` attribute to. Called at
    /// world-switch cadence (cold relative to charge sites).
    void set_context(int core, int vm) {
        if (!enabled_) [[likely]] return;
        set_context_slow(core, vm);
    }

    /// Attribute `cycles` the core spent under `p`. In the simulator the
    /// only caller is arch::Executor: its charge() and its chunk closes.
    void charge(int core, ProfPath p, sim::Cycles cycles) {
        if (!enabled_) [[likely]] return;
        charge_slow(core, p, cycles);
    }

    /// Count one hypercall by raw number (also counts ProfPath::kHypercall).
    void count_call(int core, unsigned call_number) {
        if (!enabled_) [[likely]] return;
        count_call_slow(core, call_number);
    }

    /// sim::DispatchProbe: deterministic sampling clock for counter tracks.
    void on_dispatch(sim::SimTime now, int priority) override;

    // --- inspection ---------------------------------------------------------
    [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
    [[nodiscard]] const std::vector<CounterSample>& samples() const {
        return samples_;
    }
    [[nodiscard]] std::uint64_t total(ProfPath p) const;
    [[nodiscard]] std::uint64_t total_cycles() const;
    [[nodiscard]] PathCell call_total(unsigned call_number) const;

    /// Fold another profiler's tree into this one (cross-trial totals).
    /// Samples are not merged (they are per-run timelines).
    void merge(const CycleProfiler& other);

    void clear();

    // --- export -------------------------------------------------------------
    /// Collapsed-stack text: one "vm<N>;core<M>;<path>[;<call>] <cycles>"
    /// line per non-empty leaf — flamegraph.pl / speedscope input.
    void write_collapsed(std::ostream& os) const;

    /// Human-readable top-N attribution table ("perf top").
    [[nodiscard]] std::string perf_top(const sim::ClockSpec& clock,
                                       std::size_t max_rows = 16) const;

    /// Resolved display name for a call number ("call_<n>" without a namer).
    [[nodiscard]] std::string call_name(unsigned call_number) const;

private:
    void set_context_slow(int core, int vm);
    void charge_slow(int core, ProfPath p, sim::Cycles cycles);
    void count_call_slow(int core, unsigned call_number);
    Slot& slot_for(int core, int vm);

    bool enabled_ = false;
    int ncores_ = 0;
    std::uint64_t sample_period_ = 4096;
    std::uint64_t dispatches_ = 0;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> current_;  ///< per-core index into slots_
    std::vector<CounterSample> samples_;
    std::function<std::string(unsigned)> call_namer_;
};

}  // namespace hpcsec::obs
