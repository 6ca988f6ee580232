// Shared pieces of the perfbench workloads: host clocks, the per-rep result
// record, and the bench-owned probes that time each layer from outside.
//
// Every probe here sits on a public seam of the simulator —
// Spm::attach_interceptor, Engine::set_dispatch_probe, the Harness hooks —
// or around the bench's own calls into core::Node. None charges modeled
// cycles, so simulated outputs are identical with and without them.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/node.h"
#include "hafnium/intercept.h"
#include "sim/engine.h"

namespace perfbench {

using namespace hpcsec;

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
}

namespace heap {
/// Live / peak global-heap bytes allocated by the calling thread.
std::int64_t live_bytes();
std::int64_t peak_bytes();
/// Restart peak tracking from the current live size.
void reset_peak();
}  // namespace heap

/// Layers whose host self time a traced run attributes. A layer's self time
/// is its span's duration minus the spans nested inside it; kBench is the
/// rep's outermost span, so the self times add up to the rep's wall time.
enum Layer : int {
    kBench,       ///< generation, checks and digests in the bench itself
    kBoot,        ///< Node construction + Node::boot
    kRun,         ///< run phases (engine, kernels, workload pricing)
    kTeardown,    ///< Node destruction + arena reset (+ harness merge)
    kMemops,      ///< bench side of hf:: memory calls and vm_read64 probes
    kLifecycle,   ///< dynamic partition launch / destroy
    kHfGate,      ///< hypercall chain outside the handler: gate + audit
    kHfHandler,   ///< hypercall handler
    kLayerCount,
};

const char* layer_name(Layer layer);

/// Span stack for one thread, active only in traced reps.
class Ledger {
public:
    void enter(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }
    /// Close the innermost span; returns its duration in seconds.
    double leave();
    [[nodiscard]] bool open() const { return !stack_.empty(); }
    [[nodiscard]] const std::array<double, kLayerCount>& self_s() const {
        return self_;
    }

private:
    struct Frame {
        Layer layer;
        Clock::time_point start;
        double child_s;
    };
    std::vector<Frame> stack_;
    std::array<double, kLayerCount> self_{};
};

/// Engine priorities the per-layer rows break out (sim::Priority values).
inline constexpr std::array<int, 4> kPriorities = {0, 10, 20, 50};

/// One timed rep of a workload's fixed work, and everything measured in it.
struct Rep {
    std::string witness;           ///< deterministic outputs only
    double wall_s = 0.0;
    double setup_s = 0.0;          ///< sum of construction + boot
    double run_s = 0.0;            ///< sum of run phases
    double run_events = 0.0;       ///< engine events dispatched in run phases
    double jobs = 1.0;             ///< worker threads the rep used
    std::vector<double> node_ms;   ///< per-node lifecycle latency
    std::vector<double> boot_ms, run_ms, teardown_ms;
    std::vector<double> hypercall_us;  ///< sampled hypercalls, outermost stage
    std::vector<double> handler_us;    ///< traced: handler alone
    std::vector<double> audit_us;      ///< traced: outer minus handler
    std::vector<double> node_heap_bytes;  ///< per node: heap peak + arena
    std::map<std::string, double> counts;  ///< per-layer counters, summed
    std::map<std::string, double> config_run_s;  ///< run phases per config
    std::array<double, kLayerCount> self_s{};     ///< traced
    std::array<double, kPriorities.size()> dispatch_ns{};  ///< traced
    std::array<double, kPriorities.size()> dispatches{};   ///< traced
    bool traced = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void fail(const std::string& what);
};

/// A workload holds its generated inputs; each run_rep performs the same
/// fixed work on them, so every rep must produce the same witness.
class Workload {
public:
    virtual ~Workload() = default;
    /// Worker threads for untraced timed reps.
    [[nodiscard]] virtual int jobs() const { return 1; }
    virtual Rep run_rep(bool traced, int jobs) = 0;
};

std::unique_ptr<Workload> make_fleet_boot(std::uint64_t seed);
std::unique_ptr<Workload> make_paper_rows(std::uint64_t seed);
std::unique_ptr<Workload> make_audited_memops(std::uint64_t seed);

/// Bench-owned hypercall timing. The outer interceptor (Stage::kTelemetry)
/// spans gate, audit and handler; the inner one (Stage::kReplay, traced
/// only) spans the handler, so audit time is outer minus inner. Latency
/// samples are kept for every `sample_every`-th call (counted per node, so
/// the same calls every rep); untraced, the other calls read no clock.
class HypercallTimer {
public:
    HypercallTimer(hafnium::Spm& spm, Ledger* ledger, std::uint64_t sample_every = 1);
    ~HypercallTimer();
    HypercallTimer(const HypercallTimer&) = delete;
    HypercallTimer& operator=(const HypercallTimer&) = delete;

    std::vector<double> total_us;    ///< sampled calls
    std::vector<double> handler_us;  ///< sampled calls, traced only
    std::vector<double> audit_us;    ///< total minus handler, traced only

private:
    class Hook final : public hafnium::HypercallInterceptor {
    public:
        Hook(HypercallTimer& timer, Stage stage)
            : HypercallInterceptor(stage), timer_(&timer) {}
        std::optional<hafnium::HfResult> before(const hafnium::HypercallSite&) override;
        void after(const hafnium::HypercallSite&, const hafnium::HfResult&) override;

    private:
        HypercallTimer* timer_;
    };
    struct Call {
        bool sampled;
        Clock::time_point start;
        double handler_s;
    };

    void enter(bool outer);
    void leave(bool outer);

    hafnium::Spm* spm_;
    Ledger* ledger_;
    std::uint64_t sample_every_;
    std::uint64_t calls_ = 0;
    std::vector<Call> open_;  ///< stack: a handler may issue nested calls
    Hook outer_;
    std::optional<Hook> inner_;
};

/// Attributes the host time between two dispatches to the priority of the
/// earlier event (traced runs only). Close it at the end of every run phase
/// so time spent outside the engine is not attributed.
class DispatchClock final : public sim::DispatchProbe {
public:
    explicit DispatchClock(sim::Engine& engine);
    ~DispatchClock() override;
    DispatchClock(const DispatchClock&) = delete;
    DispatchClock& operator=(const DispatchClock&) = delete;

    void on_dispatch(sim::SimTime now, int priority) override;
    /// Attribute the open interval, fold the totals into `rep` and reset.
    void close(Rep& rep);

private:
    sim::Engine* engine_;
    int prev_slot_ = -1;
    Clock::time_point prev_{};
    std::array<double, kPriorities.size()> ns_{};
    std::array<double, kPriorities.size()> n_{};
};

/// Boot-time layer counts (frames, stage-2 mappings, attestation log).
void count_boot(core::Node& node, Rep& rep);
/// Run-time layer counts (engine, SPM, auditor, kernels, modeled cores).
void count_run(core::Node& node, Rep& rep);

}  // namespace perfbench
