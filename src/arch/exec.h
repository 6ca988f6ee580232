// Core execution model: Runnable work and the per-core Executor.
//
// The Executor is the single consumer of a core's cycles. Kernels and the
// hypervisor drive it with two verbs:
//   charge(c, p) — the core spends c cycles on kernel/hypervisor path p
//                  (trap, world switch, tick handler, ...);
//   begin(r)     — workload r starts running once all charged time has
//                  elapsed, and keeps running until preempt() or completion.
// Both feed the core's accounting and its observers from one place: a
// charge adds to CoreUsage::overhead, to the profiler under p, and to the
// recorder as one kOverhead span; a chunk close splits its cycles into
// work and transient and records one kWorkChunk span.
// Work progression is continuous-rate: a runnable's remaining units drain
// at a rate priced by the PerfModel for its translation mode, with a
// one-off TLB-refill transient after preemptions/world switches.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "arch/perfmodel.h"
#include "arch/types.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "sim/engine.h"

namespace hpcsec::arch {

/// Something that consumes CPU time on a core.
class Runnable {
public:
    virtual ~Runnable() = default;

    [[nodiscard]] virtual std::string_view label() const = 0;

    /// Abstract work units left; may be infinity for run-forever loops.
    [[nodiscard]] virtual double remaining_units() const = 0;

    /// Consume `units` of progress. `now` is current simulated time.
    virtual void advance(double units, sim::SimTime now) = 0;

    /// Statistical profile used to price this runnable's work.
    [[nodiscard]] virtual const WorkProfile& profile() const = 0;

    /// Translation regime the work executes under.
    [[nodiscard]] virtual TranslationMode mode() const = 0;

    /// Called for every on-CPU interval [start, end) this runnable got.
    /// Selfish-detour uses this to find gaps in its own execution.
    virtual void on_interval(sim::SimTime start, sim::SimTime end) {
        (void)start;
        (void)end;
    }
};

/// Per-core cycle accounting buckets.
struct CoreUsage {
    sim::Cycles work = 0;       ///< productive workload cycles
    sim::Cycles transient = 0;  ///< TLB re-warm transients
    sim::Cycles overhead = 0;   ///< kernel/hypervisor path costs
};

class Executor {
public:
    Executor(sim::Engine& engine, const PerfModel& perf, CoreId core);

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// The core spends `overhead` cycles on kernel/hypervisor path `path`
    /// before anything else can run. Illegal while a runnable is running
    /// (preempt first). Charges stack: consecutive charges serialize.
    void charge(sim::Cycles overhead, obs::ProfPath path);

    /// Start running `r` once charged time has elapsed. Illegal while
    /// running. Replaces any not-yet-started runnable.
    void begin(Runnable* r);

    /// Stop the current (or pending) runnable, charging partial progress.
    /// Returns what was running/about to run, or nullptr.
    Runnable* preempt();

    /// Re-price the current chunk after the runnable's remaining work
    /// changed externally (e.g. a busy-wait barrier released). Zero cost:
    /// progress is charged and the chunk restarts at the new rate/length.
    void reprice();

    /// Add a one-off transient (e.g. TLB refill after a world switch) that
    /// is consumed at the start of the next chunk.
    void add_transient(sim::Cycles extra) { pending_transient_ += extra; }

    /// Transient priced from a profile for a translation mode.
    void add_refill_transient(const WorkProfile& p, TranslationMode m) {
        pending_transient_ += perf_->refill_transient(p, m);
    }

    [[nodiscard]] bool running() const { return state_ == State::kRunning; }
    [[nodiscard]] bool occupied() const { return state_ != State::kIdle; }
    [[nodiscard]] Runnable* current() const { return current_; }
    [[nodiscard]] CoreId core() const { return core_; }

    /// Invoked (from event context) when the current runnable's units reach
    /// zero. The runnable has been detached; the core is idle.
    void set_on_complete(std::function<void(Runnable*)> fn) {
        on_complete_ = std::move(fn);
    }

    [[nodiscard]] const CoreUsage& usage() const { return usage_; }

    /// Attach the structured span recorder (purely observational; one
    /// branch per charge and chunk boundary when the workload category is
    /// off).
    void set_recorder(obs::SpanRecorder* recorder) { recorder_ = recorder; }

    /// Record on-CPU chunk durations (µs) into a registry histogram.
    void set_chunk_metrics(obs::MetricsRegistry* metrics,
                           obs::MetricsRegistry::Handle chunk_hist) {
        metrics_ = metrics;
        chunk_hist_ = chunk_hist;
    }

    /// Attach the cycle profiler (purely observational). Every charge
    /// attributes to its path; stage-2 walk cycles — the refill transient
    /// plus the nested-walk share of each chunk's steady-state cost —
    /// attribute to ProfPath::kStage2Walk at chunk boundaries. Only attach
    /// an enabled profiler: detached (the default) the attribution costs
    /// one predicted branch per charge and boundary.
    void set_profiler(obs::CycleProfiler* profiler) { profiler_ = profiler; }

private:
    enum class State { kIdle, kPendingBegin, kRunning };

    void schedule_start();
    void on_deadline();  // the engine deadline's body
    void start_chunk();
    void finish_chunk();
    sim::Cycles close_chunk(Runnable* r, sim::SimTime now);

    sim::Engine* engine_;
    const PerfModel* perf_;
    CoreId core_;

    State state_ = State::kIdle;
    Runnable* current_ = nullptr;
    sim::DeadlineId deadline_;         // pending start or chunk completion
    sim::SimTime busy_until_ = 0;      // end of charged kernel time
    sim::SimTime chunk_start_ = 0;
    sim::Cycles chunk_transient_ = 0;  // transient charged to current chunk
    double rate_ = 1.0;                // cycles per unit for current chunk
    sim::Cycles pending_transient_ = 0;

    void profile_walk(Runnable* r, sim::Cycles transient_used,
                      sim::Cycles effective);

    std::function<void(Runnable*)> on_complete_;
    CoreUsage usage_;
    obs::SpanRecorder* recorder_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
    obs::MetricsRegistry::Handle chunk_hist_ = 0;
    obs::CycleProfiler* profiler_ = nullptr;
};

}  // namespace hpcsec::arch
