#include "arch/exec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpcsec::arch {

Executor::Executor(sim::Engine& engine, const PerfModel& perf, CoreId core)
    : engine_(&engine),
      perf_(&perf),
      core_(core),
      deadline_(engine.add_deadline([this] { on_deadline(); })) {}

void Executor::charge(sim::Cycles overhead, obs::ProfPath path) {
    if (state_ == State::kRunning) {
        throw std::logic_error("Executor::charge: preempt the runnable first");
    }
    const sim::SimTime start = std::max(busy_until_, engine_->now());
    busy_until_ = start + overhead;
    usage_.overhead += overhead;
    if (profiler_ != nullptr) [[unlikely]] {
        profiler_->charge(core_, path, overhead);
    }
    if (recorder_ != nullptr && overhead > 0) {
        recorder_->span(start, busy_until_, obs::EventType::kOverhead, core_,
                        static_cast<std::int64_t>(path));
    }
    // Push the pending start out past the new charge.
    if (state_ == State::kPendingBegin) schedule_start();
}

void Executor::begin(Runnable* r) {
    if (state_ == State::kRunning) {
        // sca-suppress(no-throw-guest-path): Spm::on_vcpu_run returns kBusy
        // before enter_vcpu when the core is running; reaching this on a
        // busy core is a scheduler invariant break worth fail-stopping.
        throw std::logic_error("Executor::begin: core already running");
    }
    if (state_ == State::kPendingBegin) {
        engine_->disarm(deadline_);
        state_ = State::kIdle;
    }
    current_ = r;
    if (r == nullptr) return;
    if (busy_until_ <= engine_->now()) {
        start_chunk();
    } else {
        state_ = State::kPendingBegin;
        schedule_start();
    }
}

void Executor::schedule_start() {
    engine_->arm(deadline_, std::max(busy_until_, engine_->now()), sim::kPrioKernel);
}

// One deadline serves both events, which are never pending together: the
// start while a begin waits out charged time, the completion while running.
void Executor::on_deadline() {
    if (state_ == State::kPendingBegin) {
        start_chunk();
    } else {
        finish_chunk();
    }
}

void Executor::start_chunk() {
    Runnable* r = current_;
    state_ = State::kRunning;
    chunk_start_ = engine_->now();
    chunk_transient_ = pending_transient_;
    pending_transient_ = 0;
    rate_ = perf_->unit_cost(r->profile(), r->mode());
    if (rate_ <= 0.0) rate_ = 1.0;

    const double remaining = r->remaining_units();
    if (!std::isfinite(remaining) || remaining > 1e15) {
        return;  // run-forever loop: no completion; only preemption stops it
    }
    const double cycles = remaining * rate_ + static_cast<double>(chunk_transient_);
    const auto delay = static_cast<sim::Cycles>(std::ceil(cycles));
    engine_->arm(deadline_, engine_->now() + delay, sim::kPrioCompletion);
}

Runnable* Executor::preempt() {
    switch (state_) {
        case State::kIdle:
            return nullptr;
        case State::kPendingBegin: {
            engine_->disarm(deadline_);
            Runnable* r = current_;
            current_ = nullptr;
            state_ = State::kIdle;
            return r;
        }
        case State::kRunning: {
            engine_->disarm(deadline_);
            const sim::SimTime now = engine_->now();
            Runnable* r = current_;
            const sim::Cycles effective = close_chunk(r, now);
            const double units = static_cast<double>(effective) / rate_;
            if (units > 0.0) r->advance(units, now);
            if (now > chunk_start_) r->on_interval(chunk_start_, now);
            current_ = nullptr;
            state_ = State::kIdle;
            busy_until_ = std::max(busy_until_, now);
            return r;
        }
    }
    return nullptr;
}

// Ends the running chunk at `now` for the accounting and the observers:
// splits its cycles into transient and work, attributes stage-2 walks,
// records one kWorkChunk span and the chunk duration. Returns the work
// cycles. Unconsumed transient carries over: the TLB is still cold.
sim::Cycles Executor::close_chunk(Runnable* r, sim::SimTime now) {
    const sim::Cycles elapsed = now - chunk_start_;
    const sim::Cycles transient_used = std::min(elapsed, chunk_transient_);
    const sim::Cycles effective = elapsed - transient_used;
    usage_.transient += transient_used;
    usage_.work += effective;
    pending_transient_ += chunk_transient_ - transient_used;
    chunk_transient_ = 0;
    if (profiler_ != nullptr) [[unlikely]] {
        profile_walk(r, transient_used, effective);
    }
    if (now > chunk_start_) {
        if (recorder_ != nullptr) {
            recorder_->span(chunk_start_, now, obs::EventType::kWorkChunk, core_,
                            static_cast<std::int64_t>(transient_used));
        }
        if (metrics_ != nullptr) {
            metrics_->observe(chunk_hist_, engine_->clock().to_micros(elapsed));
        }
    }
    return effective;
}

// Stage-2 walk attribution: the TLB-refill transient the chunk consumed
// plus the nested-walk share of its steady-state cost (the walk term of
// PerfModel::unit_cost). Native stage-1 walks are not attributed — the
// profiler's tree mirrors the paper's virtualization-overhead breakdown.
void Executor::profile_walk(Runnable* r, sim::Cycles transient_used,
                            sim::Cycles effective) {
    if (r == nullptr || r->mode() != TranslationMode::kTwoStage) return;
    sim::Cycles walk = transient_used;
    const WorkProfile& p = r->profile();
    const double walk_per_unit =
        p.mem_refs_per_unit * p.tlb_miss_rate *
        static_cast<double>(perf_->walk_penalty(TranslationMode::kTwoStage));
    if (rate_ > 0.0 && walk_per_unit > 0.0) {
        walk += static_cast<sim::Cycles>(static_cast<double>(effective) *
                                         (walk_per_unit / rate_));
    }
    if (walk > 0) profiler_->charge(core_, obs::ProfPath::kStage2Walk, walk);
}

void Executor::reprice() {
    if (state_ != State::kRunning) return;
    Runnable* r = preempt();
    begin(r);
}

void Executor::finish_chunk() {
    const sim::SimTime now = engine_->now();
    Runnable* r = current_;
    close_chunk(r, now);
    current_ = nullptr;
    state_ = State::kIdle;
    busy_until_ = std::max(busy_until_, now);

    r->advance(r->remaining_units(), now);
    if (now > chunk_start_) r->on_interval(chunk_start_, now);
    if (on_complete_) on_complete_(r);
}

}  // namespace hpcsec::arch
