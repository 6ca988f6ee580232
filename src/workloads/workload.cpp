#include "workloads/workload.h"

#include <stdexcept>

namespace hpcsec::wl {

WorkThread::WorkThread(ParallelWorkload& owner, int index)
    : owner_(&owner),
      index_(index),
      label_(owner.spec().name + "/t" + std::to_string(index)),
      remaining_(owner.spec().units_per_thread_step) {}

double WorkThread::remaining_units() const {
    switch (phase_) {
        case Phase::kWorking: return remaining_;
        case Phase::kSpinning: return 1e30;  // busy-wait at the barrier
        case Phase::kDone: return 0.0;
    }
    return 0.0;
}

void WorkThread::advance(double units, sim::SimTime now) {
    if (phase_ != Phase::kWorking) return;  // spin cycles are not progress
    if (units >= remaining_) {
        remaining_ = 0.0;
        phase_ = Phase::kSpinning;
        // thread_arrived may synchronously refill us (last arriver) or mark
        // the workload finished.
        owner_->thread_arrived(index_, now);
    } else {
        remaining_ -= units;
    }
}

const arch::WorkProfile& WorkThread::profile() const { return owner_->spec().profile; }

void WorkThread::on_interval(sim::SimTime start, sim::SimTime end) {
    if (interval_hook) interval_hook(start, end);
}

ParallelWorkload::ParallelWorkload(WorkloadSpec spec) : spec_(std::move(spec)) {
    if (spec_.nthreads <= 0 || spec_.supersteps <= 0) {
        throw std::invalid_argument("ParallelWorkload: bad thread/step counts");
    }
    for (int i = 0; i < spec_.nthreads; ++i) {
        threads_.push_back(std::make_unique<WorkThread>(*this, i));
    }
    // One timestamp per barrier: thread_arrived never grows the vector.
    step_times_.reserve(static_cast<std::size_t>(spec_.supersteps));
}

void ParallelWorkload::set_mode(arch::TranslationMode m) {
    for (auto& t : threads_) t->set_mode(m);
}

void ParallelWorkload::reset() {
    step_ = 0;
    arrived_ = 0;
    finished_ = false;
    finish_time_ = 0;
    step_times_.clear();
    for (auto& t : threads_) t->refill(spec_.units_per_thread_step);
}

void ParallelWorkload::mark_all_done() {
    for (auto& t : threads_) t->mark_done();
}

void ParallelWorkload::thread_arrived(int /*index*/, sim::SimTime now) {
    ++arrived_;
    if (arrived_ < spec_.nthreads) return;
    // Barrier complete.
    arrived_ = 0;
    ++step_;
    step_times_.push_back(now);
    if (step_ < spec_.supersteps) {
        for (auto& t : threads_) t->refill(spec_.units_per_thread_step);
        if (on_release) on_release();
    } else {
        finished_ = true;
        finish_time_ = now;
        mark_all_done();
        if (on_finished) on_finished(now);
    }
}

WorkloadSpec spinner_spec(int nthreads) {
    WorkloadSpec s;
    s.name = "spinner";
    s.metric = "iterations";
    s.nthreads = nthreads;
    s.supersteps = 1;
    s.units_per_thread_step = 1e30;  // effectively infinite
    s.profile.cycles_per_unit = 1.0;
    s.profile.mem_refs_per_unit = 0.0;
    s.profile.tlb_miss_rate = 0.0;
    s.profile.working_set_pages = 4.0;  // tight loop
    return s;
}

}  // namespace hpcsec::wl
