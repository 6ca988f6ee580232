#include "bench.h"

namespace perfbench {

const char* layer_name(Layer layer) {
    switch (layer) {
        case kBench: return "bench";
        case kBoot: return "boot";
        case kRun: return "run";
        case kTeardown: return "teardown";
        case kMemops: return "memops";
        case kLifecycle: return "lifecycle";
        case kHfGate: return "hf_gate";
        case kHfHandler: return "hf_handler";
        case kLayerCount: break;
    }
    return "?";
}

double Ledger::leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double d = seconds(f.start, Clock::now());
    self_[f.layer] += d - f.child_s;
    if (!stack_.empty()) stack_.back().child_s += d;
    return d;
}

void Rep::fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
}

// --- hypercall timing ----------------------------------------------------------

std::optional<hafnium::HfResult> HypercallTimer::Hook::before(
    const hafnium::HypercallSite&) {
    timer_->enter(this == &timer_->outer_);
    return std::nullopt;
}

void HypercallTimer::Hook::after(const hafnium::HypercallSite&,
                                 const hafnium::HfResult&) {
    timer_->leave(this == &timer_->outer_);
}

HypercallTimer::HypercallTimer(hafnium::Spm& spm, Ledger* ledger,
                               std::uint64_t sample_every)
    : spm_(&spm),
      ledger_(ledger),
      sample_every_(sample_every),
      outer_(*this, hafnium::HypercallInterceptor::Stage::kTelemetry) {
    spm_->attach_interceptor(&outer_);
    if (ledger_ != nullptr) {
        inner_.emplace(*this, hafnium::HypercallInterceptor::Stage::kReplay);
        spm_->attach_interceptor(&*inner_);
    }
}

HypercallTimer::~HypercallTimer() {
    spm_->detach_interceptor(&outer_);
    if (inner_) spm_->detach_interceptor(&*inner_);
}

void HypercallTimer::enter(bool outer) {
    if (outer) {
        const bool sampled = calls_++ % sample_every_ == 0;
        open_.push_back({sampled, {}, 0.0});
        if (ledger_ != nullptr) {
            ledger_->enter(kHfGate);
        } else if (sampled) {
            open_.back().start = Clock::now();
        }
    } else if (ledger_ != nullptr) {
        ledger_->enter(kHfHandler);
    }
}

void HypercallTimer::leave(bool outer) {
    Call& call = open_.back();
    if (!outer) {
        call.handler_s = ledger_->leave();  // the inner hook exists only traced
        return;
    }
    double d = 0.0;
    if (ledger_ != nullptr) {
        d = ledger_->leave();
    } else if (call.sampled) {
        d = seconds(call.start, Clock::now());
    }
    if (call.sampled) {
        total_us.push_back(d * 1e6);
        if (ledger_ != nullptr) {
            handler_us.push_back(call.handler_s * 1e6);
            audit_us.push_back((d - call.handler_s) * 1e6);
        }
    }
    open_.pop_back();
}

// --- dispatch attribution --------------------------------------------------------

namespace {
int priority_slot(int priority) {
    for (std::size_t i = 0; i + 1 < kPriorities.size(); ++i) {
        if (priority <= kPriorities[i]) return static_cast<int>(i);
    }
    return static_cast<int>(kPriorities.size() - 1);
}
}  // namespace

DispatchClock::DispatchClock(sim::Engine& engine) : engine_(&engine) {
    engine_->set_dispatch_probe(this);
}

DispatchClock::~DispatchClock() { engine_->set_dispatch_probe(nullptr); }

void DispatchClock::on_dispatch(sim::SimTime, int priority) {
    const Clock::time_point now = Clock::now();
    if (prev_slot_ >= 0) {
        ns_[static_cast<std::size_t>(prev_slot_)] += seconds(prev_, now) * 1e9;
    }
    prev_slot_ = priority_slot(priority);
    n_[static_cast<std::size_t>(prev_slot_)] += 1.0;
    prev_ = now;
}

void DispatchClock::close(Rep& rep) {
    if (prev_slot_ >= 0) {
        ns_[static_cast<std::size_t>(prev_slot_)] += seconds(prev_, Clock::now()) * 1e9;
        prev_slot_ = -1;
    }
    for (std::size_t i = 0; i < kPriorities.size(); ++i) {
        rep.dispatch_ns[i] += ns_[i];
        rep.dispatches[i] += n_[i];
    }
    ns_ = {};
    n_ = {};
}

// --- layer counters ----------------------------------------------------------------

void count_boot(core::Node& node, Rep& rep) {
    rep.counts["nodes"] += 1.0;
    rep.counts["mem.frames_per_boot"] +=
        static_cast<double>(node.platform().mem().allocated_frames());
    rep.counts["attest.log_entries"] +=
        static_cast<double>(node.attestation().log().size());
    if (hafnium::Spm* spm = node.spm()) {
        for (int id = 1; id <= spm->vm_count(); ++id) {
            rep.counts["stage2.mappings"] += static_cast<double>(
                spm->vm(static_cast<arch::VmId>(id)).stage2().mapping_count());
        }
    }
}

void count_run(core::Node& node, Rep& rep) {
    sim::Engine& engine = node.platform().engine();
    rep.counts["engine.events"] += static_cast<double>(engine.events_executed());
    rep.counts["engine.batched_pops"] +=
        static_cast<double>(engine.timer_batched_pops());
    for (const auto& pc : engine.executed_by_priority()) {
        rep.counts["engine.events.p" +
                   std::to_string(kPriorities[static_cast<std::size_t>(
                       priority_slot(pc.priority))])] +=
            static_cast<double>(pc.executed);
    }
    if (hafnium::Spm* spm = node.spm()) {
        const auto& s = spm->stats();
        rep.counts["hf.hypercalls"] += static_cast<double>(s.hypercalls);
        rep.counts["hf.world_switches"] += static_cast<double>(s.world_switches);
        rep.counts["hf.vm_exits"] += static_cast<double>(s.vm_exits);
        rep.counts["hf.virq_injections"] += static_cast<double>(s.virq_injections);
    }
    if (check::Auditor* auditor = node.auditor()) {
        rep.counts["check.audits"] += static_cast<double>(auditor->audits());
    }
    if (kitten::KittenKernel* k = node.kitten()) {
        rep.counts["kitten.ticks"] += static_cast<double>(k->stats().ticks);
    }
    if (linux_fwk::LinuxKernel* l = node.linux_kernel()) {
        rep.counts["linux.ticks"] += static_cast<double>(l->stats().ticks);
        rep.counts["linux.softirqs"] += static_cast<double>(l->stats().softirqs);
        rep.counts["linux.kworker_wakes"] +=
            static_cast<double>(l->stats().kworker_wakes);
    }
    const arch::CoreUsage u = node.platform().total_usage();
    const sim::ClockSpec& clock = engine.clock();
    rep.counts["cores.work_us"] += clock.to_micros(u.work);
    rep.counts["cores.overhead_us"] += clock.to_micros(u.overhead);
    rep.counts["cores.transient_us"] += clock.to_micros(u.transient);
}

}  // namespace perfbench
