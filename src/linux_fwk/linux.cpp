#include "linux_fwk/linux.h"

#include <algorithm>
#include <stdexcept>

namespace hpcsec::linux_fwk {

namespace {
constexpr int kSgiResched = 1;
constexpr int kSgiIrqWork = 2;
}  // namespace

LinuxKernel::LinuxKernel(arch::Platform& platform, hafnium::Spm& spm,
                         LinuxConfig config)
    : platform_(&platform), spm_(&spm), config_(config) {
    const auto n = static_cast<std::size_t>(platform.ncores());
    rq_.assign(n, CfsRunqueue(config_.cfs));
    current_.assign(n, nullptr);
    dispatched_at_.assign(n, 0);
    kworker_.assign(n, nullptr);
    for (std::size_t c = 0; c < n; ++c) noise_rng_.push_back(platform.rng().split());
    spm.attach_primary(this);
}

void LinuxKernel::boot() {
    if (booted_) throw std::logic_error("LinuxKernel::boot: already booted");
    if (!spm_->booted()) throw std::logic_error("LinuxKernel::boot: SPM must boot first");
    for (int c = 0; c < platform_->ncores(); ++c) {
        // Per-core tick phase stagger (Linux offsets per-CPU ticks; cores
        // also come online at different times). Without it the cores pause
        // in lock-step and BSP workloads would see no noise amplification.
        const auto period = platform_->engine().clock().period_of_hz(config_.tick_hz);
        const auto phase = static_cast<sim::Cycles>(
            noise_rng_[static_cast<std::size_t>(c)].next_double() *
            static_cast<double>(period));
        platform_->core(c).timer().set_deadline(arch::TimerChannel::kPhys,
                                                platform_->engine().now() + phase + 1);
        // Per-core kworker (deferred-work kthread).
        auto burst = std::make_unique<BurstWork>("kworker/" + std::to_string(c),
                                                 arch::TranslationMode::kTwoStage);
        auto se = std::make_unique<SchedEntity>();
        se->name = "kworker/" + std::to_string(c) + ":0";
        se->kind = SchedEntity::Kind::kKworker;
        se->core = c;
        se->ctx = burst.get();
        entities_.push_back(std::move(se));
        kworker_[static_cast<std::size_t>(c)] = entities_.back().get();
        bursts_.push_back(std::move(burst));
        if (config_.noise_enabled) schedule_kworker_wake(c);
    }
    booted_ = true;
    for (int c = 0; c < platform_->ncores(); ++c) dispatch(c);
}

void LinuxKernel::arm_tick(arch::CoreId core) {
    const auto period = platform_->engine().clock().period_of_hz(config_.tick_hz);
    platform_->core(core).timer().set_deadline(arch::TimerChannel::kPhys,
                                               platform_->engine().now() + period);
}

void LinuxKernel::schedule_kworker_wake(arch::CoreId core) {
    auto& rng = noise_rng_[static_cast<std::size_t>(core)];
    const double mean_interval_s = 1.0 / config_.kworker_rate_hz;
    const double delay_s = rng.exponential(mean_interval_s);
    const auto delay = platform_->engine().clock().from_seconds(delay_s);
    platform_->engine().after(std::max<sim::Cycles>(delay, 1), [this, core] {
        // Deferred work arrives as irq-work: a self-IPI on the target core.
        platform_->irqc().send_ipi(core, kSgiIrqWork);
    });
}

void LinuxKernel::launch_vm(arch::VmId vm_id) {
    hafnium::Vm& vm = spm_->vm(vm_id);
    for (int v = 0; v < vm.vcpu_count(); ++v) {
        hafnium::Vcpu& vcpu = vm.vcpu(v);
        auto se = std::make_unique<SchedEntity>();
        se->name = vm.name() + "-vcpu" + std::to_string(v);
        se->kind = SchedEntity::Kind::kVcpuProxy;
        se->core = vcpu.assigned_core;
        se->vcpu = &vcpu;
        entities_.push_back(std::move(se));
        SchedEntity& ent = *entities_.back();
        auto& rq = rq_[static_cast<std::size_t>(ent.core)];
        ent.vruntime = rq.min_vruntime();
        if (vcpu.state() == hafnium::VcpuState::kReady) {
            rq.enqueue(ent, /*wakeup=*/false);
            if (booted_ && current_[static_cast<std::size_t>(ent.core)] == nullptr) {
                dispatch(ent.core);
            }
        }
    }
}

void LinuxKernel::stop_vm(arch::VmId vm_id) {
    for (auto& se : entities_) {
        if (se->kind == SchedEntity::Kind::kVcpuProxy && se->vcpu != nullptr &&
            se->vcpu->vm().id() == vm_id && se->state != SchedEntity::State::kExited) {
            if (se->state == SchedEntity::State::kQueued) {
                rq_[static_cast<std::size_t>(se->core)].dequeue(*se);
            }
            se->state = SchedEntity::State::kExited;
            SchedEntity*& cur = current_[static_cast<std::size_t>(se->core)];
            if (cur == se.get()) cur = nullptr;
        }
    }
}

SchedEntity& LinuxKernel::add_task(arch::CoreId core, arch::Runnable* ctx,
                                   std::string name) {
    auto se = std::make_unique<SchedEntity>();
    se->name = std::move(name);
    se->kind = SchedEntity::Kind::kTask;
    se->core = core;
    se->ctx = ctx;
    se->vruntime = rq_[static_cast<std::size_t>(core)].min_vruntime();
    entities_.push_back(std::move(se));
    return *entities_.back();
}

void LinuxKernel::wake_entity(SchedEntity& se) {
    if (se.state != SchedEntity::State::kBlocked) return;
    auto& rq = rq_[static_cast<std::size_t>(se.core)];
    rq.enqueue(se, /*wakeup=*/true);
    if (!booted_) return;
    SchedEntity* cur = current_[static_cast<std::size_t>(se.core)];
    if (cur == nullptr || rq.should_preempt(*cur)) {
        platform_->irqc().send_ipi(se.core, kSgiResched);
    }
}

SchedEntity* LinuxKernel::proxy_for(const hafnium::Vcpu& vcpu) {
    for (auto& se : entities_) {
        if (se->kind == SchedEntity::Kind::kVcpuProxy && se->vcpu == &vcpu &&
            se->state != SchedEntity::State::kExited) {
            return se.get();
        }
    }
    return nullptr;
}

void LinuxKernel::account_current(arch::CoreId core) {
    SchedEntity* cur = current_[static_cast<std::size_t>(core)];
    if (cur == nullptr) return;
    const sim::SimTime now = platform_->engine().now();
    const auto delta =
        static_cast<double>(now - dispatched_at_[static_cast<std::size_t>(core)]);
    rq_[static_cast<std::size_t>(core)].update_curr(*cur, delta);
    dispatched_at_[static_cast<std::size_t>(core)] = now;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void LinuxKernel::dispatch(arch::CoreId core) {
    if (!booted_) return;
    if (current_[static_cast<std::size_t>(core)] != nullptr) return;
    auto& rq = rq_[static_cast<std::size_t>(core)];
    const arch::PerfModel& perf = platform_->perf();
    arch::Executor& ex = platform_->core(core).exec();

    while (SchedEntity* se = rq.pick_next()) {
        ++stats_.dispatches;
        platform_->recorder().instant(platform_->engine().now(),
                                      obs::EventType::kContextSwitch, core,
                                      static_cast<std::int64_t>(se->kind));
        if (se->kind == SchedEntity::Kind::kVcpuProxy) {
            current_[static_cast<std::size_t>(core)] = se;
            dispatched_at_[static_cast<std::size_t>(core)] = platform_->engine().now();
            ex.charge(perf.sched_pick_linux, obs::ProfPath::kSchedule);
            const hafnium::HfResult r =
                hf::vcpu_run(*spm_, core, arch::kPrimaryVmId, se->vcpu->vm().id(),
                             se->vcpu->index());
            if (!r.ok()) {
                current_[static_cast<std::size_t>(core)] = nullptr;
                se->state = SchedEntity::State::kBlocked;
                continue;
            }
            return;
        }
        current_[static_cast<std::size_t>(core)] = se;
        dispatched_at_[static_cast<std::size_t>(core)] = platform_->engine().now();
        ex.charge(perf.sched_pick_linux, obs::ProfPath::kSchedule);
        ex.begin(se->ctx);
        return;
    }
}

// ---------------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------------

void LinuxKernel::handle_tick(arch::CoreId core) {
    const arch::PerfModel& perf = platform_->perf();
    arch::Executor& ex = platform_->core(core).exec();
    auto& rng = noise_rng_[static_cast<std::size_t>(core)];
    ++stats_.ticks;
    platform_->recorder().instant(platform_->engine().now(),
                                  obs::EventType::kKernelTick, core);

    // CFS tick: accounting, runqueue bookkeeping, occasional balancing —
    // heavier and jittery compared to the LWK tick.
    const double service = std::max(
        2000.0, rng.normal(static_cast<double>(perf.linux_tick_service),
                           static_cast<double>(perf.linux_tick_jitter)));
    ex.charge(static_cast<sim::Cycles>(service), obs::ProfPath::kTimerTick);

    // Softirq processing rides on a fraction of ticks.
    if (config_.noise_enabled && rng.next_double() < config_.softirq_prob) {
        const double us = rng.exponential(config_.softirq_us_mean);
        const auto cycles = platform_->engine().clock().from_micros(us);
        ex.charge(cycles, obs::ProfPath::kTimerTick);
        ++stats_.softirqs;
        stats_.noise_cycles += static_cast<double>(cycles);
    }
    arm_tick(core);
}

void LinuxKernel::on_interrupt(arch::CoreId core, int irq) {
    const arch::PerfModel& perf = platform_->perf();
    arch::Executor& ex = platform_->core(core).exec();

    SchedEntity*& cur = current_[static_cast<std::size_t>(core)];
    if (cur != nullptr && cur->kind != SchedEntity::Kind::kVcpuProxy) {
        // Our own task was interrupted: account and requeue it.
        account_current(core);
        rq_[static_cast<std::size_t>(core)].put_prev(*cur);
        cur = nullptr;
    }

    if (irq == platform_->isa_ops().irq.phys_timer) {
        handle_tick(core);
    } else if (irq == kSgiIrqWork) {
        // Deferred work arrival: wake this core's kworker with a fresh burst.
        ex.charge(perf.irq_entry_exit_kernel, obs::ProfPath::kIrqRoute);
        auto& rng = noise_rng_[static_cast<std::size_t>(core)];
        if (config_.noise_enabled) {
            SchedEntity* kw = kworker_[static_cast<std::size_t>(core)];
            auto* burst = static_cast<BurstWork*>(kw->ctx);
            const double us = rng.exponential(config_.kworker_burst_us_mean);
            const auto cycles =
                static_cast<double>(platform_->engine().clock().from_micros(us));
            burst->refill(cycles);
            stats_.noise_cycles += cycles;
            ++stats_.kworker_wakes;
            if (kw->state == SchedEntity::State::kBlocked) {
                rq_[static_cast<std::size_t>(core)].enqueue(*kw, /*wakeup=*/true);
                ++stats_.preemptions_by_noise;
                platform_->recorder().instant(platform_->engine().now(),
                                              obs::EventType::kNoisePreempt, core);
            }
            schedule_kworker_wake(core);
        }
    } else if (irq >= arch::kExternalBase) {
        // Device IRQ: forward to the super-secondary, as the reference
        // driver stack would hand it to the owning VM.
        ex.charge(perf.irq_entry_exit_kernel, obs::ProfPath::kIrqRoute);
        if (hafnium::Vm* ss = spm_->super_secondary()) {
            hf::interrupt_inject(*spm_, core, arch::kPrimaryVmId, ss->id(),
                                 /*vcpu=*/0, irq);
            ++stats_.forwarded_irqs;
        }
    }
    // kSgiResched and anything else: plain reschedule.
    dispatch(core);
}

void LinuxKernel::on_vcpu_exit(arch::CoreId core, hafnium::Vcpu& vcpu,
                               hafnium::ExitReason reason) {
    SchedEntity* proxy = proxy_for(vcpu);
    if (proxy == nullptr) return;
    account_current(core);
    SchedEntity*& cur = current_[static_cast<std::size_t>(core)];
    if (cur == proxy) cur = nullptr;
    switch (reason) {
        case hafnium::ExitReason::kPreempted:
            rq_[static_cast<std::size_t>(core)].put_prev(*proxy);
            // on_interrupt() follows and dispatches.
            break;
        case hafnium::ExitReason::kYield:
            rq_[static_cast<std::size_t>(core)].put_prev(*proxy);
            dispatch(core);
            break;
        case hafnium::ExitReason::kBlocked:
            proxy->state = SchedEntity::State::kBlocked;
            dispatch(core);
            break;
        case hafnium::ExitReason::kAborted:
            proxy->state = SchedEntity::State::kExited;
            dispatch(core);
            break;
    }
}

void LinuxKernel::on_vcpu_wake(hafnium::Vcpu& vcpu) {
    if (SchedEntity* proxy = proxy_for(vcpu)) wake_entity(*proxy);
}

void LinuxKernel::on_task_complete(arch::CoreId core, arch::Runnable* task) {
    SchedEntity*& cur = current_[static_cast<std::size_t>(core)];
    if (cur != nullptr && cur->ctx == task) {
        account_current(core);
        SchedEntity* se = cur;
        cur = nullptr;
        if (task->remaining_units() > 0) {
            rq_[static_cast<std::size_t>(core)].put_prev(*se);
        } else {
            se->state = SchedEntity::State::kBlocked;
        }
    }
    dispatch(core);
}

}  // namespace hpcsec::linux_fwk
