#include "kitten/kitten.h"

#include <algorithm>
#include <stdexcept>

namespace hpcsec::kitten {

namespace {
/// IPI id (ARM SGI / RISC-V software interrupt) used as the
/// rescheduling kick between Kitten cores.
constexpr int kSgiResched = 1;
}  // namespace

KittenKernel::KittenKernel(arch::Platform& platform, KittenConfig config)
    : platform_(&platform), config_(config), rng_(platform.rng().split()) {
    runq_.resize(static_cast<std::size_t>(platform.ncores()));
    current_.assign(static_cast<std::size_t>(platform.ncores()), nullptr);
}

KittenKernel::KittenKernel(arch::Platform& platform, hafnium::Spm& spm,
                           KittenConfig config)
    : KittenKernel(platform, config) {
    spm_ = &spm;
    spm.attach_primary(this);
}

void KittenKernel::boot() {
    if (booted_) throw std::logic_error("KittenKernel::boot: already booted");
    if (is_primary_vm() && !spm_->booted()) {
        throw std::logic_error("KittenKernel::boot: SPM must boot first");
    }
    for (int c = 0; c < platform_->ncores(); ++c) {
        arch::Core& core = platform_->core(c);
        if (!is_primary_vm()) {
            // Native: take over vectors, power the core via PSCI, own the
            // executor completion hook.
            core.set_irq_handler([this, c](int irq) { native_irq(c, irq); });
            core.exec().set_on_complete(
                [this, c](arch::Runnable* r) { on_task_complete(c, r); });
            const arch::El kernel_level = platform_->isa_ops().guest_kernel_level;
            platform_->monitor().cpu_on(
                c, [kernel_level](arch::Core& k) { k.set_el(kernel_level); });
            core.set_irq_masked(false);
            platform_->irqc().enable_irq(platform_->isa_ops().irq.phys_timer);
            for (int s = 0; s < 16; ++s) platform_->irqc().enable_irq(s);
        }
        if (config_.tick_enabled) {
            // First tick with a random per-core phase (cores come online at
            // slightly different times); steady-state period thereafter.
            const auto period =
                platform_->engine().clock().period_of_hz(config_.tick_hz);
            const auto phase = static_cast<sim::Cycles>(
                rng_.next_double() * static_cast<double>(period));
            platform_->core(c).timer().set_deadline(
                arch::TimerChannel::kPhys, platform_->engine().now() + phase + 1);
        }
    }
    booted_ = true;
    for (int c = 0; c < platform_->ncores(); ++c) dispatch(c);
}

void KittenKernel::arm_tick(arch::CoreId core) {
    const auto period = platform_->engine().clock().period_of_hz(config_.tick_hz);
    platform_->core(core).timer().set_deadline(arch::TimerChannel::kPhys,
                                               platform_->engine().now() + period);
}

KThread& KittenKernel::add_app_thread(arch::CoreId core, arch::Runnable* ctx,
                                      std::string name) {
    auto t = std::make_unique<KThread>();
    t->name = std::move(name);
    t->kind = KThread::Kind::kApp;
    t->core = core;
    t->ctx = ctx;
    threads_.push_back(std::move(t));
    wake(*threads_.back());
    return *threads_.back();
}

KThread& KittenKernel::add_control_task(arch::CoreId core, arch::Runnable* ctx,
                                        std::string name) {
    auto t = std::make_unique<KThread>();
    t->name = std::move(name);
    t->kind = KThread::Kind::kControl;
    t->core = core;
    t->ctx = ctx;
    t->state = KThread::State::kBlocked;  // waits for messages
    threads_.push_back(std::move(t));
    return *threads_.back();
}

void KittenKernel::launch_vm(arch::VmId vm_id) {
    if (!is_primary_vm()) {
        throw std::logic_error("launch_vm: only the primary-VM personality hosts VMs");
    }
    hafnium::Vm& vm = spm_->vm(vm_id);
    for (int v = 0; v < vm.vcpu_count(); ++v) {
        hafnium::Vcpu& vcpu = vm.vcpu(v);
        if (proxy_for(vcpu) != nullptr) continue;  // already launched
        auto t = std::make_unique<KThread>();
        t->name = vm.name() + "-vcpu" + std::to_string(v);
        t->kind = KThread::Kind::kVcpuProxy;
        t->core = vcpu.assigned_core;
        t->vcpu = &vcpu;
        threads_.push_back(std::move(t));
        KThread& thr = *threads_.back();
        if (vcpu.state() == hafnium::VcpuState::kReady) {
            thr.state = KThread::State::kReady;
            enqueue(thr);
            if (current_[static_cast<std::size_t>(thr.core)] == nullptr && booted_) {
                dispatch(thr.core);
            }
        } else {
            thr.state = KThread::State::kBlocked;
        }
    }
}

void KittenKernel::stop_vm(arch::VmId vm_id) {
    for (auto& t : threads_) {
        if (t->kind == KThread::Kind::kVcpuProxy && t->vcpu != nullptr &&
            t->vcpu->vm().id() == vm_id && t->state != KThread::State::kExited) {
            exit_thread(*t);
        }
    }
}

bool KittenKernel::migrate_vcpu(arch::VmId vm_id, int vcpu, arch::CoreId new_core) {
    if (new_core < 0 || new_core >= platform_->ncores()) return false;
    for (auto& t : threads_) {
        if (t->kind == KThread::Kind::kVcpuProxy && t->vcpu != nullptr &&
            t->vcpu->vm().id() == vm_id && t->vcpu->index() == vcpu &&
            t->state != KThread::State::kExited) {
            if (t->state == KThread::State::kRunning) return false;  // stop it first
            auto& q = runq_[static_cast<std::size_t>(t->core)];
            for (auto it = q.begin(); it != q.end(); ++it) {
                if (*it == t.get()) {
                    q.erase(it);
                    break;
                }
            }
            t->core = new_core;
            t->vcpu->assigned_core = new_core;
            if (t->state == KThread::State::kReady) {
                enqueue(*t);
                platform_->irqc().send_ipi(new_core, kSgiResched);
                ++stats_.resched_ipis;
            }
            return true;
        }
    }
    return false;
}

void KittenKernel::enqueue(KThread& thread, bool front) {
    auto& q = runq_[static_cast<std::size_t>(thread.core)];
    // sca-suppress(hot-path-alloc): run-queue depth is bounded by the task
    // count, and the vector keeps its capacity once warmed.
    q.insert(front ? q.begin() : q.end(), &thread);
}

void KittenKernel::wake(KThread& thread) {
    if (thread.state == KThread::State::kReady ||
        thread.state == KThread::State::kRunning ||
        thread.state == KThread::State::kExited) {
        return;
    }
    thread.state = KThread::State::kReady;
    enqueue(thread);
    if (!booted_) return;
    if (current_[static_cast<std::size_t>(thread.core)] == nullptr) {
        // Idle core: kick it with a rescheduling IPI (Hafnium has no
        // cross-core hypercalls, so the primary does its own IPIs).
        platform_->irqc().send_ipi(thread.core, kSgiResched);
        ++stats_.resched_ipis;
    }
}

void KittenKernel::block(KThread& thread) {
    if (thread.state == KThread::State::kReady) {
        auto& q = runq_[static_cast<std::size_t>(thread.core)];
        for (auto it = q.begin(); it != q.end(); ++it) {
            if (*it == &thread) {
                q.erase(it);
                break;
            }
        }
    }
    if (thread.state != KThread::State::kExited) {
        thread.state = KThread::State::kBlocked;
    }
}

void KittenKernel::exit_thread(KThread& thread) {
    block(thread);
    thread.state = KThread::State::kExited;
    KThread*& cur = current_[static_cast<std::size_t>(thread.core)];
    if (cur == &thread) cur = nullptr;
}

KThread* KittenKernel::find_thread(const std::string& name) {
    for (auto& t : threads_) {
        if (t->name == name) return t.get();
    }
    return nullptr;
}

KThread* KittenKernel::proxy_for(const hafnium::Vcpu& vcpu) {
    for (auto& t : threads_) {
        if (t->kind == KThread::Kind::kVcpuProxy && t->vcpu == &vcpu &&
            t->state != KThread::State::kExited) {
            return t.get();
        }
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void KittenKernel::dispatch(arch::CoreId core) {
    if (!booted_) return;
    if (current_[static_cast<std::size_t>(core)] != nullptr) return;
    auto& q = runq_[static_cast<std::size_t>(core)];
    const arch::PerfModel& perf = platform_->perf();
    arch::Executor& ex = platform_->core(core).exec();

    while (!q.empty()) {
        KThread* t = q.front();
        q.erase(q.begin());
        if (t->state != KThread::State::kReady) continue;

        if (t->kind == KThread::Kind::kVcpuProxy) {
            t->state = KThread::State::kRunning;
            current_[static_cast<std::size_t>(core)] = t;
            ++stats_.dispatches;
            platform_->recorder().instant(platform_->engine().now(),
                                          obs::EventType::kContextSwitch, core,
                                          static_cast<std::int64_t>(t->kind));
            ex.charge(perf.sched_pick_kitten, obs::ProfPath::kSchedule);
            const hafnium::HfResult r = hf::vcpu_run(
                *spm_, core, self_id(), t->vcpu->vm().id(), t->vcpu->index());
            if (!r.ok()) {
                // VCPU not runnable after all: block the proxy and retry.
                current_[static_cast<std::size_t>(core)] = nullptr;
                t->state = KThread::State::kBlocked;
                continue;
            }
            return;
        }

        // App / control / worker context runs directly.
        t->state = KThread::State::kRunning;
        current_[static_cast<std::size_t>(core)] = t;
        ++stats_.dispatches;
        platform_->recorder().instant(platform_->engine().now(),
                                      obs::EventType::kContextSwitch, core,
                                      static_cast<std::int64_t>(t->kind));
        ex.charge(perf.sched_pick_kitten, obs::ProfPath::kSchedule);
        ex.begin(t->ctx);
        return;
    }
    // Nothing to run: core idles (WFI).
}

// ---------------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------------

void KittenKernel::native_irq(arch::CoreId core, int irq) {
    // Native exception vector: preempt whatever runs, then handle.
    const arch::PerfModel& perf = platform_->perf();
    arch::Executor& ex = platform_->core(core).exec();
    ex.preempt();
    KThread*& cur = current_[static_cast<std::size_t>(core)];
    if (cur != nullptr) {
        // The interrupted thread resumes after the handler (front of queue).
        cur->state = KThread::State::kReady;
        enqueue(*cur, /*front=*/true);
        cur = nullptr;
    }
    ex.charge(perf.irq_entry_exit_kernel, obs::ProfPath::kIrqRoute);
    if (irq == platform_->isa_ops().irq.phys_timer) {
        handle_tick(core);
    }
    dispatch(core);
}

void KittenKernel::handle_tick(arch::CoreId core) {
    const arch::PerfModel& perf = platform_->perf();
    arch::Executor& ex = platform_->core(core).exec();
    ++stats_.ticks;
    platform_->recorder().instant(platform_->engine().now(),
                                  obs::EventType::kKernelTick, core);
    const double service =
        std::max(500.0, rng_.normal(static_cast<double>(perf.kitten_tick_service),
                                    static_cast<double>(perf.kitten_tick_jitter)));
    ex.charge(static_cast<sim::Cycles>(service), obs::ProfPath::kTimerTick);
    if (config_.tick_enabled) arm_tick(core);
    // Round-robin quantum expiry: the interrupted thread sits at the front;
    // rotate it behind any other ready thread. With one runnable thread per
    // core (the common LWK setup) this is a no-op.
    auto& q = runq_[static_cast<std::size_t>(core)];
    if (q.size() > 1) std::rotate(q.begin(), q.begin() + 1, q.end());
}

void KittenKernel::on_interrupt(arch::CoreId core, int irq) {
    // Primary-VM personality: the SPM already charged trap + switch costs
    // and preempted the core; we account the kernel-side handling.
    KThread*& cur = current_[static_cast<std::size_t>(core)];
    if (cur != nullptr && cur->kind != KThread::Kind::kVcpuProxy) {
        // One of our own tasks was interrupted; let it resume first.
        cur->state = KThread::State::kReady;
        enqueue(*cur, /*front=*/true);
        cur = nullptr;
    }
    if (irq == platform_->isa_ops().irq.phys_timer) {
        handle_tick(core);
    } else if (irq >= arch::kExternalBase) {
        // Device IRQ: the paper's current approach — the primary forwards it
        // to the super-secondary VM.
        const arch::PerfModel& perf = platform_->perf();
        platform_->core(core).exec().charge(perf.irq_entry_exit_kernel,
                                           obs::ProfPath::kIrqRoute);
        if (hafnium::Vm* ss = spm_->super_secondary()) {
            hf::interrupt_inject(*spm_, core, self_id(), ss->id(), /*vcpu=*/0, irq);
            ++stats_.forwarded_irqs;
        }
    }
    // SGI rescheduling IPIs just fall through to dispatch.
    dispatch(core);
}

void KittenKernel::on_vcpu_exit(arch::CoreId core, hafnium::Vcpu& vcpu,
                                hafnium::ExitReason reason) {
    KThread* proxy = proxy_for(vcpu);
    if (proxy == nullptr) return;
    KThread*& cur = current_[static_cast<std::size_t>(core)];
    if (cur == proxy) cur = nullptr;
    switch (reason) {
        case hafnium::ExitReason::kPreempted:
            proxy->state = KThread::State::kReady;
            enqueue(*proxy, /*front=*/true);
            // on_interrupt() follows and will dispatch.
            break;
        case hafnium::ExitReason::kYield:
            proxy->state = KThread::State::kReady;
            enqueue(*proxy);
            dispatch(core);
            break;
        case hafnium::ExitReason::kBlocked:
            proxy->state = KThread::State::kBlocked;
            dispatch(core);
            break;
        case hafnium::ExitReason::kAborted:
            exit_thread(*proxy);
            dispatch(core);
            break;
    }
}

void KittenKernel::on_vcpu_wake(hafnium::Vcpu& vcpu) {
    if (KThread* proxy = proxy_for(vcpu)) wake(*proxy);
}

void KittenKernel::on_task_complete(arch::CoreId core, arch::Runnable* task) {
    KThread*& cur = current_[static_cast<std::size_t>(core)];
    if (cur != nullptr && cur->ctx == task) {
        KThread* t = cur;
        cur = nullptr;
        if (task->remaining_units() > 0) {
            // More work appeared during completion (e.g. barrier release):
            // keep it runnable.
            t->state = KThread::State::kReady;
            enqueue(*t, /*front=*/true);
        } else {
            t->state = KThread::State::kBlocked;
        }
    }
    dispatch(core);
}

void KittenKernel::on_message(arch::VmId from) {
    if (message_hook) message_hook(from);
}

}  // namespace hpcsec::kitten
