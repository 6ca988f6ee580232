#include "hafnium/spm.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace hpcsec::hafnium {

namespace {
constexpr std::uint32_t kSpmVersion = (1u << 16) | 1u;  // 1.1
}

Spm::Spm(arch::Platform& platform, Manifest manifest, IrqRoutingPolicy policy)
    : platform_(&platform),
      manifest_(std::move(manifest)),
      grants_(sim::ArenaAllocator<ShareGrant>(platform.arena())),
      audit_sinks_(sim::ArenaAllocator<VcpuAuditSink*>(platform.arena())) {
    router_.policy = policy;
    router_.has_super_secondary = manifest_.super_secondary() != nullptr;
    vcpu_on_core_.assign(static_cast<std::size_t>(platform.ncores()), nullptr);
    vcpu_run_hist_ = platform.metrics().histogram("hf.vcpu_run_us");
}

void Spm::boot() {
    if (booted_) throw std::logic_error("Spm::boot: already booted");
    const auto problems = manifest_.problems();
    if (!problems.empty()) {
        std::string msg = "Spm::boot: invalid manifest:";
        for (const auto& p : problems) msg += "\n  " + p;
        throw std::runtime_error(msg);
    }

    // Assign IDs: primary = 1; super-secondary (if any) = 2 (the paper adds
    // "an additional hardcoded VM ID for the super-secondary"); secondaries
    // count up after that. Each entry moves into its Vm, and no manifest
    // outlives boot.
    Manifest manifest = std::move(manifest_);
    for (const VmRole role :
         {VmRole::kPrimary, VmRole::kSuperSecondary, VmRole::kSecondary}) {
        for (VmSpec& spec : manifest.vms) {
            if (spec.role != role) continue;
            // Measured boot: a tampered image is refused before it gets memory.
            const crypto::Digest measurement = spec.image_hash();
            if (spec.expected_hash &&
                !crypto::digest_equal(*spec.expected_hash, measurement)) {
                throw std::runtime_error("Spm::boot: image hash mismatch for " +
                                         spec.name);
            }
            admit(std::move(spec), measurement);
        }
    }

    // MMIO: "Hafnium already maps all the MMIO regions to the primary VM, so
    // this simply needs to be changed to map those regions into the
    // super-secondary instead."
    Vm* io_owner = super_secondary() != nullptr ? super_secondary() : &primary_vm();
    for (const auto& dev : platform_->config().devices) {
        io_owner->stage2().map(dev.base, dev.base, dev.size, arch::kPermRW);
        device_map_[io_owner->id()].push_back(dev.name);
        if (dev.spi >= 0) {
            platform_->irqc().enable_irq(dev.spi);
            platform_->irqc().set_external_target(dev.spi, 0);
        }
    }
    // Explicit per-VM device requests from the manifest are honored for the
    // primary/super-secondary as well (validated by Manifest::problems).
    const arch::IrqLayout& layout = platform_->isa_ops().irq;
    platform_->irqc().enable_irq(layout.phys_timer);
    platform_->irqc().enable_irq(layout.virt_timer);
    for (int s = 0; s < 16; ++s) platform_->irqc().enable_irq(s);  // IPIs

    // Take over the exception vectors and power every core on. On either
    // ISA the hypervisor boots before any OS: cores enter at the hypervisor
    // privilege level (ARM EL2 / RISC-V HS).
    for (int c = 0; c < platform_->ncores(); ++c) {
        arch::Core& core = platform_->core(c);
        core.set_irq_handler([this, c](int irq) { handle_phys_irq(c, irq); });
        core.exec().set_on_complete(
            [this, c](arch::Runnable* r) { on_core_idle(c, r); });
        const arch::IsaOps& ops = platform_->isa_ops();
        platform_->monitor().cpu_on(
            c, [&ops](arch::Core& k) { k.set_el(ops.hyp_level); });
        core.set_el(ops.guest_kernel_level);  // drop to the primary VM's kernel
        set_core_context(c, primary_vm());
        core.set_irq_masked(false);
    }
    booted_ = true;
}

arch::VmId Spm::create_vm(const VmSpec& spec) {
    if (!booted_) throw std::logic_error("Spm::create_vm: boot first");
    if (spec.role != VmRole::kSecondary) {
        throw std::invalid_argument(
            "Spm::create_vm: only secondary partitions can be created at runtime");
    }
    if (spec.name.empty() || find_vm(spec.name) != nullptr) {
        throw std::invalid_argument("Spm::create_vm: bad or duplicate name");
    }
    if (spec.mem_bytes == 0 || (spec.mem_bytes & arch::kPageMask) != 0 ||
        spec.vcpu_count <= 0) {
        throw std::invalid_argument("Spm::create_vm: bad memory/vcpu shape");
    }
    const crypto::Digest measurement = spec.image_hash();
    if (spec.expected_hash && !crypto::digest_equal(*spec.expected_hash, measurement)) {
        throw std::runtime_error("Spm::create_vm: image hash mismatch");
    }

    const arch::VmId id = admit(spec, measurement).id();
    // Under integrity protection every partition's stage-2 table frames are
    // tagged from the moment they exist — restarted VMs included.
    if (critical_armed_) {
        protect_new_region("stage2:" + spec.name, 1);
    }
    return id;
}

Vm& Spm::admit(VmSpec spec, const crypto::Digest& measurement) {
    Vm* vm = platform_->arena().make<Vm>(static_cast<arch::VmId>(vms_.size() + 1),
                                         std::move(spec), platform_->arena(),
                                         platform_->isa_ops().stage2);
    const std::uint64_t nframes = vm->mem_bytes() >> arch::kPageShift;
    vm->mem_base = platform_->mem().alloc_frames(nframes, vm->id(), vm->world());
    // Secondaries get a fully virtualized view (RAM at IPA 0); the primary
    // and super-secondary are identity-mapped so device MMIO (below the
    // DRAM base) fits into their address space.
    vm->ipa_base = vm->role() == VmRole::kSecondary ? 0 : vm->mem_base;
    vm->stage2().map(vm->ipa_base, vm->mem_base, vm->mem_bytes(), arch::kPermRWX,
                     vm->world() == arch::World::kSecure);
    // Default incremental VCPU spread across cores. Every VCPU reports to
    // the one sink list, so an auditor may pre- or post-date the VM.
    for (int v = 0; v < vm->vcpu_count(); ++v) {
        vm->vcpu(v).assigned_core = v % platform_->ncores();
        vm->vcpu(v).set_audit_sinks(&audit_sinks_);
    }
    measurements_.emplace_back(vm->name(), measurement);
    vms_.push_back(vm);
    return *vm;
}

void Spm::destroy_vm(arch::VmId id) {
    Vm& victim = vm(id);
    if (victim.destroyed) return;
    if (victim.role() != VmRole::kSecondary) {
        throw std::invalid_argument("Spm::destroy_vm: only secondaries");
    }
    for (int v = 0; v < victim.vcpu_count(); ++v) {
        if (victim.vcpu(v).state() == VcpuState::kRunning) {
            throw std::logic_error("Spm::destroy_vm: VCPU still running");
        }
    }
    // Revoke every grant the victim takes part in, as owner or borrower.
    for (auto it = grants_.begin(); it != grants_.end();) {
        it = it->owner == id || it->borrower == id ? revoke(it) : std::next(it);
    }
    // Detach guest contexts, drop the stage-2, free the frames.
    for (int v = 0; v < victim.vcpu_count(); ++v) {
        set_guest_context(victim.vcpu(v), nullptr);
        victim.vcpu(v).set_state(VcpuState::kAborted);
    }
    guest_os_.erase(id);
    // Drop the victim's *entire* stage-2, not just the boot window:
    // donated-in windows live outside [ipa_base, ipa_base + mem_bytes) and
    // would otherwise survive as dangling translations onto freed frames.
    // Every access walks the live table, so each one now faults.
    victim.stage2() = arch::PageTable(victim.stage2().format());
    // Free by *current ownership*, not the boot window. FF-A donations
    // move frames both ways after boot: frames donated away belong to
    // another live partition now, and frames donated in would otherwise
    // leak. Grants were revoked above, so no borrower window outlives the
    // free, and free_frames scrubs every word.
    platform_->mem().free_owned_by(id);
    if (critical_armed_) release_critical("stage2:" + victim.name());
    victim.destroyed = true;
}

Vm& Spm::vm(arch::VmId id) {
    if (id == 0 || id > vms_.size()) throw std::out_of_range("Spm::vm: bad id");
    return *vms_[id - 1];
}

Vm* Spm::find_vm(const std::string& name) {
    // Destroyed partitions keep their slot (ids are never reused) but no
    // longer resolve by name, so a restarted VM can claim the same name.
    for (auto& vm : vms_) {
        if (!vm->destroyed && vm->name() == name) return vm;
    }
    return nullptr;
}

GuestOsItf* Spm::find_guest_os(arch::VmId id) {
    auto it = guest_os_.find(id);
    return it == guest_os_.end() ? nullptr : it->second;
}

Vm* Spm::super_secondary() {
    for (auto& vm : vms_) {
        if (vm->role() == VmRole::kSuperSecondary) return vm;
    }
    return nullptr;
}

void Spm::attach_guest(arch::VmId id, GuestOsItf* os) { guest_os_[id] = os; }

void Spm::attach_audit(VcpuAuditSink* sink) {
    if (sink == nullptr ||
        std::find(audit_sinks_.begin(), audit_sinks_.end(), sink) !=
            audit_sinks_.end()) {
        return;
    }
    audit_sinks_.push_back(sink);
}

void Spm::detach_audit(VcpuAuditSink* sink) {
    const auto it = std::find(audit_sinks_.begin(), audit_sinks_.end(), sink);
    if (it != audit_sinks_.end()) audit_sinks_.erase(it);
}

void Spm::set_guest_context(Vcpu& vcpu, arch::Runnable* ctx) {
    if (vcpu.guest_context != nullptr) ctx_to_vcpu_.erase(vcpu.guest_context);
    vcpu.guest_context = ctx;
    if (ctx != nullptr) ctx_to_vcpu_[ctx] = &vcpu;
}

void Spm::make_vcpu_ready(Vcpu& vcpu) {
    if (vcpu.state() == VcpuState::kOff || vcpu.state() == VcpuState::kBlocked) {
        vcpu.set_state(VcpuState::kReady);
    }
}

void Spm::wake_vcpu(Vcpu& vcpu) {
    if (vcpu.state() != VcpuState::kBlocked) return;
    vcpu.set_state(VcpuState::kReady);
    if (primary_os_ != nullptr) primary_os_->on_vcpu_wake(vcpu);
}

void Spm::force_stop_vcpu(Vcpu& vcpu, bool notify_primary) {
    if (vcpu.state() != VcpuState::kRunning || vcpu.running_core < 0) return;
    const arch::CoreId core = vcpu.running_core;
    arch::Core& c = platform_->core(core);
    c.exec().preempt();
    c.timer().cancel(arch::TimerChannel::kVirt);
    vcpu.set_state(VcpuState::kReady);
    vcpu.running_core = -1;
    vcpu_on_core_[static_cast<std::size_t>(core)] = nullptr;
    set_core_context(core, primary_vm());
    if (notify_primary && primary_os_ != nullptr) {
        primary_os_->on_vcpu_exit(core, vcpu, ExitReason::kYield);
    }
}

bool Spm::guest_access(Vcpu& vcpu, arch::IpaAddr ipa, arch::Access access) {
    const bool ok = stage2_access(vcpu.vm(), ipa, access).has_value();
    if (!ok) abort_vcpu(vcpu);
    return ok;
}

void Spm::abort_vcpu(Vcpu& vcpu) {
    ++stats_.guest_aborts;
    if (vcpu.state() == VcpuState::kRunning && vcpu.running_core >= 0) {
        const arch::CoreId core = vcpu.running_core;
        platform_->core(core).exec().preempt();
        exit_vcpu(core, vcpu, ExitReason::kAborted,
                  platform_->perf().trap_to_hyp + platform_->perf().world_switch);
        return;
    }
    vcpu.set_state(VcpuState::kAborted);
    vcpu.running_core = -1;
}

Vcpu* Spm::running_vcpu_on(arch::CoreId core) {
    return vcpu_on_core_[static_cast<std::size_t>(core)];
}

void Spm::set_core_context(arch::CoreId core, const Vm& vm) {
    platform_->profiler().set_context(core, vm.id());
    platform_->core(core).set_world(vm.world());
}

// --------------------------------------------------------------------------
// Interrupt path (EL2 vector)
// --------------------------------------------------------------------------

void Spm::handle_phys_irq(arch::CoreId core, int irq) {
    const arch::PerfModel& perf = platform_->perf();
    arch::Core& c = platform_->core(core);
    arch::Executor& ex = c.exec();
    Vcpu* rv = running_vcpu_on(core);

    const int virt_timer = platform_->isa_ops().irq.virt_timer;
    const bool guest_vtimer = irq == virt_timer && rv != nullptr;
    const IrqDestination dest = router_.route(irq, guest_vtimer);
    platform_->recorder().instant(platform_->engine().now(),
                                  obs::EventType::kIrqDeliver, core, irq,
                                  static_cast<std::int64_t>(dest));

    switch (dest) {
        case IrqDestination::kHypervisorInternal: {
            // The running guest's virtual timer: handled entirely at EL2 +
            // an injection. No world switch to the primary.
            ++stats_.vtimer_fires;
            ex.preempt();
            rv->vtimer_armed = false;
            GuestOsItf* gos = find_guest_os(rv->vm().id());
            // A guest without a personality (detached mid-teardown) just
            // swallows the tick.
            const sim::Cycles service =
                gos != nullptr ? gos->on_virq(*rv, virt_timer) : 0;
            ++stats_.virq_injections;
            platform_->recorder().instant(platform_->engine().now(),
                                          obs::EventType::kVirqInject, core,
                                          virt_timer, rv->vm().id());
            ex.charge(perf.trap_to_hyp + perf.virq_inject + service,
                      obs::ProfPath::kTimerTick);
            ex.begin(rv->guest_context);
            // The handler may have re-armed the vtimer via hypercall.
            if (rv->vtimer_armed) {
                c.timer().set_deadline(arch::TimerChannel::kVirt, rv->vtimer_deadline);
            }
            break;
        }
        case IrqDestination::kSuperSecondaryDirect: {
            // Future-work selective routing: hand the device IRQ straight to
            // the super-secondary, bypassing the primary.
            Vm* ss = super_secondary();
            if (ss == nullptr) {
                // Selective routing configured without a super-secondary:
                // fall back to the primary rather than crashing the node.
                if (primary_os_ != nullptr) primary_os_->on_interrupt(core, irq);
                break;
            }
            Vcpu& target = ss->vcpu(0);
            arch::Runnable* interrupted = ex.preempt();
            ex.charge(perf.trap_to_hyp + perf.virq_inject, obs::ProfPath::kIrqRoute);
            if (running_vcpu_on(core) == &target || interrupted == target.guest_context) {
                // SS is on this very core: deliver inline.
                GuestOsItf* gos = find_guest_os(ss->id());
                const sim::Cycles service =
                    gos != nullptr ? gos->on_virq(target, irq) : 0;
                ex.charge(service, obs::ProfPath::kIrqRoute);
                ++stats_.virq_injections;
                platform_->recorder().instant(platform_->engine().now(),
                                              obs::EventType::kVirqInject, core,
                                              irq, ss->id());
            } else {
                inject_virq(target, irq);
            }
            if (interrupted != nullptr) ex.begin(interrupted);
            ++stats_.forwarded_device_irqs;
            break;
        }
        case IrqDestination::kPrimary: {
            if (rv != nullptr) {
                // Full VM exit: guest out, primary in.
                ex.preempt();
                exit_vcpu(core, *rv, ExitReason::kPreempted,
                          perf.trap_to_hyp + perf.world_switch);
            } else {
                arch::Runnable* interrupted = ex.preempt();
                ex.charge(perf.trap_to_hyp + perf.irq_entry_exit_kernel,
                          obs::ProfPath::kIrqRoute);
                // The primary's own task was interrupted; its scheduler will
                // redispatch it (we leave it detached, matching a real IRQ
                // frame on the kernel stack).
                (void)interrupted;
            }
            if (primary_os_ != nullptr) primary_os_->on_interrupt(core, irq);
            break;
        }
    }
    platform_->irqc().eoi(core, irq);
}

// --------------------------------------------------------------------------
// VCPU entry/exit
// --------------------------------------------------------------------------

void Spm::enter_vcpu(arch::CoreId core, Vcpu& vcpu, sim::Cycles base_cost) {
    const arch::PerfModel& perf = platform_->perf();
    arch::Core& c = platform_->core(core);
    arch::Executor& ex = c.exec();

    vcpu.set_state(VcpuState::kRunning);
    vcpu.running_core = core;
    vcpu.last_enter = platform_->engine().now();
    ++vcpu.runs;
    vcpu_on_core_[static_cast<std::size_t>(core)] = &vcpu;
    set_core_context(core, vcpu.vm());

    const sim::Cycles drain_cost = drain_virqs(vcpu);
    ex.charge(base_cost, obs::ProfPath::kWorldSwitch);
    ex.charge(drain_cost, obs::ProfPath::kVgicRoute);
    ++stats_.world_switches;
    if (vcpu.guest_context == nullptr) {
        // Interrupt-service-only entry: the guest handled its virqs and has
        // no thread to run; it executes WFI and control returns to the
        // primary as a blocked exit.
        exit_vcpu(core, vcpu, ExitReason::kBlocked,
                  perf.hypercall_roundtrip + perf.world_switch);
        return;
    }
    ex.add_refill_transient(vcpu.guest_context->profile(),
                            arch::TranslationMode::kTwoStage);
    ex.begin(vcpu.guest_context);
    if (vcpu.vtimer_armed) {
        c.timer().set_deadline(arch::TimerChannel::kVirt, vcpu.vtimer_deadline);
    }
}

void Spm::exit_vcpu(arch::CoreId core, Vcpu& vcpu, ExitReason reason,
                    sim::Cycles cost) {
    arch::Core& c = platform_->core(core);
    arch::Executor& ex = c.exec();

    const sim::SimTime now = platform_->engine().now();
    auto& rec = platform_->recorder();
    rec.span(vcpu.last_enter, now, obs::EventType::kVmRun, core, vcpu.vm().id(),
             vcpu.index(), static_cast<std::int64_t>(reason));
    rec.instant(now, obs::EventType::kVmExit, core, vcpu.vm().id(),
                vcpu.index(), static_cast<std::int64_t>(reason));
    platform_->metrics().observe(
        vcpu_run_hist_, platform_->engine().clock().to_micros(now - vcpu.last_enter));

    switch (reason) {
        case ExitReason::kPreempted:
            vcpu.set_state(VcpuState::kReady);
            ++vcpu.preemptions;
            ++stats_.exits_preempted;
            break;
        case ExitReason::kYield:
            vcpu.set_state(VcpuState::kReady);
            ++stats_.exits_yield;
            break;
        case ExitReason::kBlocked:
            vcpu.set_state(VcpuState::kBlocked);
            ++stats_.exits_blocked;
            break;
        case ExitReason::kAborted:
            vcpu.set_state(VcpuState::kAborted);
            ++stats_.exits_aborted;
            break;
    }
    vcpu.running_core = -1;
    vcpu_on_core_[static_cast<std::size_t>(core)] = nullptr;
    c.timer().cancel(arch::TimerChannel::kVirt);  // deadline kept in vcpu state
    // Exit cost is the hypervisor working on the exiting guest's behalf:
    // charge before the profiler's context flips back to the primary.
    ex.charge(cost, obs::ProfPath::kWorldSwitch);
    set_core_context(core, primary_vm());
    ++stats_.vm_exits;
    ++stats_.world_switches;
    if (primary_os_ != nullptr) primary_os_->on_vcpu_exit(core, vcpu, reason);
}

sim::Cycles Spm::drain_virqs(Vcpu& vcpu) {
    const arch::PerfModel& perf = platform_->perf();
    GuestOsItf* gos = nullptr;
    const auto it = guest_os_.find(vcpu.vm().id());
    if (it != guest_os_.end()) gos = it->second;
    sim::Cycles cost = 0;
    while (auto next = vcpu.vgic.next_deliverable()) {
        vcpu.vgic.pending.erase(*next);
        ++stats_.virq_injections;
        platform_->recorder().instant(platform_->engine().now(),
                                      obs::EventType::kVirqInject,
                                      vcpu.running_core, *next, vcpu.vm().id());
        cost += perf.virq_inject;
        if (gos != nullptr) cost += gos->on_virq(vcpu, *next);
    }
    return cost;
}

void Spm::inject_virq(Vcpu& vcpu, int virq) {
    // sca-suppress(hot-path-alloc): the vGIC sets are fixed IrqBitsets.
    vcpu.vgic.pending.insert(virq);
    if (vcpu.state() == VcpuState::kBlocked) {
        wake_vcpu(vcpu);
    } else if (vcpu.state() == VcpuState::kReady && vcpu.running_core < 0 &&
               primary_os_ != nullptr) {
        // The primary's proxy thread may have parked after an earlier
        // empty-run; nudge the scheduler so the virq is serviced.
        primary_os_->on_vcpu_wake(vcpu);
    }
    // If the vcpu is running on another core right now, the virq is
    // delivered at its next entry (our model does not interrupt remote
    // cores for injection, matching Hafnium's core-local design).
}

void Spm::on_core_idle(arch::CoreId core, arch::Runnable* finished) {
    const arch::PerfModel& perf = platform_->perf();
    const auto it = ctx_to_vcpu_.find(finished);
    if (it == ctx_to_vcpu_.end()) {
        // A primary-VM task finished.
        if (primary_os_ != nullptr) primary_os_->on_task_complete(core, finished);
        return;
    }
    Vcpu& vcpu = *it->second;
    if (vcpu.running_core != core) return;  // stale completion
    GuestOsItf* gos = find_guest_os(vcpu.vm().id());
    arch::Runnable* next = gos != nullptr ? gos->on_idle(vcpu) : nullptr;
    if (next != nullptr) {
        arch::Executor& ex = platform_->core(core).exec();
        // Continuing the same context (e.g. it transitioned to a busy-wait
        // spin) costs nothing; switching guest threads costs a switch.
        if (next != finished) {
            set_guest_context(vcpu, next);
            ex.charge(perf.thread_switch, obs::ProfPath::kSchedule);
        }
        ex.begin(next);
        return;
    }
    // Guest has nothing to run: VCPU blocks (FFA_MSG_WAIT semantics) and
    // control returns to the primary scheduler.
    exit_vcpu(core, vcpu, ExitReason::kBlocked,
              perf.hypercall_roundtrip + perf.world_switch);
}

// --------------------------------------------------------------------------
// Hypercalls
// --------------------------------------------------------------------------

// The dispatch table: one declarative row per call — privilege mask,
// typed-decode thunk, handler. Adding a call is one row here plus a
// handler; tools/sca fails the build unless every Call enumerator has a
// row.
const std::array<Spm::CallDescriptor, kCallCount>& Spm::call_table() {
    static const std::array<CallDescriptor, kCallCount> kCallTable{{
        {Call::kVersion, kAnyRole,
         &Spm::invoke_thunk<abi::Empty, &Spm::on_version>},
        {Call::kVmGetCount, kAnyRole,
         &Spm::invoke_thunk<abi::Empty, &Spm::on_vm_get_count>},
        {Call::kVcpuGetCount, kAnyRole,
         &Spm::invoke_thunk<abi::VcpuGetCountArgs, &Spm::on_vcpu_get_count>},
        {Call::kVmGetInfo, kAnyRole,
         &Spm::invoke_thunk<abi::VmGetInfoArgs, &Spm::on_vm_get_info>},
        // "These privileges include … the ability to assume control over
        // CPU cores" — primary only; the super-secondary is explicitly
        // denied.
        {Call::kVcpuRun, kRolePrimary,
         &Spm::invoke_thunk<abi::VcpuRunArgs, &Spm::on_vcpu_run>},
        {Call::kVmConfigure, kAnyRole,
         &Spm::invoke_thunk<abi::VmConfigureArgs, &Spm::on_vm_configure>},
        {Call::kMsgSend, kAnyRole,
         &Spm::invoke_thunk<abi::MsgSendArgs, &Spm::on_msg_send>},
        {Call::kMsgWait, kAnyRole,
         &Spm::invoke_thunk<abi::Empty, &Spm::on_msg_wait>},
        {Call::kYield, kAnyRole,
         &Spm::invoke_thunk<abi::Empty, &Spm::on_yield>},
        {Call::kRxRelease, kAnyRole,
         &Spm::invoke_thunk<abi::Empty, &Spm::on_rx_release>},
        {Call::kMemShare, kAnyRole,
         &Spm::invoke_thunk<abi::MemShareArgs, &Spm::on_mem_share>},
        {Call::kMemReclaim, kAnyRole,
         &Spm::invoke_thunk<abi::MemReclaimArgs, &Spm::on_mem_reclaim>},
        {Call::kMemLend, kAnyRole,
         &Spm::invoke_thunk<abi::MemLendArgs, &Spm::on_mem_lend>},
        {Call::kMemDonate, kAnyRole,
         &Spm::invoke_thunk<abi::MemDonateArgs, &Spm::on_mem_donate>},
        {Call::kInterruptEnable, kAnyRole,
         &Spm::invoke_thunk<abi::InterruptEnableArgs, &Spm::on_interrupt_enable>},
        {Call::kInterruptGet, kAnyRole,
         &Spm::invoke_thunk<abi::Empty, &Spm::on_interrupt_get>},
        // Primary (or super-secondary forwarding path) only.
        {Call::kInterruptInject, kRolePrimary | kRoleSuperSecondary,
         &Spm::invoke_thunk<abi::InterruptInjectArgs, &Spm::on_interrupt_inject>},
        {Call::kVtimerSet, kAnyRole,
         &Spm::invoke_thunk<abi::VtimerSetArgs, &Spm::on_vtimer_set>},
        {Call::kVtimerCancel, kAnyRole,
         &Spm::invoke_thunk<abi::VtimerCancelArgs, &Spm::on_vtimer_cancel>},
    }};
    return kCallTable;
}

namespace {

// O(1) number -> row lookup, built once from the table.
std::array<const Spm::CallDescriptor*, kCallNumberSpace> build_call_index() {
    std::array<const Spm::CallDescriptor*, kCallNumberSpace> index{};
    for (const auto& row : Spm::call_table()) {
        index[static_cast<std::size_t>(row.call)] = &row;
    }
    return index;
}

const std::array<const Spm::CallDescriptor*, kCallNumberSpace> kCallIndex =
    build_call_index();

}  // namespace

const Spm::CallDescriptor* Spm::descriptor(Call call) {
    const auto number = static_cast<std::uint32_t>(call);
    return number < kCallNumberSpace ? kCallIndex[number] : nullptr;
}

HfResult Spm::dispatch(arch::CoreId core, arch::VmId caller, Call call,
                       const HfArgs& args) {
    const CallDescriptor* desc = descriptor(call);
    if (desc == nullptr) {
        // Unknown call number: malformed guest input stops at the gate.
        ++stats_.invalid_calls;
        return {HfError::kInvalid, 0};
    }
    if (caller == 0 || caller > vms_.size()) return {HfError::kNotFound, 0};
    const auto role_bit = static_cast<std::uint8_t>(
        1u << static_cast<unsigned>(vms_[caller - 1]->role()));
    if ((desc->privilege & role_bit) == 0) {
        ++stats_.denied_calls;
        return {HfError::kDenied, 0};
    }
    return desc->invoke(*this, core, caller, args);
}

HfResult Spm::hypercall(arch::CoreId core, arch::VmId caller, Call call, HfArgs args) {
    ++stats_.hypercalls;
    if (interceptors_.empty()) [[likely]] {
        return dispatch(core, caller, call, args);
    }
    return hypercall_intercepted(core, caller, call, args);
}

HfResult Spm::hypercall_intercepted(arch::CoreId core, arch::VmId caller,
                                    Call call, const HfArgs& args) {
    const HypercallSite site{core, caller, call, args};
    HfResult result{};
    bool injected = false;
    for (HypercallInterceptor* icpt : interceptors_) {
        if (auto forced = icpt->before(site)) {
            result = *forced;
            injected = true;
            break;
        }
    }
    if (!injected) result = dispatch(core, caller, call, args);
    for (auto it = interceptors_.rbegin(); it != interceptors_.rend(); ++it) {
        (*it)->after(site, result);
    }
    return result;
}

void Spm::attach_interceptor(HypercallInterceptor* interceptor) {
    if (interceptor == nullptr) return;
    if (std::find(interceptors_.begin(), interceptors_.end(), interceptor) !=
        interceptors_.end()) {
        return;
    }
    const auto pos = std::upper_bound(
        interceptors_.begin(), interceptors_.end(), interceptor,
        [](const HypercallInterceptor* a, const HypercallInterceptor* b) {
            return a->stage() < b->stage();
        });
    interceptors_.insert(pos, interceptor);
}

void Spm::detach_interceptor(HypercallInterceptor* interceptor) {
    const auto it =
        std::find(interceptors_.begin(), interceptors_.end(), interceptor);
    if (it != interceptors_.end()) interceptors_.erase(it);
}

// --------------------------------------------------------------------------
// Call handlers (one per table row)
// --------------------------------------------------------------------------

HfResult Spm::on_version(arch::CoreId, arch::VmId, const abi::Empty&) {
    return {HfError::kOk, kSpmVersion};
}

HfResult Spm::on_vm_get_count(arch::CoreId, arch::VmId, const abi::Empty&) {
    return {HfError::kOk, vm_count()};
}

HfResult Spm::on_vcpu_get_count(arch::CoreId, arch::VmId,
                                const abi::VcpuGetCountArgs& a) {
    if (a.vm == 0 || a.vm > vms_.size()) return {HfError::kNotFound, 0};
    return {HfError::kOk, vm(a.vm).vcpu_count()};
}

HfResult Spm::on_vm_get_info(arch::CoreId, arch::VmId, const abi::VmGetInfoArgs& a) {
    if (a.vm == 0 || a.vm > vms_.size()) return {HfError::kNotFound, 0};
    const Vm& target = vm(a.vm);
    return {HfError::kOk,
            abi::encode_vm_info(target.role(), target.world(), target.vcpu_count())};
}

HfResult Spm::on_vm_configure(arch::CoreId, arch::VmId caller,
                              const abi::VmConfigureArgs& a) {
    // Both mailbox pages must be mapped in the caller's stage-2.
    if (vm_translate(caller, a.send_ipa).fault != arch::FaultKind::kNone ||
        vm_translate(caller, a.recv_ipa).fault != arch::FaultKind::kNone) {
        return {HfError::kInvalid, 0};
    }
    Vm& cvm = vm(caller);
    cvm.mailbox.configured = true;
    cvm.mailbox.send_ipa = a.send_ipa;
    cvm.mailbox.recv_ipa = a.recv_ipa;
    return {HfError::kOk, 0};
}

HfResult Spm::on_msg_wait(arch::CoreId, arch::VmId caller, const abi::Empty&) {
    Vm& cvm = vm(caller);
    if (cvm.mailbox.configured && cvm.mailbox.recv_full) {
        return {HfError::kOk, cvm.mailbox.recv_size};
    }
    return {HfError::kRetry, 0};
}

HfResult Spm::on_rx_release(arch::CoreId, arch::VmId caller, const abi::Empty&) {
    Vm& cvm = vm(caller);
    if (!cvm.mailbox.configured) return {HfError::kInvalid, 0};
    cvm.mailbox.recv_full = false;
    cvm.mailbox.recv_size = 0;
    return {HfError::kOk, 0};
}

HfResult Spm::on_yield(arch::CoreId core, arch::VmId caller, const abi::Empty&) {
    Vcpu* rv = running_vcpu_on(core);
    if (rv == nullptr || &rv->vm() != &vm(caller)) return {HfError::kInvalid, 0};
    platform_->core(core).exec().preempt();
    exit_vcpu(core, *rv, ExitReason::kYield,
              platform_->perf().hypercall_roundtrip +
                  platform_->perf().world_switch);
    return {HfError::kOk, 0};
}

HfResult Spm::on_interrupt_enable(arch::CoreId core, arch::VmId caller,
                                  const abi::InterruptEnableArgs& a) {
    Vm& cvm = vm(caller);
    if (a.virq < 0 || a.virq >= arch::IrqBitset::kBits) {
        return {HfError::kInvalid, 0};  // outside the vGIC id space
    }
    Vcpu* rv = running_vcpu_on(core);
    Vcpu* target = rv != nullptr && &rv->vm() == &cvm
                       ? rv
                       : (a.vcpu >= 0 && a.vcpu < cvm.vcpu_count()
                              ? &cvm.vcpu(a.vcpu)
                              : nullptr);
    if (target == nullptr) return {HfError::kInvalid, 0};
    // sca-suppress(hot-path-alloc): the vGIC sets are fixed IrqBitsets.
    target->vgic.enabled.insert(a.virq);
    return {HfError::kOk, 0};
}

HfResult Spm::on_interrupt_get(arch::CoreId core, arch::VmId caller,
                               const abi::Empty&) {
    Vcpu* rv = running_vcpu_on(core);
    if (rv == nullptr || &rv->vm() != &vm(caller)) return {HfError::kInvalid, 0};
    if (const auto next = rv->vgic.next_deliverable()) {
        rv->vgic.pending.erase(*next);
        return {HfError::kOk, *next};
    }
    return {HfError::kOk, -1};
}

HfResult Spm::on_interrupt_inject(arch::CoreId, arch::VmId caller,
                                  const abi::InterruptInjectArgs& a) {
    if (a.vm == 0 || a.vm > vms_.size()) return {HfError::kNotFound, 0};
    Vm& target = vm(a.vm);
    if (a.vcpu < 0 || a.vcpu >= target.vcpu_count()) {
        return {HfError::kInvalid, 0};
    }
    if (a.virq < 0 || a.virq >= arch::IrqBitset::kBits) {
        return {HfError::kInvalid, 0};  // outside the vGIC id space
    }
    inject_virq(target.vcpu(a.vcpu), a.virq);
    if (vm(caller).role() == VmRole::kPrimary && a.virq >= arch::kExternalBase) {
        ++stats_.forwarded_device_irqs;
    }
    return {HfError::kOk, 0};
}

HfResult Spm::on_vtimer_set(arch::CoreId core, arch::VmId caller,
                            const abi::VtimerSetArgs& a) {
    Vm& cvm = vm(caller);
    if (a.vcpu < 0 || a.vcpu >= cvm.vcpu_count()) return {HfError::kInvalid, 0};
    Vcpu& target = cvm.vcpu(a.vcpu);
    target.vtimer_armed = true;
    target.vtimer_deadline = a.deadline;
    if (target.running_core == core && running_vcpu_on(core) == &target) {
        platform_->core(core).timer().set_deadline(arch::TimerChannel::kVirt,
                                                   target.vtimer_deadline);
    }
    return {HfError::kOk, 0};
}

HfResult Spm::on_vtimer_cancel(arch::CoreId core, arch::VmId caller,
                               const abi::VtimerCancelArgs& a) {
    Vm& cvm = vm(caller);
    if (a.vcpu < 0 || a.vcpu >= cvm.vcpu_count()) return {HfError::kInvalid, 0};
    Vcpu& target = cvm.vcpu(a.vcpu);
    target.vtimer_armed = false;
    target.vtimer_deadline = sim::kTimeNever;
    if (target.running_core == core && running_vcpu_on(core) == &target) {
        platform_->core(core).timer().cancel(arch::TimerChannel::kVirt);
    }
    return {HfError::kOk, 0};
}

HfResult Spm::on_vcpu_run(arch::CoreId core, arch::VmId caller,
                          const abi::VcpuRunArgs& a) {
    (void)caller;  // privilege (primary only) already enforced by the gate
    const arch::VmId target_id = a.vm;
    const int vcpu_idx = a.vcpu;
    if (target_id == 0 || target_id > vms_.size()) return {HfError::kNotFound, 0};
    Vm& target = vm(target_id);
    if (target.destroyed) return {HfError::kNotFound, 0};
    if (target.role() == VmRole::kPrimary) return {HfError::kInvalid, 0};
    if (vcpu_idx < 0 || vcpu_idx >= target.vcpu_count()) return {HfError::kInvalid, 0};
    Vcpu& vcpu = target.vcpu(vcpu_idx);
    if (vcpu.state() != VcpuState::kReady) return {HfError::kRetry, 0};
    // A VCPU with no runnable guest thread may still be entered to service
    // pending virtual interrupts (it handles them and drops back to WFI).
    if (vcpu.guest_context == nullptr && !vcpu.vgic.next_deliverable()) {
        vcpu.set_state(VcpuState::kBlocked);  // nothing to do: park in WFI
        return {HfError::kRetry, 0};
    }
    if (platform_->core(core).exec().running()) {
        // A buggy primary driver can issue HF_VCPU_RUN while the core is
        // still executing a context; Hafnium rejects the call rather than
        // bringing the node down.
        ++stats_.bad_state_calls;
        return {HfError::kBusy, 0};
    }
    enter_vcpu(core, vcpu,
               platform_->perf().hypercall_roundtrip + platform_->perf().world_switch);
    return {HfError::kOk, 0};
}

HfResult Spm::on_msg_send(arch::CoreId core, arch::VmId caller,
                          const abi::MsgSendArgs& a) {
    (void)core;
    Vm& from = vm(caller);
    const arch::VmId target_id = a.to;
    const std::uint32_t size = a.size;
    if (target_id == 0 || target_id > vms_.size()) return {HfError::kNotFound, 0};
    Vm& to = vm(target_id);
    if (from.destroyed || to.destroyed) return {HfError::kNotFound, 0};
    if (!from.mailbox.configured || !to.mailbox.configured) return {HfError::kInvalid, 0};
    if (size > arch::kPageSize) return {HfError::kInvalid, 0};
    if (to.mailbox.recv_full) return {HfError::kBusy, 0};

    // Functional copy through both stage-2 translations, word by word. This
    // is the only cross-VM data path, and it is hypervisor-mediated.
    const std::uint64_t words = (size + 7) / 8;
    for (std::uint64_t w = 0; w < words; ++w) {
        std::uint64_t value = 0;
        if (!vm_read64(caller, from.mailbox.send_ipa + w * 8, value)) {
            return {HfError::kInvalid, 0};
        }
        if (!vm_write64(target_id, to.mailbox.recv_ipa + w * 8, value)) {
            return {HfError::kInvalid, 0};
        }
    }
    to.mailbox.recv_full = true;
    to.mailbox.recv_size = size;
    to.mailbox.recv_from = caller;
    ++stats_.messages;

    // Wake the receiver. Secondary/super-secondary: wake VCPU 0 if blocked.
    // Primary: notify its kernel (the control task waits on the mailbox).
    if (to.role() == VmRole::kPrimary) {
        if (primary_os_ != nullptr) primary_os_->on_message(caller);
    } else {
        inject_virq(to.vcpu(0), kMessageVirq);
    }
    return {HfError::kOk, 0};
}

namespace {

// Guest-supplied IPA windows must be rejected before they reach the
// stage-2 PageTable APIs: map/unmap/protect treat unaligned or
// beyond-range arguments as host API misuse and throw. The limit is the
// stage-2 format's input size (48-bit on ARMv8, 41-bit on Sv39x4). The
// pages bound also rules out overflow in `pages * kPageSize`.
bool valid_ipa_window(std::uint64_t base, std::uint64_t pages,
                      std::uint64_t ipa_limit) {
    return (base & arch::kPageMask) == 0 &&
           pages <= ipa_limit / arch::kPageSize &&
           base <= ipa_limit - pages * arch::kPageSize;
}

}  // namespace

HfResult Spm::on_mem_share(arch::CoreId, arch::VmId caller,
                           const abi::MemShareArgs& a) {
    return mem_send(caller, a, MemSend::kShare);
}

HfResult Spm::on_mem_lend(arch::CoreId, arch::VmId caller,
                          const abi::MemLendArgs& a) {
    return mem_send(caller, a, MemSend::kLend);
}

HfResult Spm::on_mem_donate(arch::CoreId, arch::VmId caller,
                            const abi::MemDonateArgs& a) {
    return mem_send(caller, a, MemSend::kDonate);
}

HfResult Spm::mem_send(arch::VmId caller, const abi::MemShareArgs& a,
                       MemSend kind) {
    if (a.to == 0 || a.to > vms_.size() || vm(a.to).destroyed) {
        return {HfError::kNotFound, 0};
    }
    const std::uint64_t ipa_limit = platform_->isa_ops().stage2.input_limit();
    if (a.to == caller || a.pages == 0 ||
        !valid_ipa_window(a.owner_ipa, a.pages, ipa_limit) ||
        !valid_ipa_window(a.borrower_ipa, a.pages, ipa_limit)) {
        return {HfError::kInvalid, 0};
    }
    Vm& from = vm(caller);
    Vm& to = vm(a.to);
    const std::uint64_t bytes = a.pages * arch::kPageSize;
    // One constituent per transaction: the owner window must translate to
    // one PA run, because that run is what the borrower gets mapped.
    const arch::PhysAddr pa = from.stage2().walk(a.owner_ipa).out;
    for (std::uint64_t off = 0; off < bytes; off += arch::kPageSize) {
        const arch::WalkResult w = from.stage2().walk(a.owner_ipa + off);
        if (w.fault != arch::FaultKind::kNone || w.out != pa + off) {
            return {HfError::kInvalid, 0};
        }
    }
    arch::MemoryMap& mem = platform_->mem();
    if (!mem.owned_span(pa, bytes, caller)) return {HfError::kDenied, 0};
    // Frames under a live share or lend stay put until reclaimed: a second
    // grant would hand a lent page out writable again, and a donation would
    // leave the borrower mapping frames its lender no longer owns.
    for (const auto& g : grants_) {
        if (g.owner == caller && a.owner_ipa < g.owner_ipa + g.pages * arch::kPageSize &&
            g.owner_ipa < a.owner_ipa + bytes) {
            return {HfError::kDenied, 0};
        }
    }
    // The borrower window must be a hole in the target's stage-2: map()
    // refuses overlap, and this also rejects duplicate grants of a window.
    for (std::uint64_t off = 0; off < bytes; off += arch::kPageSize) {
        if (to.stage2().walk(a.borrower_ipa + off).fault == arch::FaultKind::kNone) {
            return {HfError::kDenied, 0};
        }
    }
    // TrustZone: secure frames never reach a normal-world VM, and a
    // donation never moves frames across worlds.
    const arch::World world = mem.world_of(pa);
    if (world != to.world() &&
        (world == arch::World::kSecure || kind == MemSend::kDonate)) {
        return {HfError::kDenied, 0};
    }

    if (kind == MemSend::kDonate) {
        // Ownership transfer: the donor's translation goes entirely, then
        // the frames are re-owned and mapped for the new owner.
        // sca-suppress(no-throw-guest-path): window aligned (validated above),
        // and unmap() is idempotent on holes, so it cannot throw.
        from.stage2().unmap(a.owner_ipa, bytes);
        // sca-suppress(no-throw-guest-path): owned_span above proved every
        // frame of the run allocated, so set_owner() cannot throw.
        mem.set_owner(pa, a.pages, a.to);
    }
    // sca-suppress(no-throw-guest-path): window validated above — aligned,
    // in range, and unmapped in the target, so map() cannot throw.
    to.stage2().map(a.borrower_ipa, pa, bytes,
                    kind == MemSend::kDonate ? arch::kPermRWX : arch::kPermRW,
                    world == arch::World::kSecure);
    if (kind == MemSend::kDonate) {
        ++stats_.mem_donates;
        return {HfError::kOk, 0};
    }
    if (kind == MemSend::kLend) {
        // The lender loses access until reclaim (block mappings split on
        // demand).
        // sca-suppress(no-throw-guest-path): aligned window, every page
        // walk-checked mapped above, so protect() cannot throw.
        from.stage2().protect(a.owner_ipa, bytes, arch::kPermNone);
    }
    // sca-suppress(hot-path-alloc): GrantList is arena-backed — growth
    // bumps the trial arena, never the global heap.
    grants_.push_back({caller, a.to, a.owner_ipa, a.borrower_ipa, a.pages,
                       kind == MemSend::kLend});
    ++stats_.mem_grants;
    return {HfError::kOk, 0};
}

HfResult Spm::on_mem_reclaim(arch::CoreId, arch::VmId caller,
                             const abi::MemReclaimArgs& a) {
    const auto it = std::find_if(grants_.begin(), grants_.end(), [&](const ShareGrant& g) {
        return g.owner == caller && g.borrower == a.borrower && g.owner_ipa == a.owner_ipa;
    });
    if (it == grants_.end()) return {HfError::kNotFound, 0};
    revoke(it);
    return {HfError::kOk, 0};
}

Spm::GrantList::iterator Spm::revoke(GrantList::iterator grant) {
    const std::uint64_t bytes = grant->pages * arch::kPageSize;
    // sca-suppress(no-throw-guest-path): grant records only hold windows
    // mem_send validated as aligned; unmap() is idempotent on holes, so it
    // cannot throw.
    vm(grant->borrower).stage2().unmap(grant->borrower_ipa, bytes);
    if (grant->exclusive) {
        // The lender regains access. Its window stays mapped (perms-none)
        // for the grant's lifetime: mem_send refuses to share, lend or
        // donate granted frames, and no other hypercall unmaps the owner's
        // own translation.
        // sca-suppress(no-throw-guest-path): aligned, mapped window per the
        // grant invariant above, so protect() cannot throw.
        vm(grant->owner).stage2().protect(grant->owner_ipa, bytes, arch::kPermRWX);
    }
    ++stats_.mem_revokes;
    return grants_.erase(grant);
}

// --------------------------------------------------------------------------
// Functional guest memory
// --------------------------------------------------------------------------

arch::WalkResult Spm::vm_translate(arch::VmId id, arch::IpaAddr ipa) {
    return vm(id).stage2().walk(ipa);
}

std::optional<arch::PhysAddr> Spm::stage2_access(const Vm& vm, arch::IpaAddr ipa,
                                                 arch::Access access) {
    const arch::WalkResult w = vm.stage2().walk(ipa);
    if (w.fault != arch::FaultKind::kNone || !perms_allow(w.perms, access) ||
        platform_->mem().check_physical_access(w.out, vm.world()) !=
            arch::FaultKind::kNone) {
        return std::nullopt;
    }
    // DFITAGCHECK last: a stage-2 walk that *resolves* to a tagged frame is
    // the integrity violation (the walk succeeding is what makes it an
    // exploit rather than a plain fault). Reads check too: over-reads leak
    // key material as surely as overwrites corrupt tables (heartbleed
    // shape), and a blocked write leaves the tagged frame bit-identical,
    // which is what lets recovery re-verify it and keep serving.
    if (!tag_check(vm.id(), ipa, w.out, access)) return std::nullopt;
    return w.out;
}

bool Spm::vm_read64(arch::VmId id, arch::IpaAddr ipa, std::uint64_t& out) {
    const Vm& reader = vm(id);
    const auto pa = stage2_access(reader, ipa, arch::Access::kRead);
    if (!pa) return false;
    // sca-suppress(no-throw-guest-path): stage2_access verified the same
    // (frame, world) pair read64 re-checks, so it cannot throw here.
    out = platform_->mem().read64(*pa, reader.world());
    return true;
}

bool Spm::vm_write64(arch::VmId id, arch::IpaAddr ipa, std::uint64_t value) {
    const Vm& writer = vm(id);
    const auto pa = stage2_access(writer, ipa, arch::Access::kWrite);
    if (!pa) return false;
    // sca-suppress(no-throw-guest-path): stage2_access verified the same
    // (frame, world) pair write64 re-checks, so it cannot throw here.
    platform_->mem().write64(*pa, value, writer.world());
    return true;
}

// --------------------------------------------------------------------------
// Integrity tagging (detect of detect → contain → recover)
// --------------------------------------------------------------------------

void Spm::protect_critical_state() {
    if (critical_armed_) return;
    critical_armed_ = true;
    // Per-VM stage-2 table frames. The PageTable object itself is a model,
    // but the frames its nodes would occupy are real hypervisor-owned
    // allocations here, so a corrupting guest access has a concrete target.
    for (const auto& vm : vms_) {
        if (!vm->destroyed) protect_new_region("stage2:" + vm->name(), 1);
    }
    protect_new_region("attestation-log", 1);
    protect_new_region("lamport-keys", 2);
    protect_new_region("manifest", 1);
}

void Spm::protect_new_region(const std::string& name, std::uint64_t pages) {
    auto& mem = platform_->mem();
    const arch::PhysAddr base =
        mem.alloc_frames(pages, arch::kHypervisorId, arch::World::kNonSecure);
    // Deterministic fill derived from the region name, so the measurement
    // covers real content rather than a page of zeros (a zeroing attack
    // must not re-verify clean).
    const crypto::Digest seed = crypto::Sha256::hash(name);
    const std::uint64_t words = pages * (arch::kPageSize / 8);
    for (std::uint64_t w = 0; w < words; ++w) {
        std::uint64_t v = 0;
        for (std::uint64_t b = 0; b < 8; ++b) {
            v = (v << 8) | seed[(w + b) % seed.size()];
        }
        mem.write64(base + w * 8, v ^ w, arch::World::kSecure);
    }
    mem.set_integrity_tag(base, pages, true);
    critical_.push_back({name, base, pages, measure_region(base, pages), false});
}

crypto::Digest Spm::measure_region(arch::PhysAddr base, std::uint64_t pages) const {
    crypto::Sha256 h;
    const std::uint64_t words = pages * (arch::kPageSize / 8);
    for (std::uint64_t w = 0; w < words; ++w) {
        const std::uint64_t v =
            platform_->mem().read64(base + w * 8, arch::World::kSecure);
        h.update(crypto::bytes_of(v));
    }
    return h.finalize();
}

const Spm::CriticalRegion* Spm::find_critical(const std::string& name) const {
    for (const auto& r : critical_) {
        if (r.name == name) return &r;
    }
    return nullptr;
}

bool Spm::reverify_critical(const std::string& name) {
    for (auto& r : critical_) {
        if (r.name != name) continue;
        const bool ok =
            crypto::digest_equal(r.measurement, measure_region(r.base, r.pages));
        if (!ok) r.embargoed = true;
        return ok;
    }
    return false;
}

void Spm::release_critical(const std::string& name) {
    for (auto it = critical_.begin(); it != critical_.end(); ++it) {
        if (it->name != name) continue;
        // An embargoed region failed re-verification: its frames stay out
        // of the allocator forever rather than risk reuse of corrupt state.
        if (it->embargoed) return;
        // free_frames drops the tags and scrubs.
        platform_->mem().free_frames(it->base, it->pages);
        critical_.erase(it);
        return;
    }
}

bool Spm::tag_check(arch::VmId accessor, arch::IpaAddr ipa, arch::PhysAddr pa,
                    arch::Access access) {
    if (!platform_->mem().integrity_tagged(pa)) [[likely]] {
        return true;
    }
    ++stats_.tag_violations;
    std::string region;
    for (const auto& r : critical_) {
        if (pa >= r.base && pa < r.base + r.pages * arch::kPageSize) {
            region = r.name;
            break;
        }
    }
    platform_->recorder().instant(platform_->engine().now(),
                                  obs::EventType::kTagViolation, -1, accessor,
                                  static_cast<std::int64_t>(pa),
                                  static_cast<std::int64_t>(access));
    if (tag_violation_hook) {
        tag_violation_hook(TagViolation{accessor, ipa, pa, access, region});
    }
    return false;
}

void Spm::publish_metrics() {
    const std::pair<const char*, std::uint64_t> published[] = {
        {"hf.hypercalls", stats_.hypercalls},
        {"hf.world_switches", stats_.world_switches},
        {"hf.vm_exits", stats_.vm_exits},
        {"hf.exits_preempted", stats_.exits_preempted},
        {"hf.exits_blocked", stats_.exits_blocked},
        {"hf.exits_yield", stats_.exits_yield},
        {"hf.exits_aborted", stats_.exits_aborted},
        {"hf.virq_injections", stats_.virq_injections},
        {"hf.vtimer_fires", stats_.vtimer_fires},
        {"hf.forwarded_device_irqs", stats_.forwarded_device_irqs},
        {"hf.denied_calls", stats_.denied_calls},
        {"hf.bad_state_calls", stats_.bad_state_calls},
        {"hf.invalid_calls", stats_.invalid_calls},
        {"hf.messages", stats_.messages},
        {"hf.guest_aborts", stats_.guest_aborts},
        {"hf.mem_grants", stats_.mem_grants},
        {"hf.mem_revokes", stats_.mem_revokes},
        {"hf.mem_donates", stats_.mem_donates},
        {"hf.tag_violations", stats_.tag_violations},
    };
    static_assert(std::size(published) ==
                  std::tuple_size_v<decltype(stats_gauges_)>);
    auto& m = platform_->metrics();
    if (!stats_gauges_registered_) {
        for (std::size_t i = 0; i < std::size(published); ++i) {
            // sca-suppress(hot-path-alloc): the first call registers the
            // gauges; later calls, a strict audit's among them, reuse them.
            stats_gauges_[i] = m.gauge(published[i].first);
        }
        stats_gauges_registered_ = true;
    }
    for (std::size_t i = 0; i < std::size(published); ++i) {
        m.set(stats_gauges_[i], static_cast<double>(published[i].second));
    }
}

std::vector<std::string> Spm::devices_of(arch::VmId id) const {
    const auto it = device_map_.find(id);
    return it == device_map_.end() ? std::vector<std::string>{} : it->second;
}

}  // namespace hpcsec::hafnium
