#include "kitten/guest.h"

#include <algorithm>

#include "arch/isa.h"

namespace hpcsec::kitten {

KittenGuestOs::KittenGuestOs(hafnium::Spm& spm, hafnium::Vm& vm, GuestConfig config)
    : spm_(&spm), vm_(&vm), config_(config) {
    threads_.assign(static_cast<std::size_t>(vm.vcpu_count()), {});
    spm.attach_guest(vm.id(), this);
}

void KittenGuestOs::set_thread(int vcpu_index, arch::Runnable* thread) {
    auto& q = threads_.at(static_cast<std::size_t>(vcpu_index));
    q.clear();
    if (thread != nullptr) q.push_back(thread);
    spm_->set_guest_context(vm_->vcpu(vcpu_index), thread);
}

void KittenGuestOs::add_thread(int vcpu_index, arch::Runnable* thread) {
    auto& q = threads_.at(static_cast<std::size_t>(vcpu_index));
    q.push_back(thread);
    if (q.size() == 1) {
        spm_->set_guest_context(vm_->vcpu(vcpu_index), thread);
    }
}

void KittenGuestOs::start() {
    for (int v = 0; v < vm_->vcpu_count(); ++v) {
        hafnium::Vcpu& vcpu = vm_->vcpu(v);
        // Para-virtual interrupt controller setup (the features Hafnium
        // actually lets a secondary use).
        hf::interrupt_enable(*spm_, vcpu.assigned_core, vm_->id(),
                             virt_timer_irq(), v);
        hf::interrupt_enable(*spm_, vcpu.assigned_core, vm_->id(),
                             hafnium::kMessageVirq, v);
        if (config_.tick_enabled) arm_vtimer(vcpu);
        if (!threads_[static_cast<std::size_t>(v)].empty()) {
            spm_->make_vcpu_ready(vcpu);
        }
    }
}

void KittenGuestOs::arm_vtimer(hafnium::Vcpu& vcpu) {
    const auto period =
        spm_->platform().engine().clock().period_of_hz(config_.tick_hz);
    const sim::SimTime deadline = spm_->platform().engine().now() + period;
    const arch::CoreId core =
        vcpu.running_core >= 0 ? vcpu.running_core : vcpu.assigned_core;
    hf::vtimer_set(*spm_, core, vm_->id(), deadline, vcpu.index());
}

void KittenGuestOs::wake_runnable_vcpus() {
    for (int v = 0; v < vm_->vcpu_count(); ++v) {
        hafnium::Vcpu& vcpu = vm_->vcpu(v);
        if (vcpu.state() != hafnium::VcpuState::kBlocked) continue;
        for (arch::Runnable* t : threads_[static_cast<std::size_t>(v)]) {
            if (t->remaining_units() > 0) {
                spm_->wake_vcpu(vcpu);
                break;
            }
        }
    }
}

sim::Cycles KittenGuestOs::on_virq(hafnium::Vcpu& vcpu, int virq) {
    // The virtual-timer line id is an ISA runtime property (IrqLayout), so
    // this is an if/else chain rather than a switch on constants.
    if (virq == virt_timer_irq()) {
        ++stats_.ticks;
        spm_->platform().recorder().instant(
            spm_->platform().engine().now(), obs::EventType::kGuestTick,
            vcpu.running_core, vm_->id(), vcpu.index());
        if (heartbeat_hook) heartbeat_hook(vcpu);
        if (config_.tick_enabled) arm_vtimer(vcpu);
        return config_.tick_service;
    }
    if (virq == hafnium::kMessageVirq) {
        ++stats_.messages;
        return config_.msg_service;
    }
    // Forwarded device IRQ (super-secondary role): generic handler.
    return config_.msg_service;
}

arch::Runnable* KittenGuestOs::on_idle(hafnium::Vcpu& vcpu) {
    auto& q = threads_.at(static_cast<std::size_t>(vcpu.index()));
    // LWK run queue: the finished/blocked current thread rotates to the
    // back; pick the first thread with work left.
    for (std::size_t probe = 0; probe < q.size(); ++probe) {
        arch::Runnable* t = q.front();
        if (t->remaining_units() > 0) return t;
        std::rotate(q.begin(), q.begin() + 1, q.end());
    }
    return nullptr;  // run queue empty of work: WFI / FFA_MSG_WAIT
}

}  // namespace hpcsec::kitten
