// Contracts between the SPM and the kernels it hosts.
//
// The SPM owns every core's exception vector (EL2). Kernels never see raw
// hardware interrupts; they receive upcalls through these interfaces, the
// model analogue of Hafnium returning from HF_VCPU_RUN or injecting a
// virtual interrupt.
#pragma once

#include <cstdint>

#include "arch/types.h"
#include "hafnium/vm.h"
#include "sim/time.h"

namespace hpcsec::hafnium {

/// Implemented by the primary VM's kernel (Kitten or Linux model).
class PrimaryOsItf {
public:
    virtual ~PrimaryOsItf() = default;

    /// Start scheduling a VM the SPM has admitted: one VCPU-proxy kernel
    /// thread per VCPU, queued when the VCPU is ready.
    virtual void launch_vm(arch::VmId vm) = 0;
    /// Stop scheduling a VM: reap its VCPU proxies.
    virtual void stop_vm(arch::VmId vm) = 0;

    /// A physical interrupt was routed to the primary on `core`. The EL2
    /// trap and world-switch costs have already been charged; the kernel
    /// must charge its own handler cost and then redispatch the core
    /// (usually by calling HF_VCPU_RUN again).
    virtual void on_interrupt(arch::CoreId core, int irq) = 0;

    /// The VCPU the primary ran on `core` exited back to the scheduler.
    virtual void on_vcpu_exit(arch::CoreId core, Vcpu& vcpu, ExitReason reason) = 0;

    /// A blocked VCPU became runnable again (message/interrupt/barrier).
    /// May be raised from another core's context.
    virtual void on_vcpu_wake(Vcpu& vcpu) = 0;

    /// One of the primary's own tasks (control task, background kthread)
    /// ran out of work on `core`.
    virtual void on_task_complete(arch::CoreId core, arch::Runnable* task) {
        (void)core;
        (void)task;
    }

    /// A message landed in the primary's mailbox (sender given).
    virtual void on_message(arch::VmId from) { (void)from; }
};

/// Virtual interrupt id used to notify a VM of a mailbox message
/// (Hafnium's HF_MAILBOX_READABLE_INTID analogue; sits in the SGI range).
inline constexpr int kMessageVirq = 5;

/// Implemented by secondary (and super-secondary) guest kernels.
class GuestOsItf {
public:
    virtual ~GuestOsItf() = default;

    /// A virtual interrupt was injected while the VCPU is being resumed.
    /// Returns the guest handler's service cost in cycles; the SPM charges
    /// it to the core before guest work continues.
    virtual sim::Cycles on_virq(Vcpu& vcpu, int virq) = 0;

    /// The guest context on `vcpu` ran out of work (its thread completed or
    /// blocked). Returns the runnable to continue with, or nullptr if the
    /// VCPU should block (FFA_MSG_WAIT semantics).
    virtual arch::Runnable* on_idle(Vcpu& vcpu) = 0;
};

}  // namespace hpcsec::hafnium
