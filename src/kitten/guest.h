// Kitten as a secondary (or super-secondary) guest under Hafnium.
//
// The paper §IV.b: porting Kitten into a secondary VM required disabling
// blocked architectural features (performance counters, debug registers,
// dc isw cache ops) and switching to the para-virtual interrupt controller
// and the dedicated virtual timer channel. This model captures the
// *behavioural* consequences: the guest ticks via the virtual timer, acks
// interrupts through the vGIC hypercalls, and runs one workload thread per
// VCPU under the LWK's run-to-completion policy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hafnium/interfaces.h"
#include "hafnium/spm.h"

namespace hpcsec::kitten {

struct GuestConfig {
    double tick_hz = 10.0;
    sim::Cycles tick_service = 1900;   ///< guest-side tick handler cost
    sim::Cycles msg_service = 1200;    ///< mailbox-notification handler cost
    bool tick_enabled = true;
};

class KittenGuestOs : public hafnium::GuestOsItf {
public:
    KittenGuestOs(hafnium::Spm& spm, hafnium::Vm& vm, GuestConfig config = {});
    ~KittenGuestOs() override = default;

    /// Install the workload thread that runs on a VCPU (replaces any
    /// existing thread list).
    void set_thread(int vcpu_index, arch::Runnable* thread);

    /// Add an additional thread to a VCPU's run queue. The guest's LWK
    /// scheduler runs threads to completion and round-robins the queue
    /// when the current one blocks or finishes its work.
    void add_thread(int vcpu_index, arch::Runnable* thread);

    [[nodiscard]] std::size_t thread_count(int vcpu_index) const {
        return threads_.at(static_cast<std::size_t>(vcpu_index)).size();
    }

    /// Guest kernel boot: registers with the SPM, enables the para-virtual
    /// interrupt lines, arms per-VCPU virtual timers, marks VCPUs ready.
    void start();

    /// Barrier-release helper: wake every blocked VCPU whose thread has
    /// work again (wired to ParallelWorkload::on_release).
    void wake_runnable_vcpus();

    /// Invoked on every serviced virtual-timer tick — the guest's liveness
    /// signal. The resilience watchdog (src/resil/) feeds per-VCPU heartbeat
    /// timestamps from here; unset in ordinary runs (one branch per tick).
    std::function<void(hafnium::Vcpu&)> heartbeat_hook;

    // --- GuestOsItf -----------------------------------------------------------
    sim::Cycles on_virq(hafnium::Vcpu& vcpu, int virq) override;
    arch::Runnable* on_idle(hafnium::Vcpu& vcpu) override;

    struct Stats {
        std::uint64_t ticks = 0;
        std::uint64_t messages = 0;
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    void arm_vtimer(hafnium::Vcpu& vcpu);
    /// Guest virtual-timer line (ARM vtimer PPI / RISC-V VSTI) per the
    /// platform's configured ISA.
    [[nodiscard]] int virt_timer_irq() const {
        return spm_->platform().isa_ops().irq.virt_timer;
    }

    hafnium::Spm* spm_;
    hafnium::Vm* vm_;
    GuestConfig config_;
    /// Per-VCPU run queues (front == current thread). A queue holds one to
    /// a few threads, and an empty vector allocates nothing.
    std::vector<std::vector<arch::Runnable*>> threads_;
    Stats stats_;
};

}  // namespace hpcsec::kitten
