// The Kitten lightweight kernel model (ARM64 port).
//
// Two personalities, as in the paper:
//  * native: Kitten owns the hardware — exception vectors, physical timer,
//    per-core run queues — and runs application threads directly;
//  * primary VM: Kitten is the Hafnium scheduling VM. Each hosted VCPU gets
//    a kernel thread whose "execution" is an HF_VCPU_RUN hypercall; the
//    physical timer interrupts are routed to Kitten by the SPM, and device
//    IRQs are forwarded on to the super-secondary VM.
//
// Scheduling is deliberately simple (the LWK philosophy): strict per-core
// round-robin run queues, a large quantum (one tick at 10 Hz by default),
// no background tasks, no deferred work, no load balancing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "hafnium/interfaces.h"
#include "hafnium/spm.h"
#include "kitten/buddy.h"
#include "kitten/thread.h"

namespace hpcsec::kitten {

struct KittenConfig {
    double tick_hz = 10.0;  ///< "significantly larger time slices … lower
                            ///  timer tick rates" than a FWK
    bool tick_enabled = true;
};

class KittenKernel : public hafnium::PrimaryOsItf {
public:
    /// Native personality: Kitten directly on the platform.
    KittenKernel(arch::Platform& platform, KittenConfig config);

    /// Primary-VM personality: Kitten as Hafnium's scheduling VM.
    KittenKernel(arch::Platform& platform, hafnium::Spm& spm, KittenConfig config);

    ~KittenKernel() override = default;

    [[nodiscard]] bool is_primary_vm() const { return spm_ != nullptr; }

    /// Bring the kernel up: install handlers (native), arm per-core ticks,
    /// start dispatching.
    void boot();
    [[nodiscard]] bool booted() const { return booted_; }

    // --- thread management ---------------------------------------------------
    KThread& add_app_thread(arch::CoreId core, arch::Runnable* ctx, std::string name);
    KThread& add_control_task(arch::CoreId core, arch::Runnable* ctx, std::string name);

    /// Primary-VM only: create one VCPU-proxy kernel thread per VCPU of the
    /// target VM ("hafnium uses the same approach as the Linux implementation
    /// and creates a dedicated kernel thread for each of the VM's VCPUs").
    /// A VCPU that already has a live proxy keeps it, so a repeated launch
    /// adds no threads.
    void launch_vm(arch::VmId vm) override;
    /// Tear the proxies down (the VM stops being scheduled).
    void stop_vm(arch::VmId vm) override;

    /// Move a VCPU proxy to another core ("CPU assignments can be configured
    /// and even modified during the secondary VM's execution").
    bool migrate_vcpu(arch::VmId vm, int vcpu, arch::CoreId new_core);

    void wake(KThread& thread);
    void block(KThread& thread);
    void exit_thread(KThread& thread);

    [[nodiscard]] const std::vector<std::unique_ptr<KThread>>& threads() const {
        return threads_;
    }
    [[nodiscard]] KThread* find_thread(const std::string& name);

    /// Kernel heap (buddy-managed, offsets within the kernel's own memory).
    BuddyAllocator& kmem() { return kmem_; }

    // --- PrimaryOsItf ---------------------------------------------------------
    void on_interrupt(arch::CoreId core, int irq) override;
    void on_vcpu_exit(arch::CoreId core, hafnium::Vcpu& vcpu,
                      hafnium::ExitReason reason) override;
    void on_vcpu_wake(hafnium::Vcpu& vcpu) override;
    void on_task_complete(arch::CoreId core, arch::Runnable* task) override;
    void on_message(arch::VmId from) override;

    /// Hook invoked when a mailbox message arrives (wired to the control
    /// task by the integration layer).
    std::function<void(arch::VmId from)> message_hook;

    struct Stats {
        std::uint64_t ticks = 0;
        std::uint64_t dispatches = 0;
        std::uint64_t forwarded_irqs = 0;
        std::uint64_t resched_ipis = 0;
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

    void dispatch(arch::CoreId core);

private:
    void native_irq(arch::CoreId core, int irq);
    void handle_tick(arch::CoreId core);
    void arm_tick(arch::CoreId core);
    void enqueue(KThread& thread, bool front = false);
    [[nodiscard]] KThread* proxy_for(const hafnium::Vcpu& vcpu);
    [[nodiscard]] arch::VmId self_id() const { return arch::kPrimaryVmId; }

    arch::Platform* platform_;
    hafnium::Spm* spm_ = nullptr;  // null in native personality
    KittenConfig config_;
    bool booted_ = false;
    sim::Rng rng_;

    std::vector<std::unique_ptr<KThread>> threads_;
    std::vector<std::vector<KThread*>> runq_;  // per core, front = next to run
    std::vector<KThread*> current_;            // per core
    BuddyAllocator kmem_{1ull << 24, arch::kPageSize};  // 16 MiB kernel heap
    Stats stats_;
};

}  // namespace hpcsec::kitten
