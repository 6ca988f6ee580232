// Linux full-weight-kernel model in the Hafnium primary-VM role.
//
// This is the configuration the paper measures against: the reference
// Hafnium deployment where "Linux must be running on every core in the
// system (along with its associated kernel threads and background tasks)".
// Modeled behaviours that generate the Fig. 6 noise profile:
//   * 250 Hz scheduler tick per core with a heavier handler than the LWK's;
//   * CFS vruntime accounting and wakeup preemption;
//   * per-core kworker threads woken by irq-work at random (Poisson) times,
//     running bursts of deferred work;
//   * softirq processing piggybacked on a fraction of ticks;
//   * the Hafnium driver's one-kernel-thread-per-VCPU scheduling scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/platform.h"
#include "hafnium/interfaces.h"
#include "hafnium/spm.h"
#include "linux_fwk/burst.h"
#include "linux_fwk/cfs.h"

namespace hpcsec::linux_fwk {

struct LinuxConfig {
    double tick_hz = 250.0;           ///< CONFIG_HZ=250 default
    bool noise_enabled = true;
    double kworker_rate_hz = 2.0;     ///< per-core mean wake rate
    double kworker_burst_us_mean = 150.0;
    double softirq_prob = 0.15;       ///< fraction of ticks with softirq work
    double softirq_us_mean = 30.0;
    CfsRunqueue::Tunables cfs{};
};

class LinuxKernel : public hafnium::PrimaryOsItf {
public:
    LinuxKernel(arch::Platform& platform, hafnium::Spm& spm, LinuxConfig config);
    ~LinuxKernel() override = default;

    /// Bring the kernel up: ticks, background kthreads, noise sources.
    void boot();
    [[nodiscard]] bool booted() const { return booted_; }

    /// hf.ko: create one CFS kernel thread per VCPU of the target VM.
    void launch_vm(arch::VmId vm) override;
    void stop_vm(arch::VmId vm) override;

    SchedEntity& add_task(arch::CoreId core, arch::Runnable* ctx, std::string name);
    void wake_entity(SchedEntity& se);

    // --- PrimaryOsItf ---------------------------------------------------------
    void on_interrupt(arch::CoreId core, int irq) override;
    void on_vcpu_exit(arch::CoreId core, hafnium::Vcpu& vcpu,
                      hafnium::ExitReason reason) override;
    void on_vcpu_wake(hafnium::Vcpu& vcpu) override;
    void on_task_complete(arch::CoreId core, arch::Runnable* task) override;
    void on_message(arch::VmId) override {}

    struct Stats {
        std::uint64_t ticks = 0;
        std::uint64_t dispatches = 0;
        std::uint64_t kworker_wakes = 0;
        std::uint64_t softirqs = 0;
        std::uint64_t preemptions_by_noise = 0;
        std::uint64_t forwarded_irqs = 0;
        double noise_cycles = 0.0;
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

    void dispatch(arch::CoreId core);

private:
    void handle_tick(arch::CoreId core);
    void arm_tick(arch::CoreId core);
    void schedule_kworker_wake(arch::CoreId core);
    void account_current(arch::CoreId core);
    [[nodiscard]] SchedEntity* proxy_for(const hafnium::Vcpu& vcpu);

    arch::Platform* platform_;
    hafnium::Spm* spm_;
    LinuxConfig config_;
    bool booted_ = false;

    std::vector<std::unique_ptr<SchedEntity>> entities_;
    std::vector<std::unique_ptr<BurstWork>> bursts_;  // kworker contexts
    std::vector<CfsRunqueue> rq_;          // per core
    std::vector<SchedEntity*> current_;    // per core
    std::vector<sim::SimTime> dispatched_at_;  // per core
    std::vector<SchedEntity*> kworker_;    // per core
    std::vector<sim::Rng> noise_rng_;      // per core
    Stats stats_;
};

}  // namespace hpcsec::linux_fwk
