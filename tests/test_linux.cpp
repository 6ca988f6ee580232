// Linux FWK model tests: CFS runqueue mechanics and the noisy primary-VM
// behaviour that motivates the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/platform.h"
#include "hafnium/spm.h"
#include "linux_fwk/cfs.h"
#include "linux_fwk/guest.h"
#include "kitten/guest.h"
#include "kitten/kitten.h"
#include "linux_fwk/linux.h"
#include "workloads/workload.h"

namespace hpcsec::linux_fwk {
namespace {

// --- CfsRunqueue -----------------------------------------------------------------

SchedEntity make_entity(const std::string& name, double vruntime = 0.0,
                        int weight = kNiceZeroWeight) {
    SchedEntity se;
    se.name = name;
    se.vruntime = vruntime;
    se.weight = weight;
    return se;
}

TEST(Cfs, PicksLeftmostByVruntime) {
    CfsRunqueue rq;
    SchedEntity a = make_entity("a", 100), b = make_entity("b", 50),
                c = make_entity("c", 75);
    rq.enqueue(a, false);
    rq.enqueue(b, false);
    rq.enqueue(c, false);
    EXPECT_EQ(rq.pick_next(), &b);
    EXPECT_EQ(rq.pick_next(), &c);
    EXPECT_EQ(rq.pick_next(), &a);
    EXPECT_EQ(rq.pick_next(), nullptr);
}

TEST(Cfs, UpdateCurrAdvancesVruntimeByWeight) {
    CfsRunqueue rq;
    SchedEntity heavy = make_entity("h", 0, 2048);
    rq.update_curr(heavy, 1000.0);
    EXPECT_DOUBLE_EQ(heavy.vruntime, 500.0);  // half speed for double weight
    SchedEntity normal = make_entity("n", 0, 1024);
    rq.update_curr(normal, 1000.0);
    EXPECT_DOUBLE_EQ(normal.vruntime, 1000.0);
}

TEST(Cfs, SleeperCreditOnWakeup) {
    CfsRunqueue rq;
    SchedEntity runner = make_entity("runner");
    rq.enqueue(runner, false);
    (void)rq.pick_next();
    rq.update_curr(runner, 50'000'000);  // runner accumulated a lot
    rq.put_prev(runner);
    EXPECT_GT(rq.min_vruntime(), 0.0);

    SchedEntity sleeper = make_entity("sleeper", 0.0);
    rq.enqueue(sleeper, /*wakeup=*/true);
    // Sleeper placed near (slightly behind) min_vruntime, not at zero or at
    // the runner's huge value.
    EXPECT_GE(sleeper.vruntime, 0.0);
    EXPECT_EQ(rq.pick_next(), &sleeper);
}

TEST(Cfs, ShouldPreemptUsesWakeupGranularity) {
    CfsRunqueue::Tunables tun;
    CfsRunqueue rq(tun);
    SchedEntity curr = make_entity("curr", 10'000'000);
    SchedEntity cand = make_entity("cand", 10'000'000 - tun.wakeup_granularity_cycles / 2);
    rq.enqueue(cand, false);
    EXPECT_FALSE(rq.should_preempt(curr));  // within granularity
    rq.dequeue(cand);
    cand.vruntime = 10'000'000 - 2 * tun.wakeup_granularity_cycles;
    rq.enqueue(cand, false);
    EXPECT_TRUE(rq.should_preempt(curr));
}

TEST(Cfs, DequeueRemoves) {
    CfsRunqueue rq;
    SchedEntity a = make_entity("a", 1);
    rq.enqueue(a, false);
    rq.dequeue(a);
    EXPECT_EQ(rq.pick_next(), nullptr);
    EXPECT_EQ(rq.queued(), 0u);
}

TEST(Cfs, DeterministicTiebreakOnEqualVruntime) {
    SchedEntity a = make_entity("a", 7), b = make_entity("b", 7), c = make_entity("c", 7),
                early = make_entity("z", 3);
    SchedEntity* const entities[] = {&a, &b, &c, &early};
    std::vector<int> order = {0, 1, 2, 3};
    do {  // every insert order
        CfsRunqueue rq;
        for (const int i : order) rq.enqueue(*entities[i], false);
        ASSERT_EQ(rq.queued(), 4u);
        EXPECT_EQ(rq.leftmost(), &early);
        EXPECT_EQ(rq.pick_next(), &early);  // vruntime first, whatever the name
        EXPECT_EQ(rq.pick_next(), &a);      // then name order
        EXPECT_EQ(rq.pick_next(), &b);
        EXPECT_EQ(rq.pick_next(), &c);
        EXPECT_EQ(rq.pick_next(), nullptr);
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Cfs, RepeatedPutPrevIsANoOp) {
    CfsRunqueue rq;
    SchedEntity a = make_entity("a", 5), b = make_entity("b", 9);
    rq.enqueue(b, false);
    rq.put_prev(a);
    rq.put_prev(a);
    EXPECT_EQ(rq.queued(), 2u);
    EXPECT_EQ(rq.pick_next(), &a);
    EXPECT_EQ(rq.pick_next(), &b);
    EXPECT_EQ(rq.pick_next(), nullptr);
}

TEST(Cfs, DequeueOfAnAbsentEntityIsANoOp) {
    CfsRunqueue rq;
    SchedEntity a = make_entity("a", 1), b = make_entity("b", 2), c = make_entity("c", 3);
    rq.enqueue(a, false);
    rq.enqueue(c, false);
    rq.dequeue(b);  // never queued
    EXPECT_EQ(rq.queued(), 2u);
    EXPECT_EQ(rq.pick_next(), &a);
    rq.dequeue(a);  // already picked
    EXPECT_EQ(rq.queued(), 1u);
    EXPECT_EQ(rq.pick_next(), &c);
    rq.dequeue(c);  // empty queue
    EXPECT_EQ(rq.queued(), 0u);
    EXPECT_EQ(rq.pick_next(), nullptr);
}

// --- LinuxKernel as primary --------------------------------------------------------

struct LinuxPrimary : ::testing::Test {
    arch::Platform platform{arch::PlatformConfig::pine_a64(), 99};
    std::unique_ptr<hafnium::Spm> spm;
    std::unique_ptr<LinuxKernel> kernel;
    std::unique_ptr<LinuxGuestOs> login_guest;  // reused as a plain guest here

    void SetUp() override {
        hafnium::Manifest m;
        hafnium::VmSpec p;
        p.name = "linux-primary";
        p.role = hafnium::VmRole::kPrimary;
        p.mem_bytes = 64ull << 20;
        p.vcpu_count = 4;
        p.image = {1};
        hafnium::VmSpec s;
        s.name = "compute";
        s.role = hafnium::VmRole::kSecondary;
        s.mem_bytes = 64ull << 20;
        s.vcpu_count = 4;
        s.image = {2};
        m.vms = {p, s};
        spm = std::make_unique<hafnium::Spm>(platform, m);
        kernel = std::make_unique<LinuxKernel>(platform, *spm, LinuxConfig{});
        spm->boot();
        kernel->boot();
    }

    double run_seconds(double s) {
        const auto t = platform.engine().clock().from_seconds(s);
        platform.engine().run_until(platform.engine().now() + t);
        return s;
    }
};

TEST_F(LinuxPrimary, TicksAt250HzPerCore) {
    run_seconds(1.0);
    // 4 cores x 250 Hz.
    EXPECT_NEAR(static_cast<double>(kernel->stats().ticks), 1000.0, 60.0);
}

TEST_F(LinuxPrimary, BackgroundNoiseHappens) {
    run_seconds(2.0);
    EXPECT_GT(kernel->stats().kworker_wakes, 0u);
    EXPECT_GT(kernel->stats().softirqs, 0u);
    EXPECT_GT(kernel->stats().noise_cycles, 0.0);
}

TEST_F(LinuxPrimary, NoiseCanBeDisabled) {
    arch::Platform p2(arch::PlatformConfig::pine_a64(), 7);
    hafnium::Manifest m;
    hafnium::VmSpec p;
    p.name = "linux-primary";
    p.role = hafnium::VmRole::kPrimary;
    p.mem_bytes = 32ull << 20;
    p.vcpu_count = 4;
    m.vms = {p};
    hafnium::Spm s2(p2, m);
    LinuxConfig cfg;
    cfg.noise_enabled = false;
    LinuxKernel k2(p2, s2, cfg);
    s2.boot();
    k2.boot();
    p2.engine().run_until(p2.engine().clock().from_seconds(1.0));
    EXPECT_EQ(k2.stats().kworker_wakes, 0u);
    EXPECT_EQ(k2.stats().softirqs, 0u);
}

TEST_F(LinuxPrimary, GuestMakesProgressDespiteNoise) {
    hpcsec::kitten::KittenGuestOs guest(*spm, *spm->find_vm("compute"));
    wl::WorkloadSpec spec;
    spec.name = "w";
    spec.nthreads = 4;
    spec.supersteps = 3;
    spec.units_per_thread_step = 200000;
    spec.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(spec);
    w.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < 4; ++i) guest.set_thread(i, &w.thread(i));
    guest.start();
    w.on_release = [&] { guest.wake_runnable_vcpus(); };
    kernel->launch_vm(2);
    run_seconds(2.0);
    EXPECT_TRUE(w.finished());
}

TEST_F(LinuxPrimary, VcpuPreemptedByTicksFrequently) {
    hpcsec::kitten::KittenGuestOs guest(*spm, *spm->find_vm("compute"));
    wl::ParallelWorkload w(wl::spinner_spec(4));
    w.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < 4; ++i) guest.set_thread(i, &w.thread(i));
    guest.start();
    kernel->launch_vm(2);
    run_seconds(1.0);
    // Each of the 4 VCPUs is preempted by ~250 ticks/s.
    std::uint64_t preemptions = 0;
    for (int v = 0; v < 4; ++v) preemptions += spm->vm(2).vcpu(v).preemptions;
    EXPECT_GT(preemptions, 800u);
    EXPECT_GT(spm->stats().exits_preempted, 800u);
}

TEST_F(LinuxPrimary, StopVmHaltsScheduling) {
    hpcsec::kitten::KittenGuestOs guest(*spm, *spm->find_vm("compute"));
    wl::ParallelWorkload w(wl::spinner_spec(4));
    w.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < 4; ++i) guest.set_thread(i, &w.thread(i));
    guest.start();
    kernel->launch_vm(2);
    run_seconds(0.2);
    const std::uint64_t runs_before = spm->vm(2).vcpu(0).runs;
    EXPECT_GT(runs_before, 0u);
    // Preempt current guests, then stop the VM.
    for (int c = 0; c < 4; ++c) platform.core(c).exec().preempt();
    kernel->stop_vm(2);
    run_seconds(0.5);
    EXPECT_LE(spm->vm(2).vcpu(0).runs, runs_before + 1);
}

TEST_F(LinuxPrimary, AddTaskRunsUnderCfs) {
    BurstWork burst("job", arch::TranslationMode::kTwoStage);
    burst.refill(1'000'000);
    SchedEntity& se = kernel->add_task(1, &burst, "user-job");
    kernel->wake_entity(se);
    const double vruntime_at_wake = se.vruntime;
    run_seconds(0.5);
    EXPECT_EQ(burst.remaining_units(), 0.0);
    EXPECT_GT(se.vruntime, vruntime_at_wake);  // CFS charged its runtime
}

// --- LinuxGuestOs (super-secondary personality) ------------------------------------

TEST(LinuxGuest, DeviceIrqDeliveredToLoginVm) {
    arch::Platform platform(arch::PlatformConfig::pine_a64(), 5);
    hafnium::Manifest m;
    hafnium::VmSpec p;
    p.name = "kitten-primary";
    p.role = hafnium::VmRole::kPrimary;
    p.mem_bytes = 64ull << 20;
    p.vcpu_count = 4;
    hafnium::VmSpec ss;
    ss.name = "login";
    ss.role = hafnium::VmRole::kSuperSecondary;
    ss.mem_bytes = 32ull << 20;
    ss.vcpu_count = 1;
    m.vms = {p, ss};
    hafnium::Spm spm(platform, m);
    hpcsec::kitten::KittenKernel kernel(platform, spm, hpcsec::kitten::KittenConfig{});
    spm.boot();
    kernel.boot();
    LinuxGuestOs login(spm, *spm.super_secondary());
    int seen_irq = -1;
    login.device_irq_hook = [&](int irq) { seen_irq = irq; };
    login.start();
    kernel.launch_vm(2);

    // Raise the UART SPI (32): primary receives it and forwards.
    platform.irqc().raise_external(32);
    platform.engine().run_until(platform.engine().clock().from_millis(50));
    EXPECT_EQ(seen_irq, 32);
    EXPECT_EQ(login.stats().device_irqs, 1u);
    EXPECT_GE(kernel.stats().forwarded_irqs, 1u);
    EXPECT_GE(spm.stats().forwarded_device_irqs, 1u);
}

}  // namespace
}  // namespace hpcsec::linux_fwk
