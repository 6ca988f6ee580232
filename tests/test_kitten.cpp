// Kitten LWK tests: buddy allocator, native scheduling behaviour,
// primary-VM personality mechanics, and the guest personality.
#include <gtest/gtest.h>

#include "arch/platform.h"
#include "hafnium/spm.h"
#include "kitten/buddy.h"
#include "kitten/guest.h"
#include "kitten/kitten.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace hpcsec::kitten {
namespace {

// --- BuddyAllocator -----------------------------------------------------------

TEST(Buddy, AllocatesAndFrees) {
    BuddyAllocator b(1 << 20, 4096);
    const auto a = b.alloc(4096);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(b.allocated_bytes(), 4096u);
    b.free(*a);
    EXPECT_EQ(b.allocated_bytes(), 0u);
    EXPECT_EQ(b.largest_free_block(), 1u << 20);
}

TEST(Buddy, RoundsUpToPowerOfTwo) {
    BuddyAllocator b(1 << 20, 4096);
    const auto a = b.alloc(5000);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(b.allocated_bytes(), 8192u);
    b.free(*a);
}

TEST(Buddy, SplitsAndCoalesces) {
    BuddyAllocator b(1 << 16, 4096);  // 16 min blocks
    std::vector<std::uint64_t> offs;
    for (int i = 0; i < 16; ++i) {
        const auto a = b.alloc(4096);
        ASSERT_TRUE(a.has_value());
        offs.push_back(*a);
    }
    EXPECT_FALSE(b.alloc(4096).has_value());  // full
    for (const auto o : offs) b.free(o);
    EXPECT_EQ(b.largest_free_block(), 1u << 16);  // fully coalesced
    EXPECT_EQ(b.fragments(), 1u);
}

TEST(Buddy, BuddyAddressesAreAligned) {
    BuddyAllocator b(1 << 20, 4096);
    const auto big = b.alloc(64 * 1024);
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(*big % (64 * 1024), 0u);
}

TEST(Buddy, DoubleFreeThrows) {
    BuddyAllocator b(1 << 16, 4096);
    const auto a = b.alloc(4096);
    b.free(*a);
    EXPECT_THROW(b.free(*a), std::logic_error);
}

TEST(Buddy, OversizeAllocFails) {
    BuddyAllocator b(1 << 16, 4096);
    EXPECT_FALSE(b.alloc((1 << 16) + 1).has_value());
    EXPECT_TRUE(b.alloc(1 << 16).has_value());
}

TEST(Buddy, RejectsNonPowerOfTwoGeometry) {
    EXPECT_THROW(BuddyAllocator(3000, 100), std::invalid_argument);
    EXPECT_THROW(BuddyAllocator(1 << 10, 1 << 12), std::invalid_argument);
}

TEST(Buddy, RandomizedAllocFreeConservesBytes) {
    BuddyAllocator b(1 << 20, 4096);
    sim::Rng rng(77);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // offset,size
    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.next_double() < 0.55) {
            const std::uint64_t want = 4096ull << rng.next_below(5);
            if (const auto a = b.alloc(want)) {
                // No overlap with any live allocation.
                for (const auto& [off, sz] : live) {
                    EXPECT_TRUE(*a + want <= off || off + sz <= *a);
                }
                live.emplace_back(*a, want);
            }
        } else {
            const std::size_t idx = rng.next_below(live.size());
            b.free(live[idx].first);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
    }
    std::uint64_t expect = 0;
    for (const auto& [off, sz] : live) expect += sz;
    EXPECT_EQ(b.allocated_bytes(), expect);
}

// --- Native Kitten ------------------------------------------------------------------

class CountedWork : public arch::Runnable {
public:
    explicit CountedWork(double units) : remaining_(units) {
        prof_.cycles_per_unit = 1.0;  // one unit == one cycle
    }
    [[nodiscard]] std::string_view label() const override { return "counted"; }
    [[nodiscard]] double remaining_units() const override { return remaining_; }
    void advance(double u, sim::SimTime) override {
        remaining_ = u >= remaining_ ? 0 : remaining_ - u;
    }
    [[nodiscard]] const arch::WorkProfile& profile() const override { return prof_; }
    [[nodiscard]] arch::TranslationMode mode() const override {
        return arch::TranslationMode::kNative;
    }
    void on_interval(sim::SimTime, sim::SimTime) override { ++intervals_; }
    arch::WorkProfile prof_{};
    double remaining_;
    std::uint64_t intervals_ = 0;  ///< on-CPU intervals the core gave it
};

struct NativeKitten : ::testing::Test {
    arch::Platform platform{arch::PlatformConfig::pine_a64()};
    KittenKernel kernel{platform, KittenConfig{}};
};

TEST_F(NativeKitten, BootPowersCoresAndTicks) {
    kernel.boot();
    EXPECT_TRUE(kernel.booted());
    EXPECT_EQ(platform.monitor().powered_cores(), 4);
    platform.engine().run_until(platform.engine().clock().from_seconds(1.0));
    // 10 Hz x 4 cores x 1 s, first tick phase-shifted.
    EXPECT_NEAR(static_cast<double>(kernel.stats().ticks), 40.0, 8.0);
}

TEST_F(NativeKitten, RunsAppThreadToCompletion) {
    kernel.boot();
    CountedWork w(1'000'000);
    kernel.add_app_thread(1, &w, "app");
    platform.engine().run_until(platform.engine().clock().from_seconds(0.5));
    EXPECT_EQ(w.remaining_, 0.0);
}

TEST_F(NativeKitten, RoundRobinSharesOneCore) {
    kernel.boot();
    // Two long threads pinned to core 0: RR at tick granularity. (1e12
    // units is hours of simulated work but still has sub-unit float
    // resolution for progress accounting.)
    CountedWork a(1e12), b(1e12);
    kernel.add_app_thread(0, &a, "a");
    kernel.add_app_thread(0, &b, "b");
    platform.engine().run_until(platform.engine().clock().from_seconds(1.0));
    EXPECT_GT(a.intervals_, 2u);
    EXPECT_GT(b.intervals_, 2u);
    // Both made comparable progress.
    const double pa = 1e12 - a.remaining_;
    const double pb = 1e12 - b.remaining_;
    EXPECT_NEAR(pa / (pa + pb), 0.5, 0.15);
}

TEST_F(NativeKitten, BlockAndWake) {
    kernel.boot();
    CountedWork w(1e9);
    KThread& t = kernel.add_app_thread(2, &w, "app");
    kernel.block(t);
    const double before = w.remaining_;
    // kernel.block only marks state; preempt what's running.
    platform.core(2).exec().preempt();
    platform.engine().run_until(platform.engine().clock().from_millis(100));
    EXPECT_EQ(w.remaining_, before);
    kernel.wake(t);
    platform.engine().run_until(platform.engine().clock().from_millis(200));
    EXPECT_LT(w.remaining_, before);
}

TEST_F(NativeKitten, ExitedThreadNeverRunsAgain) {
    kernel.boot();
    CountedWork w(1e12);
    KThread& t = kernel.add_app_thread(3, &w, "app");
    platform.engine().run_until(platform.engine().clock().from_millis(10));
    platform.core(3).exec().preempt();
    kernel.exit_thread(t);
    const double left = w.remaining_;
    platform.engine().run_until(platform.engine().clock().from_millis(300));
    EXPECT_EQ(w.remaining_, left);
    EXPECT_EQ(t.state, KThread::State::kExited);
}

TEST_F(NativeKitten, FindThreadByName) {
    kernel.boot();
    CountedWork w(100);
    kernel.add_app_thread(0, &w, "needle");
    EXPECT_NE(kernel.find_thread("needle"), nullptr);
    EXPECT_EQ(kernel.find_thread("missing"), nullptr);
}

TEST_F(NativeKitten, TicklessConfigProducesNoTicks) {
    arch::Platform p2(arch::PlatformConfig::pine_a64());
    KittenConfig cfg;
    cfg.tick_enabled = false;
    KittenKernel k2(p2, cfg);
    k2.boot();
    p2.engine().run_until(p2.engine().clock().from_seconds(1.0));
    EXPECT_EQ(k2.stats().ticks, 0u);
}

// --- Kitten as the primary VM ---------------------------------------------------

struct PrimaryKitten : ::testing::Test {
    arch::Platform platform{arch::PlatformConfig::pine_a64()};
    std::unique_ptr<hafnium::Spm> spm;
    std::unique_ptr<KittenKernel> kernel;
    std::unique_ptr<KittenGuestOs> guest;

    void SetUp() override {
        hafnium::Manifest m;
        hafnium::VmSpec p;
        p.name = "kitten-primary";
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
        kernel = std::make_unique<KittenKernel>(platform, *spm, KittenConfig{});
        spm->boot();
        kernel->boot();
        guest = std::make_unique<KittenGuestOs>(*spm, *spm->find_vm("compute"));
    }
};

TEST_F(PrimaryKitten, LaunchVmCreatesVcpuProxies) {
    kernel->launch_vm(2);
    int proxies = 0;
    for (const auto& t : kernel->threads()) {
        proxies += t->kind == KThread::Kind::kVcpuProxy ? 1 : 0;
    }
    EXPECT_EQ(proxies, 4);
    EXPECT_NE(kernel->find_thread("compute-vcpu0"), nullptr);
}

TEST_F(PrimaryKitten, GuestWorkRunsThroughVcpuRun) {
    wl::WorkloadSpec spec;
    spec.name = "w";
    spec.nthreads = 4;
    spec.supersteps = 2;
    spec.units_per_thread_step = 100000;
    spec.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(spec);
    w.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < 4; ++i) guest->set_thread(i, &w.thread(i));
    guest->start();
    w.on_release = [&] { guest->wake_runnable_vcpus(); };
    kernel->launch_vm(2);
    platform.engine().run_until(platform.engine().clock().from_seconds(1.0));
    EXPECT_TRUE(w.finished());
    EXPECT_GT(spm->stats().world_switches, 0u);
    EXPECT_GT(spm->vm(2).vcpu(0).runs, 0u);
}

TEST_F(PrimaryKitten, GuestTicksArriveViaVirtualTimer) {
    wl::ParallelWorkload w(wl::spinner_spec(4));
    w.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < 4; ++i) guest->set_thread(i, &w.thread(i));
    guest->start();
    kernel->launch_vm(2);
    platform.engine().run_until(platform.engine().clock().from_seconds(1.0));
    // Guest 10 Hz vtimer on 4 VCPUs for ~1s.
    EXPECT_NEAR(static_cast<double>(guest->stats().ticks), 40.0, 10.0);
    EXPECT_GT(spm->stats().vtimer_fires, 0u);
}

TEST_F(PrimaryKitten, MigrateVcpuMovesProxy) {
    kernel->launch_vm(2);
    hafnium::Vcpu& vcpu = spm->vm(2).vcpu(1);
    EXPECT_EQ(vcpu.assigned_core, 1);
    EXPECT_TRUE(kernel->migrate_vcpu(2, 1, 3));
    EXPECT_EQ(vcpu.assigned_core, 3);
    EXPECT_EQ(kernel->find_thread("compute-vcpu1")->core, 3);
    EXPECT_FALSE(kernel->migrate_vcpu(2, 1, 9));
}

TEST_F(PrimaryKitten, StopVmExitsProxies) {
    kernel->launch_vm(2);
    kernel->stop_vm(2);
    for (const auto& t : kernel->threads()) {
        if (t->kind == KThread::Kind::kVcpuProxy) {
            EXPECT_EQ(t->state, KThread::State::kExited);
        }
    }
}

TEST_F(PrimaryKitten, PrimaryForwardsDeviceIrqsToSuperSecondary) {
    // No super-secondary in this fixture: forwarding is a no-op but the
    // interrupt must still be consumed without crashing.
    platform.irqc().enable_irq(32);
    platform.irqc().set_external_target(32, 0);
    platform.irqc().raise_external(32);
    platform.engine().run_until(platform.engine().clock().from_millis(1));
    EXPECT_EQ(kernel->stats().forwarded_irqs, 0u);
}

TEST_F(PrimaryKitten, BootRequiresBootedSpm) {
    arch::Platform p2(arch::PlatformConfig::pine_a64());
    hafnium::Manifest m;
    hafnium::VmSpec p;
    p.name = "p";
    p.role = hafnium::VmRole::kPrimary;
    p.mem_bytes = 16ull << 20;
    p.vcpu_count = 4;
    m.vms = {p};
    hafnium::Spm s2(p2, m);
    KittenKernel k2(p2, s2, KittenConfig{});
    EXPECT_THROW(k2.boot(), std::logic_error);
}

}  // namespace
}  // namespace hpcsec::kitten
