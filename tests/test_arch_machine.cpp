// Machine-model tests: GIC, generic timer, Core, Executor, monitor/PSCI,
// platform assembly.
#include <gtest/gtest.h>

#include <vector>

#include "arch/core.h"
#include "arch/exec.h"
#include "arch/irq_controller.h"
#include "arch/isa.h"
#include "arch/monitor.h"
#include "arch/platform.h"
#include "arch/timer.h"

namespace hpcsec::arch {
namespace {

// The ARM layout's timer ids, used throughout the fixtures below.
const IrqLayout& arm_irqs() { return IsaOps::get(Isa::kArm).irq; }

// --- IrqController (ARM/Gic backend via the generic interface) ---------------

struct GicFixture : ::testing::Test {
    std::unique_ptr<IrqController> irqc = IsaOps::get(Isa::kArm).make_irq_controller(4);
    IrqController& gic = *irqc;
    std::vector<std::pair<CoreId, int>> signals;

    void SetUp() override {
        gic.set_signal([this](CoreId c) { signals.emplace_back(c, 0); });
    }
};

TEST_F(GicFixture, SpiRoutesToTargetCore) {
    gic.enable_irq(40);
    gic.set_external_target(40, 2);
    gic.raise_external(40);
    ASSERT_EQ(signals.size(), 1u);
    EXPECT_EQ(signals[0].first, 2);
    EXPECT_EQ(gic.ack(2), 40);
}

TEST_F(GicFixture, DisabledIrqNotDeliverable) {
    gic.set_external_target(40, 1);
    gic.raise_external(40);  // not enabled
    EXPECT_FALSE(gic.has_deliverable(1));
    EXPECT_EQ(gic.ack(1), IrqController::kSpurious);
    gic.enable_irq(40);
    EXPECT_TRUE(gic.has_deliverable(1));
    EXPECT_EQ(gic.ack(1), 40);
}

TEST_F(GicFixture, PpiIsPerCore) {
    gic.enable_irq(arm_irqs().phys_timer);
    gic.raise_private(1, arm_irqs().phys_timer);
    EXPECT_TRUE(gic.has_deliverable(1));
    EXPECT_FALSE(gic.has_deliverable(0));
}

TEST_F(GicFixture, SgiTargetsSpecificCore) {
    gic.enable_irq(1);
    gic.send_ipi(3, 1);
    EXPECT_TRUE(gic.has_deliverable(3));
    EXPECT_EQ(gic.ack(3), 1);
}

TEST_F(GicFixture, AckOrderFollowsPriority) {
    gic.enable_irq(40);
    gic.enable_irq(41);
    gic.set_external_target(40, 0);
    gic.set_external_target(41, 0);
    gic.set_priority(41, 0x20);  // GIC: lower value = higher priority
    gic.set_priority(40, 0x80);
    gic.raise_external(40);
    gic.raise_external(41);
    EXPECT_EQ(gic.ack(0), 41);
    EXPECT_EQ(gic.ack(0), 40);
}

TEST_F(GicFixture, EoiClearsActiveAndResignals) {
    gic.enable_irq(40);
    gic.enable_irq(41);
    gic.set_external_target(40, 0);
    gic.set_external_target(41, 0);
    gic.raise_external(40);
    gic.raise_external(41);
    const int first = gic.ack(0);
    signals.clear();
    gic.eoi(0, first);
    EXPECT_EQ(signals.size(), 1u);  // still one pending
}

TEST_F(GicFixture, ClearPendingDropsIrq) {
    gic.enable_irq(40);
    gic.set_external_target(40, 0);
    gic.raise_external(40);
    gic.clear_pending(0, 40);
    EXPECT_EQ(gic.ack(0), IrqController::kSpurious);
}

TEST_F(GicFixture, RejectsBadIds) {
    EXPECT_THROW(gic.raise_external(3), std::invalid_argument);
    EXPECT_THROW(gic.raise_private(0, 40), std::invalid_argument);
    EXPECT_THROW(gic.send_ipi(0, 20), std::invalid_argument);
    EXPECT_THROW(gic.set_external_target(40, 9), std::invalid_argument);
}

// --- GenericTimer -------------------------------------------------------------

struct TimerFixture : ::testing::Test {
    sim::Engine engine;
    std::unique_ptr<IrqController> irqc = IsaOps::get(Isa::kArm).make_irq_controller(2);
    IrqController& gic = *irqc;
    GenericTimer timer{engine, gic, 0, arm_irqs()};
};

TEST_F(TimerFixture, FiresPhysPpiAtDeadline) {
    gic.enable_irq(arm_irqs().phys_timer);
    timer.set_deadline(TimerChannel::kPhys, 1000);
    engine.run_until(999);
    EXPECT_FALSE(gic.has_deliverable(0));
    engine.run_until(1000);
    EXPECT_TRUE(gic.has_deliverable(0));
    EXPECT_EQ(gic.ack(0), arm_irqs().phys_timer);
    EXPECT_EQ(timer.fired_count(TimerChannel::kPhys), 1u);
}

TEST_F(TimerFixture, VirtChannelIsIndependent) {
    gic.enable_irq(arm_irqs().virt_timer);
    timer.set_deadline(TimerChannel::kVirt, 500);
    engine.run_until(500);
    EXPECT_EQ(gic.ack(0), arm_irqs().virt_timer);
    EXPECT_EQ(timer.fired_count(TimerChannel::kPhys), 0u);
}

TEST_F(TimerFixture, CancelPreventsFiring) {
    gic.enable_irq(arm_irqs().phys_timer);
    timer.set_deadline(TimerChannel::kPhys, 1000);
    timer.cancel(TimerChannel::kPhys);
    engine.run_until(2000);
    EXPECT_EQ(timer.fired_count(TimerChannel::kPhys), 0u);
    EXPECT_FALSE(timer.armed(TimerChannel::kPhys));
}

TEST_F(TimerFixture, ReprogramMovesDeadline) {
    gic.enable_irq(arm_irqs().phys_timer);
    timer.set_deadline(TimerChannel::kPhys, 1000);
    timer.set_deadline(TimerChannel::kPhys, 2000);
    engine.run_until(1500);
    EXPECT_EQ(timer.fired_count(TimerChannel::kPhys), 0u);
    engine.run_until(2000);
    EXPECT_EQ(timer.fired_count(TimerChannel::kPhys), 1u);
}

TEST_F(TimerFixture, PastDeadlineFiresImmediately) {
    gic.enable_irq(arm_irqs().phys_timer);
    engine.after(100, [] {});
    engine.run();
    timer.set_deadline(TimerChannel::kPhys, 50);  // already passed
    engine.run();
    EXPECT_EQ(timer.fired_count(TimerChannel::kPhys), 1u);
}

// --- Executor -------------------------------------------------------------------

class FiniteWork : public Runnable {
public:
    explicit FiniteWork(double units, double cycles_per_unit = 1.0) : remaining_(units) {
        profile_.cycles_per_unit = cycles_per_unit;
    }
    [[nodiscard]] std::string_view label() const override { return "work"; }
    [[nodiscard]] double remaining_units() const override { return remaining_; }
    void advance(double units, sim::SimTime) override {
        remaining_ = units >= remaining_ ? 0 : remaining_ - units;
    }
    [[nodiscard]] const WorkProfile& profile() const override { return profile_; }
    [[nodiscard]] TranslationMode mode() const override { return mode_; }
    void on_interval(sim::SimTime s, sim::SimTime e) override {
        intervals.emplace_back(s, e);
    }

    WorkProfile profile_;
    TranslationMode mode_ = TranslationMode::kNative;
    double remaining_;
    std::vector<std::pair<sim::SimTime, sim::SimTime>> intervals;
};

struct ExecFixture : ::testing::Test {
    sim::Engine engine;
    PerfModel perf;
    Executor ex{engine, perf, 0};
};

TEST_F(ExecFixture, RunsToCompletion) {
    FiniteWork w(1000);
    Runnable* completed = nullptr;
    ex.set_on_complete([&](Runnable* r) { completed = r; });
    ex.begin(&w);
    engine.run();
    EXPECT_EQ(completed, &w);
    EXPECT_EQ(w.remaining_, 0.0);
    EXPECT_EQ(engine.now(), 1000u);
    EXPECT_EQ(ex.usage().work, 1000u);
}

TEST_F(ExecFixture, ChargeDelaysStart) {
    FiniteWork w(100);
    ex.charge(500, obs::ProfPath::kSchedule);
    ex.begin(&w);
    engine.run();
    EXPECT_EQ(engine.now(), 600u);
    EXPECT_EQ(ex.usage().overhead, 500u);
    ASSERT_EQ(w.intervals.size(), 1u);
    EXPECT_EQ(w.intervals[0].first, 500u);
}

TEST_F(ExecFixture, ChargesStack) {
    FiniteWork w(100);
    ex.charge(200, obs::ProfPath::kSchedule);
    ex.charge(300, obs::ProfPath::kSchedule);
    ex.begin(&w);
    engine.run();
    EXPECT_EQ(engine.now(), 600u);
}

TEST_F(ExecFixture, PreemptChargesPartialProgress) {
    FiniteWork w(1000);
    ex.begin(&w);
    engine.after(400, [&] {
        Runnable* r = ex.preempt();
        EXPECT_EQ(r, &w);
    });
    engine.run();
    EXPECT_DOUBLE_EQ(w.remaining_, 600.0);
    EXPECT_EQ(ex.usage().work, 400u);
    EXPECT_FALSE(ex.occupied());
}

TEST_F(ExecFixture, PreemptDuringPendingBeginReturnsRunnable) {
    FiniteWork w(100);
    ex.charge(1000, obs::ProfPath::kSchedule);
    ex.begin(&w);
    engine.after(10, [&] { EXPECT_EQ(ex.preempt(), &w); });
    engine.run_until(2000);
    EXPECT_DOUBLE_EQ(w.remaining_, 100.0);  // never started
}

TEST_F(ExecFixture, TransientConsumedBeforeProgress) {
    FiniteWork w(1000);
    ex.add_transient(250);
    ex.begin(&w);
    engine.run();
    EXPECT_EQ(engine.now(), 1250u);
    EXPECT_EQ(ex.usage().transient, 250u);
    EXPECT_EQ(ex.usage().work, 1000u);
}

TEST_F(ExecFixture, PreemptDuringTransientCarriesRemainder) {
    FiniteWork w(1000);
    ex.add_transient(500);
    ex.begin(&w);
    engine.after(200, [&] {
        ex.preempt();           // 200 of the 500-cycle transient consumed
        ex.begin(&w);           // rest carries into this chunk
    });
    engine.run();
    // Total = 500 transient + 1000 work.
    EXPECT_EQ(engine.now(), 1500u);
    EXPECT_DOUBLE_EQ(w.remaining_, 0.0);
}

TEST_F(ExecFixture, TwoStageModePricesNestedWalks) {
    FiniteWork native_w(1000);
    native_w.profile_.mem_refs_per_unit = 1.0;
    native_w.profile_.tlb_miss_rate = 0.5;
    FiniteWork virt_w = native_w;
    virt_w.mode_ = TranslationMode::kTwoStage;

    ex.begin(&native_w);
    engine.run();
    const sim::SimTime native_t = engine.now();

    Executor ex2(engine, perf, 1);
    ex2.begin(&virt_w);
    engine.run();
    const sim::SimTime virt_t = engine.now() - native_t;
    EXPECT_GT(virt_t, native_t);
    // Exact: per-unit native 1 + 0.5*35; two-stage 1 + 0.5*165.
    EXPECT_EQ(native_t, static_cast<sim::SimTime>(1000 * (1 + 0.5 * 35) + 1) - 1);
}

TEST_F(ExecFixture, RunForeverNeverCompletes) {
    FiniteWork w(1e30);
    bool completed = false;
    ex.set_on_complete([&](Runnable*) { completed = true; });
    ex.begin(&w);
    engine.run_until(1'000'000);
    EXPECT_FALSE(completed);
    EXPECT_TRUE(ex.running());
}

TEST_F(ExecFixture, BeginWhileRunningThrows) {
    FiniteWork a(1000), b(10);
    ex.begin(&a);
    EXPECT_THROW(ex.begin(&b), std::logic_error);
    EXPECT_THROW(ex.charge(10, obs::ProfPath::kSchedule), std::logic_error);
}

TEST_F(ExecFixture, RepriceKeepsProgressExact) {
    FiniteWork w(1000);
    ex.begin(&w);
    engine.after(300, [&] { ex.reprice(); });
    engine.run();
    EXPECT_EQ(engine.now(), 1000u);
    EXPECT_DOUBLE_EQ(w.remaining_, 0.0);
}

TEST_F(ExecFixture, IntervalsReportedContiguously) {
    FiniteWork w(1000);
    ex.begin(&w);
    engine.after(400, [&] {
        ex.preempt();
        ex.charge(100, obs::ProfPath::kSchedule);
        ex.begin(&w);
    });
    engine.run();
    ASSERT_EQ(w.intervals.size(), 2u);
    EXPECT_EQ(w.intervals[0], (std::pair<sim::SimTime, sim::SimTime>{0, 400}));
    EXPECT_EQ(w.intervals[1], (std::pair<sim::SimTime, sim::SimTime>{500, 1100}));
}

// --- SecureMonitor / PSCI --------------------------------------------------------

struct MonitorFixture : ::testing::Test {
    sim::Engine engine;
    PerfModel perf;
    std::unique_ptr<IrqController> irqc = IsaOps::get(Isa::kArm).make_irq_controller(4);
    IrqController& gic = *irqc;
    std::vector<std::unique_ptr<Core>> cores;
    std::unique_ptr<SecureMonitor> monitor;

    void SetUp() override {
        std::vector<Core*> ptrs;
        for (int i = 0; i < 4; ++i) {
            cores.push_back(
                std::make_unique<Core>(engine, perf, gic, i, arm_irqs()));
            ptrs.push_back(cores.back().get());
        }
        monitor = std::make_unique<SecureMonitor>(ptrs);
    }
};

TEST_F(MonitorFixture, CpuOnPowersAndEnters) {
    bool entered = false;
    EXPECT_EQ(monitor->cpu_on(2, [&](Core& c) {
        entered = true;
        EXPECT_EQ(c.id(), 2);
        EXPECT_EQ(c.el(), El::kEl2);
    }),
              PsciResult::kSuccess);
    EXPECT_TRUE(entered);
    EXPECT_TRUE(cores[2]->powered());
    EXPECT_EQ(monitor->powered_cores(), 1);
}

TEST_F(MonitorFixture, CpuOnTwiceFails) {
    EXPECT_EQ(monitor->cpu_on(1, nullptr), PsciResult::kSuccess);
    EXPECT_EQ(monitor->cpu_on(1, nullptr), PsciResult::kAlreadyOn);
}

TEST_F(MonitorFixture, CpuOffRequiresPowered) {
    EXPECT_EQ(monitor->cpu_off(1), PsciResult::kDenied);
    monitor->cpu_on(1, nullptr);
    EXPECT_EQ(monitor->cpu_off(1), PsciResult::kSuccess);
    EXPECT_FALSE(cores[1]->powered());
}

TEST_F(MonitorFixture, BadCoreIdRejected) {
    EXPECT_EQ(monitor->cpu_on(9, nullptr), PsciResult::kInvalidParams);
    EXPECT_EQ(monitor->cpu_off(-1), PsciResult::kInvalidParams);
}

TEST_F(MonitorFixture, SmcPsciVersion) {
    monitor->cpu_on(0, nullptr);
    const auto v = monitor->smc(*cores[0],
                                static_cast<std::uint32_t>(PsciFn::kVersion));
    EXPECT_EQ(v, (1 << 16) | 1);
}

TEST_F(MonitorFixture, SmcUnknownReturnsNotSupported) {
    monitor->cpu_on(0, nullptr);
    EXPECT_EQ(monitor->smc(*cores[0], 0xdeadbeef), -1);
}

TEST_F(MonitorFixture, RegisteredSmcServiceDispatches) {
    monitor->cpu_on(0, nullptr);
    monitor->register_smc(0xC2000001, [](Core&, std::uint64_t a, std::uint64_t b) {
        return static_cast<std::int64_t>(a + b);
    });
    EXPECT_EQ(monitor->smc(*cores[0], 0xC2000001, 2, 40), 42);
}

TEST_F(MonitorFixture, SystemOffPowersEverythingDown) {
    for (int i = 0; i < 4; ++i) monitor->cpu_on(i, nullptr);
    monitor->smc(*cores[0], static_cast<std::uint32_t>(PsciFn::kSystemOff));
    EXPECT_EQ(monitor->powered_cores(), 0);
}

TEST_F(MonitorFixture, WorldSwitchChangesCoreWorld) {
    monitor->cpu_on(0, nullptr);
    monitor->switch_world(*cores[0], World::kSecure);
    EXPECT_EQ(cores[0]->world(), World::kSecure);
}

// --- Core IRQ handling --------------------------------------------------------

TEST_F(MonitorFixture, MaskedCoreDefersIrqUntilUnmask) {
    monitor->cpu_on(0, nullptr);
    int taken = -1;
    cores[0]->set_irq_handler([&](int irq) { taken = irq; });
    gic.enable_irq(arm_irqs().phys_timer);
    gic.raise_private(0, arm_irqs().phys_timer);
    EXPECT_EQ(taken, -1);  // reset state: masked
    cores[0]->set_irq_masked(false);
    EXPECT_EQ(taken, arm_irqs().phys_timer);
}

TEST_F(MonitorFixture, PoweredOffCoreIgnoresIrqs) {
    int taken = 0;
    cores[0]->set_irq_handler([&](int) { ++taken; });
    cores[0]->set_irq_masked(false);
    gic.enable_irq(arm_irqs().phys_timer);
    gic.raise_private(0, arm_irqs().phys_timer);
    EXPECT_EQ(taken, 0);
}

TEST_F(MonitorFixture, HandlerDrainsAllPending) {
    monitor->cpu_on(0, nullptr);
    std::vector<int> taken;
    cores[0]->set_irq_handler([&](int irq) { taken.push_back(irq); });
    gic.enable_irq(1);
    gic.enable_irq(2);
    gic.send_ipi(0, 1);
    gic.send_ipi(0, 2);
    cores[0]->set_irq_masked(false);
    EXPECT_EQ(taken.size(), 2u);
}

// --- Platform ----------------------------------------------------------------------

TEST(Platform, PineA64Shape) {
    Platform p(PlatformConfig::pine_a64());
    EXPECT_EQ(p.ncores(), 4);
    EXPECT_EQ(p.mem().ram_bytes(), 2ull << 30);
    EXPECT_EQ(p.engine().clock().hz, 1'100'000'000u);
    EXPECT_TRUE(p.mem().is_mmio(0x01C2'8000));  // uart0
}

TEST(Platform, QemuVirtShape) {
    Platform p(PlatformConfig::qemu_virt());
    EXPECT_EQ(p.mem().ram_bytes(), 4ull << 30);
    EXPECT_TRUE(p.mem().is_mmio(0x0A00'0000));  // virtio-net
}

TEST(Platform, SecureCarveOutCreatesSecureRegion) {
    PlatformConfig cfg = PlatformConfig::pine_a64();
    cfg.secure_ram_bytes = 256ull << 20;
    Platform p(cfg);
    EXPECT_EQ(p.mem().ram_bytes(World::kSecure), 256ull << 20);
    EXPECT_EQ(p.mem().ram_bytes(), 2ull << 30);
}

TEST(Platform, RejectsOversizedSecureCarveOut) {
    PlatformConfig cfg = PlatformConfig::pine_a64();
    cfg.secure_ram_bytes = cfg.ram_bytes;
    EXPECT_THROW(Platform p(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace hpcsec::arch
