// RISC-V H-extension backend tests: Sv39/Sv39x4 table formats, HS/VS
// privilege mapping and the trap round-trip through the SPM, the vstimer
// cadence on the PLIC's virtual-timer line, PLIC claim/complete semantics,
// --isa parsing, and cross-worker determinism of a full RISC-V node.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/irq_controller.h"
#include "arch/isa.h"
#include "arch/platform.h"
#include "arch/timer.h"
#include "core/harness.h"
#include "hafnium/spm.h"

namespace hpcsec {
namespace {

using arch::Isa;
using arch::IsaOps;
using arch::PtFormat;

const IsaOps& riscv() { return IsaOps::get(Isa::kRiscv); }

// --- table formats -----------------------------------------------------------

TEST(Sv39Format, GeometryMatchesTheSpec) {
    const PtFormat s1 = PtFormat::sv39();
    EXPECT_EQ(s1.levels, 3);
    EXPECT_EQ(s1.entries(0), 512u);
    EXPECT_EQ(s1.entries(2), 512u);
    EXPECT_EQ(s1.input_limit(), 1ull << 39);
    // Sv39x4: four concatenated root tables -> 2048 entries, 41-bit GPA.
    const PtFormat s2 = PtFormat::sv39x4();
    EXPECT_EQ(s2.levels, 3);
    EXPECT_EQ(s2.entries(0), 2048u);
    EXPECT_EQ(s2.entries(1), 512u);
    EXPECT_EQ(s2.input_limit(), 1ull << 41);
    // Shared span ladder: gigapage / megapage / page.
    for (const PtFormat* f : {&s1, &s2}) {
        EXPECT_EQ(f->span(0), 1ull << 30);
        EXPECT_EQ(f->span(1), 2ull << 20);
        EXPECT_EQ(f->span(2), arch::kPageSize);
    }
    EXPECT_EQ(riscv().stage2.input_limit(), s2.input_limit());
}

TEST(Sv39Format, GigapageBlockMapsAtTheRootLevel) {
    // Sv39's root-level span is 1 GiB — a legal gigapage, unlike ARM's
    // 512 GiB root span. An aligned 1 GiB mapping must use one root entry.
    arch::PageTable pt(PtFormat::sv39());
    pt.map(1ull << 30, 2ull << 30, 1ull << 30, arch::kPermRW);
    const arch::WalkResult w = pt.walk((1ull << 30) + 0x123000);
    EXPECT_EQ(w.fault, arch::FaultKind::kNone);
    EXPECT_EQ(w.out, (2ull << 30) + 0x123000);
    EXPECT_EQ(w.level, 0);           // terminal at the root
    EXPECT_EQ(pt.node_count(), 1u);  // no deeper tables were built
}

TEST(Sv39Format, WalkBeyondInputRangeFaults) {
    arch::PageTable pt(PtFormat::sv39x4());
    pt.map(0, 0x8000'0000, arch::kPageSize, arch::kPermRW);
    EXPECT_EQ(pt.walk(1ull << 41).fault, arch::FaultKind::kAddressSize);
    EXPECT_THROW(pt.map(1ull << 41, 0, arch::kPageSize, arch::kPermRW),
                 std::logic_error);
}

// --- privilege mapping and the HS/VS trap round-trip -------------------------

TEST(RiscvPrivilege, LadderMapsOntoTheGenericEls) {
    const IsaOps& ops = riscv();
    EXPECT_EQ(ops.isa, Isa::kRiscv);
    EXPECT_STREQ(ops.name, "riscv");
    EXPECT_EQ(ops.user_level, arch::El::kEl0);
    EXPECT_EQ(ops.guest_kernel_level, arch::El::kEl1);
    EXPECT_EQ(ops.hyp_level, arch::El::kEl2);
    EXPECT_EQ(ops.monitor_level, arch::El::kEl3);
    EXPECT_STREQ(ops.priv_name(arch::El::kEl0), "U");
    EXPECT_STREQ(ops.priv_name(arch::El::kEl1), "VS");
    EXPECT_STREQ(ops.priv_name(arch::El::kEl2), "HS");
    EXPECT_STREQ(ops.priv_name(arch::El::kEl3), "M");
}

struct RiscvSpmFixture : ::testing::Test {
    arch::PlatformConfig pcfg = [] {
        auto c = arch::PlatformConfig::pine_a64();
        c.isa = Isa::kRiscv;
        return c;
    }();
    arch::Platform platform{pcfg};
    std::unique_ptr<hafnium::Spm> spm;

    void SetUp() override {
        hafnium::Manifest m;
        hafnium::VmSpec p;
        p.name = "primary";
        p.role = hafnium::VmRole::kPrimary;
        p.mem_bytes = 64ull << 20;
        p.vcpu_count = 4;
        p.image = {1, 2, 3};
        hafnium::VmSpec s;
        s.name = "compute";
        s.role = hafnium::VmRole::kSecondary;
        s.mem_bytes = 32ull << 20;
        s.vcpu_count = 4;
        s.image = {4, 5, 6};
        m.vms = {p, s};
        spm = std::make_unique<hafnium::Spm>(platform, m);
        spm->boot();
    }
};

TEST_F(RiscvSpmFixture, BootLandsHartsInVsMode) {
    EXPECT_EQ(platform.isa_ops().isa, Isa::kRiscv);
    // SBI HSM hart_start enters HS (the hypervisor), which then drops the
    // hart into the guest at VS — same ladder walk as ARM EL2 -> EL1.
    EXPECT_EQ(platform.core(0).el(), platform.isa_ops().guest_kernel_level);
    EXPECT_STREQ(platform.isa_ops().priv_name(platform.core(0).el()), "VS");
}

TEST_F(RiscvSpmFixture, HypercallRoundTripsThroughHs) {
    // A guest hypercall is a VS -> HS trap, handled in the SPM, with a
    // VS-mode return: state must be consistent on both sides of the trip.
    hafnium::Vm& compute = *spm->find_vm("compute");
    const auto virt_timer =
        static_cast<std::uint64_t>(platform.isa_ops().irq.virt_timer);
    const auto res = spm->hypercall(0, compute.id(),
                                    hafnium::Call::kInterruptEnable,
                                    {virt_timer, 1, 0, 0});
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(compute.vcpu(1).vgic.enabled.contains(
        static_cast<int>(virt_timer)));
    EXPECT_EQ(platform.core(0).el(), platform.isa_ops().guest_kernel_level);
    // Guest memory stays reachable through the Sv39x4 stage-2.
    EXPECT_TRUE(spm->vm_write64(compute.id(), 0x1000, 0x5a));
    std::uint64_t v = 0;
    EXPECT_TRUE(spm->vm_read64(compute.id(), 0x1000, v));
    EXPECT_EQ(v, 0x5au);
    EXPECT_EQ(compute.stage2().format().input_limit(), 1ull << 41);
}

// --- vstimer cadence ---------------------------------------------------------

TEST(Vstimer, FiresOnThePlicVirtualTimerLine) {
    sim::Engine engine;
    const auto irqc = riscv().make_irq_controller(1);
    arch::GenericTimer timer(engine, *irqc, 0, riscv().irq);
    irqc->enable_irq(riscv().irq.virt_timer);
    std::vector<int> delivered;
    irqc->set_signal([&](arch::CoreId) {
        delivered.push_back(irqc->ack(0));
        irqc->eoi(0, delivered.back());
    });
    // Reprogram-on-fire, the guest tick pattern: a steady 1000-cycle cadence.
    for (int tick = 1; tick <= 3; ++tick) {
        timer.set_deadline(arch::TimerChannel::kVirt, tick * 1000);
        engine.run_until(tick * 1000);
    }
    ASSERT_EQ(delivered.size(), 3u);
    for (const int irq : delivered) EXPECT_EQ(irq, riscv().irq.virt_timer);
    EXPECT_EQ(timer.fired_count(arch::TimerChannel::kVirt), 3u);
    EXPECT_EQ(timer.fired_count(arch::TimerChannel::kPhys), 0u);
}

// --- PLIC claim semantics ----------------------------------------------------

struct PlicFixture : ::testing::Test {
    std::unique_ptr<arch::IrqController> irqc = riscv().make_irq_controller(2);
    arch::IrqController& plic = *irqc;
};

TEST_F(PlicFixture, ClaimReturnsHighestPriorityThenLowestId) {
    // PLIC arbitration: numerically larger priority wins (the opposite
    // convention to the GIC), ids break ties lowest-first.
    plic.enable_irq(40);
    plic.enable_irq(41);
    plic.enable_irq(42);
    plic.set_external_target(40, 0);
    plic.set_external_target(41, 0);
    plic.set_external_target(42, 0);
    plic.set_priority(41, 7);  // highest
    plic.set_priority(42, 7);  // tie with 41 -> 41 claims first
    plic.raise_external(42);
    plic.raise_external(41);
    plic.raise_external(40);
    EXPECT_EQ(plic.ack(0), 41);
    EXPECT_EQ(plic.ack(0), 42);
    EXPECT_EQ(plic.ack(0), 40);
    EXPECT_EQ(plic.ack(0), arch::IrqController::kSpurious);
}

TEST_F(PlicFixture, UniformPrioritiesClaimLowestIdFirst) {
    // The determinism contract: at default (uniform) priorities both
    // backends deliver pending interrupts in ascending id order, so IRQ
    // interleaving — and therefore every downstream event trace — is
    // ISA-invariant.
    for (const int irq : {50, 34, 47}) {
        plic.enable_irq(irq);
        plic.set_external_target(irq, 1);
        plic.raise_external(irq);
    }
    EXPECT_EQ(plic.ack(1), 34);
    EXPECT_EQ(plic.ack(1), 47);
    EXPECT_EQ(plic.ack(1), 50);
}

TEST_F(PlicFixture, CompleteResignalsWhileSourcesRemainPending) {
    int signals = 0;
    plic.set_signal([&](arch::CoreId) { ++signals; });
    plic.enable_irq(40);
    plic.enable_irq(41);
    plic.set_external_target(40, 0);
    plic.set_external_target(41, 0);
    plic.raise_external(40);
    plic.raise_external(41);
    const int first = plic.ack(0);
    EXPECT_EQ(plic.active_irq(0), first);
    signals = 0;
    plic.eoi(0, first);  // complete: the second source re-signals
    EXPECT_EQ(signals, 1);
    EXPECT_EQ(plic.ack(0), 41);
}

TEST_F(PlicFixture, RangeChecksMirrorTheGicContract) {
    EXPECT_THROW(plic.raise_external(3), std::invalid_argument);
    EXPECT_THROW(plic.raise_private(0, 40), std::invalid_argument);
    EXPECT_THROW(plic.send_ipi(0, 20), std::invalid_argument);
    EXPECT_THROW(plic.set_external_target(40, 9), std::invalid_argument);
}

// --- --isa parsing -----------------------------------------------------------

TEST(ParseIsa, RoundTripsAndRejectsWithValidNames) {
    Isa isa = Isa::kArm;
    std::string error;
    EXPECT_TRUE(arch::parse_isa("riscv", isa, error));
    EXPECT_EQ(isa, Isa::kRiscv);
    EXPECT_TRUE(arch::parse_isa("arm", isa, error));
    EXPECT_EQ(isa, Isa::kArm);
    EXPECT_EQ(arch::to_string(Isa::kArm), "arm");
    EXPECT_EQ(arch::to_string(Isa::kRiscv), "riscv");
    EXPECT_FALSE(arch::parse_isa("x86", isa, error));
    EXPECT_NE(error.find("x86"), std::string::npos);
    EXPECT_NE(error.find("valid: arm, riscv"), std::string::npos);
}

// --- cross-worker determinism of a full RISC-V node --------------------------

TEST(RiscvDeterminism, SameSeedBitIdenticalAcrossJobCounts) {
    // The selfish-detour experiment on a RISC-V node must produce identical
    // results whether trials are fanned out over 1 worker or 8 — same
    // contract the ARM benches already guarantee.
    const std::uint64_t seed = 20211114;
    std::vector<core::SelfishJob> runs;
    for (const auto kind :
         {core::SchedulerKind::kNativeKitten, core::SchedulerKind::kKittenPrimary,
          core::SchedulerKind::kLinuxPrimary}) {
        core::NodeConfig base = core::Harness::default_config(kind, seed);
        base.platform.isa = Isa::kRiscv;
        runs.push_back({kind, 2.0, seed, base});
    }
    const auto serial = core::run_selfish_experiments(runs, 1);
    const auto pooled = core::run_selfish_experiments(runs, 8);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].detours_all_cores, pooled[i].detours_all_cores) << i;
        EXPECT_EQ(serial[i].total_detour_us_all, pooled[i].total_detour_us_all)
            << i;
        EXPECT_EQ(serial[i].max_detour_us, pooled[i].max_detour_us) << i;
        ASSERT_EQ(serial[i].detours.size(), pooled[i].detours.size()) << i;
    }
}

}  // namespace
}  // namespace hpcsec
