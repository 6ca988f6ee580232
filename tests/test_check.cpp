// The isolation-invariant auditor (src/check): every rule fires on the
// corruption engineered to violate it, clean runs of all three node
// configurations stay silent, and strict vs sampled modes behave as
// documented in docs/CHECKING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "arch/platform.h"
#include "check/check.h"
#include "check/corrupt.h"
#include "core/harness.h"
#include "core/node.h"
#include "hafnium/abi.h"
#include "obs/events.h"
#include "sim/rng.h"
#include "workloads/nas.h"
#include "workloads/workload.h"

namespace hpcsec {
namespace {

using check::Auditor;
using check::CheckViolation;
using check::CorruptionKind;
using check::Mode;
using check::Rule;
using core::Harness;
using core::Node;
using core::NodeConfig;
using core::SchedulerKind;

[[nodiscard]] wl::WorkloadSpec small_spec() {
    wl::WorkloadSpec spec = wl::nas_cg_spec();
    spec.units_per_thread_step /= 10;
    return spec;
}

/// Put `n` spinner threads on the compute VM so VCPUs actually run (and
/// transition) while the caller advances time with run_for.
void start_spinner(Node& node, wl::ParallelWorkload& work, int n) {
    work.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < n; ++i) {
        node.compute_guest()->set_thread(i, &work.thread(i));
    }
    node.compute_guest()->wake_runnable_vcpus();
    for (int i = 0; i < n; ++i) {
        node.spm()->make_vcpu_ready(node.compute_vm()->vcpu(i));
        node.primary_os()->on_vcpu_wake(node.compute_vm()->vcpu(i));
    }
}

// --- state-machine table -----------------------------------------------------

TEST(VcpuTransitions, LegalityTable) {
    using hafnium::VcpuState;
    using hafnium::vcpu_transition_legal;
    // The documented machine: kOff -> kReady -> kRunning <-> kBlocked,
    // kBlocked -> kReady, kAborted terminal, self-transitions no-ops.
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kOff, VcpuState::kReady));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kReady, VcpuState::kRunning));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kReady, VcpuState::kBlocked));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kRunning, VcpuState::kReady));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kRunning, VcpuState::kBlocked));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kBlocked, VcpuState::kReady));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kRunning, VcpuState::kAborted));
    EXPECT_TRUE(vcpu_transition_legal(VcpuState::kOff, VcpuState::kOff));

    EXPECT_FALSE(vcpu_transition_legal(VcpuState::kOff, VcpuState::kRunning));
    EXPECT_FALSE(vcpu_transition_legal(VcpuState::kOff, VcpuState::kBlocked));
    EXPECT_FALSE(vcpu_transition_legal(VcpuState::kBlocked, VcpuState::kRunning));
    EXPECT_FALSE(vcpu_transition_legal(VcpuState::kReady, VcpuState::kOff));
    EXPECT_FALSE(vcpu_transition_legal(VcpuState::kAborted, VcpuState::kReady));
    EXPECT_FALSE(vcpu_transition_legal(VcpuState::kAborted, VcpuState::kRunning));
}

// --- clean runs stay silent --------------------------------------------------

/// One noise-free trial per run_trial, every node under a strict auditor.
Harness strict_harness() {
    Harness::Options opt;
    opt.trials = 1;
    opt.measurement_noise = false;
    opt.config_factory = [](SchedulerKind kind, std::uint64_t seed) {
        NodeConfig cfg = Harness::default_config(kind, seed);
        cfg.check_mode = Mode::kStrict;
        return cfg;
    };
    return Harness(opt);
}

TEST(CheckClean, StrictKittenRunHasZeroFindings) {
    Harness h = strict_harness();
    // Strict mode throws on the first violation, so completing is the proof.
    const auto r = h.run_trial(SchedulerKind::kKittenPrimary, small_spec(), 42);
    EXPECT_EQ(r.check_failures, 0u);
    EXPECT_EQ(r.check_report, "");
}

TEST(CheckClean, StrictLinuxRunHasZeroFindings) {
    Harness h = strict_harness();
    const auto r = h.run_trial(SchedulerKind::kLinuxPrimary, small_spec(), 43);
    EXPECT_EQ(r.check_failures, 0u);
}

TEST(CheckClean, NativeConfigHasNoSpmToAudit) {
    Harness h = strict_harness();
    const auto r = h.run_trial(SchedulerKind::kNativeKitten, small_spec(), 44);
    EXPECT_EQ(r.check_failures, 0u);

    NodeConfig cfg = Harness::default_config(SchedulerKind::kNativeKitten, 44);
    cfg.check_mode = Mode::kStrict;
    Node node(std::move(cfg));
    node.boot();
    EXPECT_EQ(node.auditor(), nullptr);
}

TEST(CheckClean, SecureWorldAndLoginVmStayClean) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 7);
    cfg.secure_compute_vm = true;
    cfg.with_super_secondary = true;
    cfg.check_mode = Mode::kStrict;
    Node node(std::move(cfg));
    node.boot();
    node.run_for(0.2);
    ASSERT_NE(node.auditor(), nullptr);
    EXPECT_EQ(node.auditor()->validate(), 0u);
    EXPECT_TRUE(node.auditor()->failures().empty());
}

// --- every corruption is flagged by its rule ---------------------------------

struct CorruptionCase {
    CorruptionKind kind;
    Rule rule;
};

class CheckCorruption : public ::testing::TestWithParam<CorruptionCase> {
protected:
    void boot(Mode mode) {
        NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 11);
        cfg.check_mode = mode;
        node_ = std::make_unique<Node>(std::move(cfg));
        node_->boot();
        node_->run_for(0.05);  // let the system reach steady state
        ASSERT_NE(node_->auditor(), nullptr);
    }

    std::unique_ptr<Node> node_;
};

TEST_P(CheckCorruption, SampledAuditFlagsIt) {
    boot(Mode::kSampled);
    Auditor& auditor = *node_->auditor();
    ASSERT_EQ(auditor.validate(), 0u) << auditor.report();

    const Rule expected = inject_corruption(*node_->spm(), GetParam().kind);
    EXPECT_EQ(expected, GetParam().rule);
    auditor.validate();
    EXPECT_GE(auditor.count(expected), 1u)
        << "expected a " << to_string(expected)
        << " finding, got:\n" << auditor.report();

    // Findings surface as structured obs events too (category kCheck).
    auto& recorder = node_->platform().recorder();
    if (recorder.enabled(obs::Category::kCheck)) {
        EXPECT_GE(recorder.count(obs::EventType::kCheckFail), 1u);
    }
}

TEST_P(CheckCorruption, FindingsAreDeduplicated) {
    boot(Mode::kSampled);
    Auditor& auditor = *node_->auditor();
    inject_corruption(*node_->spm(), GetParam().kind);
    auditor.validate();
    const std::size_t after_first = auditor.failures().size();
    ASSERT_GE(after_first, 1u);
    EXPECT_EQ(auditor.validate(), 0u);  // same damage, no new findings
    EXPECT_EQ(auditor.failures().size(), after_first);
}

TEST_P(CheckCorruption, StrictModeThrows) {
    boot(Mode::kStrict);
    Auditor& auditor = *node_->auditor();
    if (GetParam().kind == CorruptionKind::kForgedTransition) {
        // Reported by the transition hook at the forged set_state call.
        EXPECT_THROW(inject_corruption(*node_->spm(), GetParam().kind),
                     CheckViolation);
    } else {
        inject_corruption(*node_->spm(), GetParam().kind);
        EXPECT_THROW(auditor.validate(), CheckViolation);
    }
    EXPECT_GE(auditor.count(GetParam().rule), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CheckCorruption,
    ::testing::Values(
        CorruptionCase{CorruptionKind::kRogueStage2Map, Rule::kStage2Ownership},
        CorruptionCase{CorruptionKind::kForgedTransition, Rule::kVcpuTransition},
        CorruptionCase{CorruptionKind::kStrayVgicPending, Rule::kVgicSanity},
        CorruptionCase{CorruptionKind::kSkewedStats, Rule::kAccounting},
        CorruptionCase{CorruptionKind::kWorldMismatch, Rule::kTrustZone}),
    [](const ::testing::TestParamInfo<CorruptionCase>& info) {
        std::string name = to_string(info.param.kind);
        for (char& c : name) {
            if (c == '-') c = '_';
        }
        return name;
    });

// A rogue writable alias of another VM's RAM also violates exclusivity
// (the frame is writable in two stage-2 tables with no covering grant).
TEST(CheckCorruptionExtra, RogueMapAlsoBreaksExclusivity) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 12);
    cfg.check_mode = Mode::kSampled;
    Node node(std::move(cfg));
    node.boot();
    inject_corruption(*node.spm(), CorruptionKind::kRogueStage2Map);
    node.auditor()->validate();
    EXPECT_GE(node.auditor()->count(Rule::kStage2Exclusive), 1u)
        << node.auditor()->report();
}

// --- mode semantics ----------------------------------------------------------

TEST(CheckModes, SampledScansAtThePeriodCadence) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 13);
    cfg.check_mode = Mode::kSampled;
    cfg.check_period = 8;
    Node node(std::move(cfg));
    node.boot();
    wl::ParallelWorkload work(wl::spinner_spec(2));
    start_spinner(node, work, 2);
    node.run_for(0.2);
    const Auditor& auditor = *node.auditor();
    EXPECT_GE(auditor.audits(), 1u);
    EXPECT_GE(auditor.transitions_checked(), 1u);
    // Sampled scans are bounded by the hypercall volume over the period.
    EXPECT_LE(auditor.audits(),
              node.spm()->stats().hypercalls /
                      static_cast<std::uint64_t>(cfg.check_period) +
                  2u);
    EXPECT_TRUE(auditor.failures().empty()) << auditor.report();
}

TEST(CheckModes, SampledAccumulatesInsteadOfThrowing) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 14);
    cfg.check_mode = Mode::kSampled;
    Node node(std::move(cfg));
    node.boot();
    inject_corruption(*node.spm(), CorruptionKind::kStrayVgicPending);
    inject_corruption(*node.spm(), CorruptionKind::kSkewedStats);
    EXPECT_NO_THROW(node.auditor()->validate());
    EXPECT_GE(node.auditor()->failures().size(), 2u);
    // The run can continue after findings in sampled mode.
    EXPECT_NO_THROW(node.run_for(0.05));
}

TEST(CheckModes, MetricsGaugesPublished) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 15);
    cfg.check_mode = Mode::kSampled;
    Node node(std::move(cfg));
    node.boot();
    wl::ParallelWorkload work(wl::spinner_spec(2));
    start_spinner(node, work, 2);
    node.run_for(0.1);
    inject_corruption(*node.spm(), CorruptionKind::kStrayVgicPending);
    node.auditor()->validate();
    const auto snap = node.publish_metrics();
    EXPECT_GE(snap.value_of("check.audits"), 1.0);
    EXPECT_GE(snap.value_of("check.failures"), 1.0);
    EXPECT_GE(snap.value_of("check.transitions"), 1.0);
}

TEST(CheckModes, DetachRestoresUnauditedSpm) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 16);
    Node node(std::move(cfg));
    node.boot();
    ASSERT_TRUE(node.spm()->audit_sinks().empty());
    {
        Auditor scoped(*node.spm(), {Mode::kStrict});
        ASSERT_EQ(node.spm()->audit_sinks().size(), 1u);
        EXPECT_EQ(node.spm()->audit_sinks().front(), &scoped);
        EXPECT_EQ(scoped.validate(), 0u) << scoped.report();
    }
    EXPECT_TRUE(node.spm()->audit_sinks().empty());
    EXPECT_NO_THROW(node.run_for(0.05));
}

// Auditors stack: building and destroying a second one on the same SPM
// leaves the first checking every VCPU transition.
TEST(CheckModes, SecondAuditorLeavesTheFirstAttached) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 16);
    Node node(std::move(cfg));
    node.boot();
    Auditor first(*node.spm(), {Mode::kSampled});
    node.spm()->attach_audit(&first);  // attaching twice is a no-op
    {
        Auditor second(*node.spm(), {Mode::kSampled});
        EXPECT_EQ(node.spm()->audit_sinks().size(), 2u);
    }
    ASSERT_EQ(node.spm()->audit_sinks().size(), 1u);
    EXPECT_EQ(node.spm()->audit_sinks().front(), &first);

    hafnium::Vcpu& vcpu = node.compute_vm()->vcpu(0);
    ASSERT_EQ(vcpu.state(), hafnium::VcpuState::kOff);
    vcpu.set_state(hafnium::VcpuState::kRunning);
    EXPECT_EQ(first.count(Rule::kVcpuTransition), 1u) << first.report();
}

TEST(CheckModes, ToStringCoversEveryEnumerator) {
    EXPECT_STREQ(to_string(Mode::kOff), "off");
    EXPECT_STREQ(to_string(Mode::kSampled), "sampled");
    EXPECT_STREQ(to_string(Mode::kStrict), "strict");
    EXPECT_STREQ(to_string(Rule::kStage2Exclusive), "stage2-exclusive");
    EXPECT_STREQ(to_string(Rule::kAccounting), "accounting");
    EXPECT_STREQ(to_string(CorruptionKind::kRogueStage2Map), "rogue-stage2-map");
}

// Memory sharing through the legitimate FFA path must NOT trip the
// exclusivity rule: the grant covers the overlap.
TEST(CheckGrants, SharedPagesAreNotExclusivityFindings) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 17);
    cfg.check_mode = Mode::kStrict;
    cfg.with_super_secondary = true;  // job-control channel uses FFA sharing
    Node node(std::move(cfg));
    node.boot();
    node.run_for(0.2);  // strict: any violation would have thrown
    ASSERT_NE(node.auditor(), nullptr);
    EXPECT_EQ(node.auditor()->validate(), 0u) << node.auditor()->report();
}

// Stray vGIC ids are reported per VCPU, pending before enabled, each set in
// ascending order, whichever set alone holds them, on both ISAs.
TEST(CheckVgic, StrayPendingAndEnabledIdsAreFlaggedInOrder) {
    for (const arch::Isa isa : {arch::Isa::kArm, arch::Isa::kRiscv}) {
        arch::PlatformConfig config = arch::PlatformConfig::pine_a64();
        config.isa = isa;
        arch::Platform platform(config);
        hafnium::VmSpec primary;
        primary.name = "primary";
        primary.role = hafnium::VmRole::kPrimary;
        primary.mem_bytes = 64ull << 20;
        primary.vcpu_count = 2;
        primary.image = {1};
        hafnium::Manifest manifest;
        manifest.vms = {primary};
        hafnium::Spm spm(platform, std::move(manifest));
        spm.boot();
        Auditor auditor(spm, {Mode::kSampled});
        ASSERT_EQ(auditor.validate(), 0u) << auditor.report();

        hafnium::VGicState& vgic = spm.primary_vm().vcpu(1).vgic;
        vgic.enabled.insert(19);
        vgic.enabled.insert(17);
        ASSERT_EQ(auditor.validate(), 2u) << auditor.report();
        vgic.pending.insert(18);
        ASSERT_EQ(auditor.validate(), 1u) << auditor.report();
        EXPECT_EQ(auditor.report(),
                  "[vgic-sanity] vm=1 vcpu=1: enabled virq 17 is not a routed interrupt id\n"
                  "[vgic-sanity] vm=1 vcpu=1: enabled virq 19 is not a routed interrupt id\n"
                  "[vgic-sanity] vm=1 vcpu=1: pending virq 18 is not a routed interrupt id\n")
            << arch::to_string(isa);
        auditor.clear();
        auditor.validate();
        EXPECT_EQ(auditor.report(),
                  "[vgic-sanity] vm=1 vcpu=1: pending virq 18 is not a routed interrupt id\n"
                  "[vgic-sanity] vm=1 vcpu=1: enabled virq 17 is not a routed interrupt id\n"
                  "[vgic-sanity] vm=1 vcpu=1: enabled virq 19 is not a routed interrupt id\n")
            << arch::to_string(isa);
    }
}

// --- exact ownership and exclusivity ----------------------------------------

/// A bare SPM whose 1 GiB primary sits at the 1 GiB-aligned DRAM base, so
/// its stage-2 identity map is one 1 GiB block, plus one 32 MiB tenant.
/// `secure_ram_bytes` carves a secure region from the top of DRAM.
struct OneBlockSpm {
    arch::Platform platform;
    hafnium::Spm spm;

    explicit OneBlockSpm(arch::Isa isa, std::uint64_t secure_ram_bytes = 0)
        : platform(config(isa, secure_ram_bytes)), spm(platform, manifest()) {
        spm.boot();
    }

    static arch::PlatformConfig config(arch::Isa isa, std::uint64_t secure_ram_bytes) {
        arch::PlatformConfig c = arch::PlatformConfig::pine_a64();
        c.isa = isa;
        c.secure_ram_bytes = secure_ram_bytes;
        return c;
    }

    static hafnium::Manifest manifest() {
        hafnium::VmSpec primary;
        primary.name = "primary";
        primary.role = hafnium::VmRole::kPrimary;
        primary.mem_bytes = 1ull << 30;
        primary.vcpu_count = 4;
        primary.image = {1};
        hafnium::VmSpec tenant;
        tenant.name = "tenant";
        tenant.role = hafnium::VmRole::kSecondary;
        tenant.mem_bytes = 32ull << 20;
        tenant.vcpu_count = 1;
        tenant.image = {2};
        hafnium::Manifest m;
        m.vms = {primary, tenant};
        return m;
    }
};

[[nodiscard]] std::string hex_pa(arch::PhysAddr pa) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(pa));
    return buf;
}

class ExactAudit : public ::testing::TestWithParam<arch::Isa> {};

// One frame re-owned inside a 1 GiB block mapping, with stage-2 untouched:
// every frame of the block is checked, not a stride sample of it.
TEST_P(ExactAudit, ReownedFrameInsideOneGiBBlockIsFound) {
    OneBlockSpm node(GetParam());
    hafnium::Vm& primary = node.spm.primary_vm();
    ASSERT_EQ(primary.mem_base % (1ull << 30), 0u);
    const arch::WalkResult w = node.spm.vm_translate(primary.id(), primary.ipa_base);
    ASSERT_EQ(primary.stage2().format().span(w.level), 1ull << 30);
    {
        Auditor clean(node.spm, {Mode::kSampled});
        ASSERT_EQ(clean.validate(), 0u) << clean.report();
    }

    const arch::PhysAddr stolen = primary.mem_base + 37 * arch::kPageSize;
    node.platform.mem().set_owner(stolen, 1, node.spm.find_vm("tenant")->id());
    {
        Auditor sampled(node.spm, {Mode::kSampled});
        sampled.validate();
        ASSERT_EQ(sampled.count(Rule::kStage2Ownership), 1u) << sampled.report();
        EXPECT_NE(sampled.report().find("maps PA " + hex_pa(stolen) + " "),
                  std::string::npos)
            << sampled.report();
    }
    Auditor strict(node.spm, {Mode::kStrict});
    EXPECT_THROW(strict.validate(), CheckViolation);
}

// The same re-owned frame under one long-lived auditor: the primary's table
// does not change, so the second audit reuses the block's run, and it must
// still check that run against the memory map that changed under it.
TEST_P(ExactAudit, ReownedFrameUnderAWarmAuditorIsFound) {
    OneBlockSpm node(GetParam());
    const hafnium::Vm& primary = node.spm.primary_vm();
    const std::uint64_t generation = primary.stage2().generation();
    Auditor auditor(node.spm, {Mode::kSampled});
    ASSERT_EQ(auditor.validate(), 0u) << auditor.report();

    const arch::PhysAddr stolen = primary.mem_base + 37 * arch::kPageSize;
    node.platform.mem().set_owner(stolen, 1, node.spm.find_vm("tenant")->id());
    EXPECT_EQ(auditor.validate(), 1u) << auditor.report();
    EXPECT_EQ(auditor.count(Rule::kStage2Ownership), 1u) << auditor.report();
    EXPECT_NE(auditor.report().find("maps PA " + hex_pa(stolen) + " "), std::string::npos)
        << auditor.report();
    EXPECT_EQ(primary.stage2().generation(), generation);
}

// A writable overlap that starts inside a grant and runs past its end: the
// grant excuses only its own frames, so the first frame after it is flagged.
TEST_P(ExactAudit, OverlapRunningPastItsGrantIsFlagged) {
    OneBlockSpm node(GetParam());
    const arch::VmId tenant = node.spm.find_vm("tenant")->id();
    const arch::IpaAddr own = 0x10'0000;
    ASSERT_TRUE(
        hf::mem_share(node.spm, 0, tenant, arch::kPrimaryVmId, own, 2, 0xA000'0000).ok());
    const arch::PhysAddr pa = node.spm.vm_translate(tenant, own).out;
    Auditor auditor(node.spm, {Mode::kSampled});
    ASSERT_EQ(auditor.validate(), 0u) << auditor.report();

    check::CorruptionAccess::map_rogue_window(node.spm, arch::kPrimaryVmId,
                                              pa + arch::kPageSize, 4);
    auditor.validate();
    EXPECT_EQ(auditor.count(Rule::kStage2Exclusive), 1u) << auditor.report();
    EXPECT_NE(auditor.report().find("PA " + hex_pa(pa + 2 * arch::kPageSize) +
                                    " writable"),
              std::string::npos)
        << auditor.report();
}

// A rogue run that starts on the unbacked page below DRAM and continues into
// the primary's RAM. The unbacked piece ends at the next region's base, so
// the primary's frame is still checked for ownership.
TEST_P(ExactAudit, RunFromUnbackedPaIntoRamIsCheckedOnBothSides) {
    OneBlockSpm node(GetParam());
    const hafnium::Vm& primary = node.spm.primary_vm();
    const arch::PhysAddr below = primary.mem_base - arch::kPageSize;
    ASSERT_EQ(node.platform.mem().find_region(below), nullptr);
    check::CorruptionAccess::map_rogue_window(node.spm, node.spm.find_vm("tenant")->id(),
                                              below, 2);
    Auditor auditor(node.spm, {Mode::kSampled});
    auditor.validate();
    const std::string report = auditor.report();
    EXPECT_NE(report.find("maps unbacked PA " + hex_pa(below) + " "), std::string::npos)
        << report;
    EXPECT_NE(report.find("maps PA " + hex_pa(primary.mem_base) + " owned by vm " +
                          std::to_string(primary.id()) + " without a grant"),
              std::string::npos)
        << report;
}

// A normal-world rogue run whose PA crosses from dram-ns into dram-secure:
// the piece past the region end is checked against the secure region.
TEST_P(ExactAudit, RunCrossingIntoSecureRamIsATrustZoneFinding) {
    OneBlockSpm node(GetParam(), /*secure_ram_bytes=*/128ull << 20);
    const arch::MemRegion* secure = nullptr;
    for (const arch::MemRegion& r : node.platform.mem().regions()) {
        if (r.kind == arch::RegionKind::kRam && r.world == arch::World::kSecure) {
            secure = &r;
        }
    }
    ASSERT_NE(secure, nullptr);
    ASSERT_NE(node.platform.mem().find_region(secure->base - arch::kPageSize), nullptr);
    check::CorruptionAccess::map_rogue_window(node.spm, node.spm.find_vm("tenant")->id(),
                                              secure->base - arch::kPageSize, 2);
    Auditor auditor(node.spm, {Mode::kSampled});
    auditor.validate();
    EXPECT_GE(auditor.count(Rule::kTrustZone), 1u) << auditor.report();
    EXPECT_NE(auditor.report().find("normal-world VM maps secure RAM at PA " +
                                    hex_pa(secure->base)),
              std::string::npos)
        << auditor.report();
}

// A grant revoked with no table change near the frames it covered: the
// borrower's grant window was unmapped before, and a rogue window of the
// borrower's maps the page below the grant and its three pages. The revoked
// grant's range starts inside the rogue window's owner run and inside its
// overlap with the owner's RAM, and alone must make a warm auditor re-check
// both. (The sampled auditors' period keeps them from auditing inside the
// hypercall, so the next audit is the one that sees the change.)
TEST_P(ExactAudit, GrantRevokedUnderAnUntouchedWindowIsFound) {
    constexpr std::uint64_t kPage = arch::kPageSize;
    OneBlockSpm node(GetParam());
    const arch::VmId tenant = node.spm.find_vm("tenant")->id();
    const arch::IpaAddr own = 0x10'0000;
    const arch::IpaAddr window = 0xA000'0000;
    ASSERT_TRUE(hf::mem_share(node.spm, 0, tenant, arch::kPrimaryVmId, own - kPage, 1,
                              window)
                    .ok());
    ASSERT_TRUE(hf::mem_share(node.spm, 0, tenant, arch::kPrimaryVmId, own, 3,
                              window + kPage)
                    .ok());
    const arch::PhysAddr pa = node.spm.vm_translate(tenant, own).out;
    node.spm.primary_vm().stage2().unmap(window + kPage, 3 * kPage);
    check::CorruptionAccess::map_rogue_window(node.spm, arch::kPrimaryVmId, pa - kPage,
                                              4);
    Auditor warm(node.spm, {Mode::kSampled});
    ASSERT_EQ(warm.validate(), 0u) << warm.report();

    ASSERT_TRUE(hf::mem_reclaim(node.spm, 0, tenant, arch::kPrimaryVmId, own).ok());
    warm.validate();
    Auditor fresh(node.spm, {Mode::kSampled});
    fresh.validate();
    EXPECT_EQ(warm.report(), fresh.report());
    EXPECT_EQ(warm.full_scans(), 1u);
    EXPECT_NE(warm.report().find("maps PA " + hex_pa(pa) + " owned by vm " +
                                 std::to_string(tenant) + " without a grant"),
              std::string::npos)
        << warm.report();
    EXPECT_NE(warm.report().find("PA " + hex_pa(pa) + " writable"), std::string::npos)
        << warm.report();
}

// The owner's page under a live grant, remapped to another frame with no
// call: the grant now covers other frames, and a rogue window of the
// borrower's onto the last of the old ones, clear of both images of the
// remapped page, loses its cover. A warm auditor must resolve the grant
// again and re-check what it covered before.
TEST_P(ExactAudit, GrantWhoseOwnerPageMovedIsResolvedAgain) {
    constexpr std::uint64_t kPage = arch::kPageSize;
    OneBlockSpm node(GetParam());
    hafnium::Vm& tenant = *node.spm.find_vm("tenant");
    const arch::IpaAddr own = 0x10'0000;
    const arch::IpaAddr window = 0xA000'0000;
    ASSERT_TRUE(
        hf::mem_share(node.spm, 0, tenant.id(), arch::kPrimaryVmId, own, 3, window).ok());
    const arch::PhysAddr pa = node.spm.vm_translate(tenant.id(), own).out;
    node.spm.primary_vm().stage2().unmap(window, 3 * kPage);
    check::CorruptionAccess::map_rogue_window(node.spm, arch::kPrimaryVmId,
                                              pa + 2 * kPage, 1);
    Auditor warm(node.spm, {Mode::kSampled});
    ASSERT_EQ(warm.validate(), 0u) << warm.report();

    tenant.stage2().unmap(own, kPage);
    tenant.stage2().map(own, pa - 2 * kPage, kPage, arch::kPermRW);
    warm.validate();
    Auditor fresh(node.spm, {Mode::kSampled});
    fresh.validate();
    EXPECT_EQ(warm.report(), fresh.report());
    EXPECT_EQ(warm.full_scans(), 1u);
    EXPECT_NE(warm.report().find("maps PA " + hex_pa(pa + 2 * kPage) + " owned by vm " +
                                 std::to_string(tenant.id()) + " without a grant"),
              std::string::npos)
        << warm.report();
}

INSTANTIATE_TEST_SUITE_P(BothIsas, ExactAudit,
                         ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv),
                         [](const ::testing::TestParamInfo<arch::Isa>& info) {
                             return arch::to_string(info.param);
                         });

// --- cached stage-2 runs ----------------------------------------------------

/// A primary and three tenants, the last in the secure world, on either ISA.
class WarmAudit : public ::testing::TestWithParam<std::tuple<std::uint64_t, arch::Isa>> {
protected:
    static hafnium::Manifest manifest() {
        hafnium::Manifest m;
        hafnium::VmSpec primary;
        primary.name = "primary";
        primary.role = hafnium::VmRole::kPrimary;
        primary.mem_bytes = 64ull << 20;
        primary.vcpu_count = 4;
        primary.image = {1};
        m.vms.push_back(primary);
        for (std::uint8_t i = 0; i < 3; ++i) {
            hafnium::VmSpec tenant;
            tenant.name = "tenant" + std::to_string(i);
            tenant.role = hafnium::VmRole::kSecondary;
            tenant.mem_bytes = 32ull << 20;
            tenant.vcpu_count = 2;
            tenant.image = {static_cast<std::uint8_t>(2 + i)};
            tenant.world = i == 2 ? arch::World::kSecure : arch::World::kNonSecure;
            m.vms.push_back(tenant);
        }
        return m;
    }

    arch::Platform platform{OneBlockSpm::config(std::get<1>(GetParam()), 128ull << 20)};
    hafnium::Spm spm{platform, manifest()};
};

// Long-lived auditors, which re-check only the units the changes since
// their last audit touched or that failed at it, must report exactly what
// freshly built ones report, after every step of a generated sequence: FF-A
// share, lend, donate and reclaim calls between any two VMs, destroy and
// re-create, and direct changes that no hypercall makes (rogue windows,
// protect, re-owned, freed and allocated frames under mapped runs, and
// bursts of five changes, one more than either change log holds), which
// leave findings for them to agree on. A sampled auditor must report the
// same findings in the same order; a strict twin must throw at the same
// steps with the same text.
TEST_P(WarmAudit, LongLivedAuditorReportsWhatAFreshOneReports) {
    constexpr int kSteps = 240;
    constexpr std::uint64_t kPage = arch::kPageSize;
    constexpr arch::IpaAddr kHole = 0x10'0000'0000ull;  // above every RAM window
    constexpr hafnium::Call kSends[] = {hafnium::Call::kMemShare,
                                        hafnium::Call::kMemLend,
                                        hafnium::Call::kMemDonate};
    constexpr std::uint8_t kPerms[] = {arch::kPermNone, arch::kPermR, arch::kPermRW,
                                       arch::kPermRWX};
    spm.boot();
    arch::MemoryMap& mem = platform.mem();
    sim::Rng rng(std::get<0>(GetParam()) ^ 0xca5e);
    // The strict twin audits only when the test asks, so a violation never
    // throws out of a step's hypercall.
    Auditor strict(spm, {Mode::kStrict});
    spm.detach_interceptor(&strict);
    Auditor warm(spm, {Mode::kSampled, /*period=*/1, /*event_period=*/0});
    const auto thrown = [](Auditor& auditor) -> std::string {
        try {
            auditor.validate();
        } catch (const CheckViolation& e) {
            return e.what();
        }
        return "";
    };
    // The first audit scans everything; one with nothing changed does not.
    ASSERT_EQ(warm.validate(), 0u) << warm.report();
    ASSERT_EQ(thrown(strict), "");
    ASSERT_EQ(warm.validate(), 0u);
    ASSERT_EQ(thrown(strict), "");
    ASSERT_EQ(warm.full_scans(), 1u);
    ASSERT_EQ(strict.full_scans(), 1u);

    arch::IpaAddr next_hole = kHole;
    std::size_t findings = 0;
    std::size_t incremental = 0;
    std::size_t table_overflows = 0;
    std::size_t owner_overflows = 0;
    std::size_t after_throw = 0;
    std::size_t strict_incremental = 0;
    bool threw = false;

    const auto live_vm = [&]() -> hafnium::Vm& {
        std::vector<arch::VmId> live;
        for (arch::VmId id = 1; id <= static_cast<arch::VmId>(spm.vm_count()); ++id) {
            if (!spm.vm(id).destroyed) live.push_back(id);
        }
        return spm.vm(live[rng.next_below(live.size())]);
    };
    // A page of `vm`'s RAM window, or one just past it.
    const auto page_of = [&rng](const hafnium::Vm& vm) {
        return vm.ipa_base + rng.next_below(vm.mem_bytes() / kPage + 2) * kPage;
    };
    // The lowest free frame of non-secure RAM: the first that alloc_frames
    // hands out.
    const auto first_free = [&mem] {
        arch::PhysAddr found = ~arch::PhysAddr{0};
        for (const arch::MemRegion& r : mem.regions()) {
            if (r.kind != arch::RegionKind::kRam || r.world != arch::World::kNonSecure) {
                continue;
            }
            mem.for_each_owner_run(r.base, r.size,
                                   [&found](arch::PhysAddr pa, std::uint64_t,
                                            const arch::FrameOwner& owner) {
                                       if (!owner.allocated) found = std::min(found, pa);
                                   });
        }
        return found;
    };

    for (int step = 0; step < kSteps; ++step) {
        hafnium::Vm& vm = live_vm();
        hafnium::Vm& other = live_vm();
        // The first third makes only the calls the SPM checks, which leave
        // no findings, so the strict twin audits incrementally up to the
        // first direct change that leaves one.
        const std::uint64_t op = rng.next_below(step < kSteps / 3 ? 7 : 13);
        std::string what;
        std::size_t* overflow = nullptr;
        if (op < 4) {
            const hafnium::Call call = kSends[rng.next_below(3)];
            const arch::IpaAddr window =
                rng.next_below(2) == 0 ? next_hole : page_of(other);
            next_hole += 4 * kPage;
            what = hafnium::to_string(call);
            (void)spm.hypercall(0, vm.id(), call,
                                {other.id(), page_of(vm), 1 + rng.next_below(3), window});
        } else if (op < 6) {
            what = "reclaim";
            std::vector<hafnium::Spm::ShareGrant> grants(spm.grants().begin(),
                                                         spm.grants().end());
            if (!grants.empty()) {
                const hafnium::Spm::ShareGrant& g = grants[rng.next_below(grants.size())];
                (void)spm.hypercall(0, g.owner, hafnium::Call::kMemReclaim,
                                    {g.borrower, g.owner_ipa, 0, 0});
            }
        } else if (op == 6 && vm.role() == hafnium::VmRole::kSecondary) {
            what = "destroy and re-create " + vm.name();
            const hafnium::VmSpec spec = vm.spec();
            spm.destroy_vm(vm.id());
            (void)spm.create_vm(spec);
        } else if (op == 7) {
            // A rogue window past the VM's RAM onto a frame of `other` or
            // onto the first free frames, or the window's removal when one
            // is mapped there.
            const arch::IpaAddr window = vm.ipa_base + vm.mem_bytes();
            const auto mapped = [&vm](arch::IpaAddr ipa) {
                return vm.stage2().walk(ipa).fault == arch::FaultKind::kNone;
            };
            if (mapped(window) || mapped(window + kPage)) {
                what = "unmap the window past " + vm.name();
                vm.stage2().unmap(window, 2 * kPage);
            } else {
                what = "rogue window from " + vm.name();
                const arch::PhysAddr target =
                    rng.next_below(2) == 0
                        ? first_free()
                        : other.mem_base +
                              rng.next_below(other.mem_bytes() / kPage) * kPage;
                check::CorruptionAccess::map_rogue_window(spm, vm.id(), target, 2);
            }
        } else if (op == 11) {
            // The first free frames go to `other`: under a rogue window onto
            // them, the mapping's owner changes with no table change.
            what = "alloc frames for " + other.name();
            (void)mem.alloc_frames(1 + rng.next_below(2), other.id(),
                                   arch::World::kNonSecure);
        } else {
            // A mapped page of the VM's: change its perms directly, re-own
            // or free its frame, or make five such changes at once.
            const arch::IpaAddr ipa = page_of(vm);
            const arch::WalkResult w = vm.stage2().walk(ipa);
            if (w.fault != arch::FaultKind::kNone) continue;
            const bool allocated = mem.owner_of(w.out).has_value();
            if (op == 8) {
                what = "protect in " + vm.name();
                vm.stage2().protect(ipa, kPage, kPerms[rng.next_below(4)]);
            } else if (op == 9 && allocated) {
                what = "re-own a frame of " + vm.name();
                mem.set_owner(w.out, 1, other.id());
            } else if (op == 10 && allocated) {
                what = "free a frame " + vm.name() + " maps";
                mem.free_frames(w.out, 1);
            } else if (op == 12 && rng.next_below(2) == 0) {
                what = "protect five times in " + vm.name();
                overflow = &table_overflows;
                for (std::uint64_t k = 0; k <= arch::PageTable::kChangeLog; ++k) {
                    vm.stage2().protect(ipa, kPage, kPerms[rng.next_below(4)]);
                }
            } else if (op == 12 && allocated) {
                what = "re-own a frame of " + vm.name() + " five times";
                overflow = &owner_overflows;
                for (std::uint64_t k = 0; k <= arch::MemoryMap::kChangeLog; ++k) {
                    mem.set_owner(w.out, 1, k % 2 == 0 ? other.id() : vm.id());
                }
            }
        }

        const std::uint64_t warm_full = warm.full_scans();
        warm.clear();
        warm.validate();
        Auditor cold(spm, {Mode::kSampled, 1, 0});
        cold.validate();
        ASSERT_EQ(warm.report(), cold.report()) << "step " << step << ": " << what;
        findings += cold.failures().size();
        const bool warm_was_full = warm.full_scans() != warm_full;
        if (overflow != nullptr) {
            ASSERT_TRUE(warm_was_full) << "step " << step << ": " << what;
            ++*overflow;
        } else if (!warm_was_full) {
            ++incremental;
        }

        const std::uint64_t strict_full = strict.full_scans();
        strict.clear();
        const std::string twin = thrown(strict);
        std::string fresh_text;
        {
            Auditor fresh(spm, {Mode::kStrict});
            fresh_text = thrown(fresh);
        }
        ASSERT_EQ(twin, fresh_text) << "step " << step << ": " << what;
        if (threw) {
            ASSERT_NE(strict.full_scans(), strict_full)
                << "step " << step << ": " << what;
            ++after_throw;
        } else if (strict.full_scans() == strict_full) {
            ++strict_incremental;
        }
        threw = !twin.empty();
    }
    // The direct changes must have given the auditors something to agree
    // on, and the incremental path and each fallback must have run.
    EXPECT_GT(findings, 0u);
    EXPECT_GT(incremental, 0u);
    EXPECT_GT(strict_incremental, 0u);
    EXPECT_GT(table_overflows, 0u);
    EXPECT_GT(owner_overflows, 0u);
    EXPECT_GT(after_throw, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndIsas, WarmAudit,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, arch::Isa>>& info) {
        return std::string(arch::to_string(std::get<1>(info.param))) + "_seed" +
               std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace hpcsec
