// The isolation-invariant auditor (src/check): every rule fires on the
// corruption engineered to violate it, clean runs of all three node
// configurations stay silent, and strict vs sampled modes behave as
// documented in docs/CHECKING.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "arch/platform.h"
#include "check/check.h"
#include "check/corrupt.h"
#include "core/harness.h"
#include "core/node.h"
#include "hafnium/abi.h"
#include "obs/events.h"
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

TEST(CheckClean, StrictKittenRunHasZeroFindings) {
    Harness::Options opt;
    opt.trials = 1;
    opt.measurement_noise = false;
    opt.check_mode = Mode::kStrict;
    Harness h(opt);
    // Strict mode throws on the first violation, so completing is the proof.
    const auto r = h.run_trial(SchedulerKind::kKittenPrimary, small_spec(), 42);
    EXPECT_EQ(r.check_failures, 0u);
    EXPECT_EQ(r.check_report, "");
}

TEST(CheckClean, StrictLinuxRunHasZeroFindings) {
    Harness::Options opt;
    opt.trials = 1;
    opt.measurement_noise = false;
    opt.check_mode = Mode::kStrict;
    Harness h(opt);
    const auto r = h.run_trial(SchedulerKind::kLinuxPrimary, small_spec(), 43);
    EXPECT_EQ(r.check_failures, 0u);
}

TEST(CheckClean, NativeConfigHasNoSpmToAudit) {
    Harness::Options opt;
    opt.trials = 1;
    opt.measurement_noise = false;
    opt.check_mode = Mode::kStrict;
    Harness h(opt);
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
    ASSERT_EQ(node.spm()->audit(), nullptr);
    {
        Auditor scoped(*node.spm(), {Mode::kStrict});
        EXPECT_EQ(node.spm()->audit(), &scoped);
        EXPECT_EQ(scoped.validate(), 0u) << scoped.report();
    }
    EXPECT_EQ(node.spm()->audit(), nullptr);
    EXPECT_NO_THROW(node.run_for(0.05));
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

INSTANTIATE_TEST_SUITE_P(BothIsas, ExactAudit,
                         ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv),
                         [](const ::testing::TestParamInfo<arch::Isa>& info) {
                             return arch::to_string(info.param);
                         });

}  // namespace
}  // namespace hpcsec
