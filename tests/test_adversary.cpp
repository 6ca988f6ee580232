// Memory-integrity tagging and the adversarial attack suite: HDFI-style
// one-bit frame tags (detect), the resil::ContainmentEngine pipeline
// (contain → recover), and the three ported HDFI attack shapes — each must
// be defeated end to end while the node keeps serving its other
// partitions, deterministically.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "arch/isa.h"
#include "arch/platform.h"
#include "check/corrupt.h"
#include "core/harness.h"
#include "core/node.h"
#include "crypto/sha256.h"
#include "hafnium/spm.h"
#include "resil/contain.h"
#include "workloads/attack.h"
#include "workloads/randomaccess.h"

namespace hpcsec {
namespace {

using core::Harness;
using core::Node;
using core::NodeConfig;
using core::SchedulerKind;

// --- SPM-level detection and recovery ----------------------------------------

struct SpmTagFixture : ::testing::Test {
    arch::Platform platform{arch::PlatformConfig::pine_a64()};
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

    arch::VmId compute_id() { return spm->find_vm("compute")->id(); }
};

TEST_F(SpmTagFixture, ProtectCriticalStateTagsEveryRegionOnce) {
    spm->protect_critical_state();
    EXPECT_TRUE(spm->critical_armed());
    for (const char* name : {"stage2:primary", "stage2:compute",
                             "attestation-log", "lamport-keys", "manifest"}) {
        const auto* r = spm->find_critical(name);
        ASSERT_NE(r, nullptr) << name;
        EXPECT_TRUE(platform.mem().integrity_tagged(r->base)) << name;
        EXPECT_FALSE(r->embargoed) << name;
    }
    const std::size_t n = spm->critical_regions().size();
    spm->protect_critical_state();  // idempotent
    EXPECT_EQ(spm->critical_regions().size(), n);
}

TEST_F(SpmTagFixture, RogueWindowAccessDeniedReportedAndAttributed) {
    spm->protect_critical_state();
    const auto* keys = spm->find_critical("lamport-keys");
    ASSERT_NE(keys, nullptr);
    const arch::IpaAddr window =
        check::CorruptionAccess::map_rogue_window(*spm, compute_id(), keys->base);

    hafnium::Spm::TagViolation seen;
    spm->tag_violation_hook = [&seen](const hafnium::Spm::TagViolation& v) {
        seen = v;
    };
    // The forged write is denied, counted, and attributed to region+offender.
    EXPECT_FALSE(spm->vm_write64(compute_id(), window, 0xbad));
    EXPECT_EQ(spm->stats().tag_violations, 1u);
    EXPECT_EQ(seen.offender, compute_id());
    EXPECT_EQ(seen.region, "lamport-keys");
    EXPECT_EQ(seen.access, arch::Access::kWrite);
    EXPECT_EQ(seen.pa, keys->base);
    // The over-read is denied too, and leaks nothing.
    std::uint64_t leak = 0xdead;
    EXPECT_FALSE(spm->vm_read64(compute_id(), window, leak));
    EXPECT_EQ(leak, 0xdeadu);
    EXPECT_EQ(spm->stats().tag_violations, 2u);
    // Ordinary guest traffic is untouched by the armed tags.
    EXPECT_TRUE(spm->vm_write64(compute_id(), 0x1000, 0x5a));
    EXPECT_EQ(spm->stats().tag_violations, 2u);
}

TEST_F(SpmTagFixture, VmsCreatedAfterArmingAreTaggedFromBirth) {
    spm->protect_critical_state();
    hafnium::VmSpec s;
    s.name = "late";
    s.role = hafnium::VmRole::kSecondary;
    s.mem_bytes = 4ull << 20;
    s.vcpu_count = 1;
    s.image = {9};
    spm->create_vm(s);
    EXPECT_NE(spm->find_critical("stage2:late"), nullptr);
}

TEST_F(SpmTagFixture, ReverifyPassesWhenTheCheckFiredBeforeAnyByteChanged) {
    spm->protect_critical_state();
    const arch::IpaAddr window = check::CorruptionAccess::map_rogue_window(
        *spm, compute_id(), spm->find_critical("lamport-keys")->base);
    EXPECT_FALSE(spm->vm_write64(compute_id(), window, 0xbad));
    // The denial means nothing landed: re-measurement matches the tag-time
    // hash and the region keeps serving.
    EXPECT_TRUE(spm->reverify_critical("lamport-keys"));
    EXPECT_FALSE(spm->find_critical("lamport-keys")->embargoed);
}

TEST_F(SpmTagFixture, CorruptedRegionIsEmbargoedAndNeverFreed) {
    spm->protect_critical_state();
    const auto* region = spm->find_critical("stage2:compute");
    // Model damage the tag check could not have blocked (a physical fault /
    // in-place flip): a raw hypervisor-path store bypasses guest checks.
    platform.mem().write64(region->base + 8, 0x41414141, arch::World::kSecure);
    EXPECT_FALSE(spm->reverify_critical("stage2:compute"));
    EXPECT_TRUE(spm->find_critical("stage2:compute")->embargoed);
    // Embargoed frames are withheld forever: tearing down the VM releases
    // every clean region, but this one (and its tag) must survive so the
    // allocator can never hand the frames out again.
    const arch::PhysAddr base = region->base;
    spm->destroy_vm(compute_id());
    ASSERT_NE(spm->find_critical("stage2:compute"), nullptr);
    EXPECT_TRUE(spm->find_critical("stage2:compute")->embargoed);
    EXPECT_TRUE(platform.mem().integrity_tagged(base));
}

TEST_F(SpmTagFixture, CleanRegionIsReleasedWithItsVm) {
    spm->protect_critical_state();
    const arch::PhysAddr base = spm->find_critical("stage2:compute")->base;
    spm->destroy_vm(compute_id());
    EXPECT_EQ(spm->find_critical("stage2:compute"), nullptr);
    EXPECT_FALSE(platform.mem().integrity_tagged(base));
}

// --- satellite: destroy_vm revokes grants before frame reclaim ---------------

TEST_F(SpmTagFixture, DestroyVmRevokesOutboundGrantBeforeReclaim) {
    using hafnium::Call;
    const arch::VmId compute = compute_id();
    const arch::IpaAddr own = 0x10000;
    const arch::IpaAddr borrower_ipa = 0x5000'0000;
    ASSERT_TRUE(spm->vm_write64(compute, own, 0x77));
    ASSERT_TRUE(
        spm->hypercall(0, compute, Call::kMemShare, {1, own, 2, borrower_ipa})
            .ok());
    const std::uint64_t revokes = spm->stats().mem_revokes;

    spm->destroy_vm(compute);

    // The grant died with the owner — before the frames went back to the
    // allocator, so the borrower's window never dangled onto free memory.
    EXPECT_TRUE(spm->grants().empty());
    EXPECT_EQ(spm->stats().mem_revokes, revokes + 1);
    std::uint64_t v = 0;
    EXPECT_FALSE(spm->vm_read64(1, borrower_ipa, v));
}

TEST_F(SpmTagFixture, DestroyedBorrowerOfALendRestoresOwnerAccess) {
    using hafnium::Call;
    hafnium::VmSpec s;
    s.name = "borrower";
    s.role = hafnium::VmRole::kSecondary;
    s.mem_bytes = 4ull << 20;
    s.vcpu_count = 1;
    s.image = {9};
    const arch::VmId borrower = spm->create_vm(s);
    const arch::VmId compute = compute_id();
    const arch::IpaAddr own = 0x20000;
    ASSERT_TRUE(spm->vm_write64(compute, own, 0x99));
    ASSERT_TRUE(spm->hypercall(0, compute, Call::kMemLend,
                               {borrower, own, 1, 0x5000'0000})
                    .ok());
    // Lend revoked the owner's access for the duration.
    EXPECT_FALSE(spm->vm_write64(compute, own, 0x11));

    spm->destroy_vm(borrower);

    EXPECT_TRUE(spm->grants().empty());
    EXPECT_TRUE(spm->vm_write64(compute, own, 0x11));
}

// --- the full pipeline: every attack shape defeated end to end ---------------

// Every attack shape must be defeated on both machine-model backends.
class AttackDefeated
    : public ::testing::TestWithParam<std::tuple<wl::AttackKind, arch::Isa>> {};

TEST_P(AttackDefeated, DetectContainRecoverLeavesNodeServing) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 83);
    cfg.platform.isa = std::get<1>(GetParam());
    cfg.protect_critical = true;
    Node node(cfg);
    node.boot();

    hafnium::VmSpec aspec;
    aspec.name = "attacker";
    aspec.role = hafnium::VmRole::kSecondary;
    aspec.mem_bytes = 4ull << 20;
    aspec.vcpu_count = 1;
    aspec.image = Node::make_image("attacker");
    const arch::VmId attacker = node.spm()->create_vm(aspec);

    resil::ContainmentEngine contain(node);
    contain.arm();
    wl::AttackConfig ac;
    ac.kind = std::get<0>(GetParam());
    wl::AdversaryWorkload attack(*node.spm(), attacker, ac);
    attack.start();
    node.run_for(1.0);

    // Detect: the exploit reached the tagged frame and got nothing.
    EXPECT_TRUE(attack.done());
    EXPECT_TRUE(attack.defeated()) << to_string(std::get<0>(GetParam()));
    EXPECT_GT(node.spm()->stats().tag_violations, 0u);
    // Contain: exactly the offender was quarantined...
    EXPECT_EQ(contain.stats().quarantines, 1u);
    EXPECT_TRUE(node.spm()->vm(attacker).destroyed);
    // ...and recover: the target re-measured clean, nothing embargoed.
    EXPECT_GE(contain.stats().reverified, 1u);
    EXPECT_EQ(contain.stats().embargoes, 0u);
    EXPECT_FALSE(node.spm()->find_critical(ac.target_region)->embargoed);

    // The pipeline steps land in order, all attributed to the attacker.
    const auto& log = contain.action_log();
    ASSERT_GE(log.size(), 4u);
    EXPECT_EQ(log[0].step, resil::ContainmentPolicy::kDetected);
    EXPECT_EQ(log[1].step, resil::ContainmentPolicy::kDumped);
    for (const auto& a : log) EXPECT_EQ(a.vm, attacker);
    bool quarantined_seen = false;
    for (const auto& a : log) {
        if (a.step == resil::ContainmentPolicy::kQuarantined) {
            quarantined_seen = true;
        }
        // Recovery never precedes containment.
        if (a.step == resil::ContainmentPolicy::kReverified) {
            EXPECT_TRUE(quarantined_seen);
        }
    }
    EXPECT_TRUE(quarantined_seen);

    // Graceful degradation, never node death: the victim partitions are
    // untouched and still reachable.
    ASSERT_NE(node.spm()->find_vm("compute"), nullptr);
    EXPECT_TRUE(node.spm()->vm_write64(node.compute_vm()->id(), 0x1000, 0x1));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, AttackDefeated,
    ::testing::Combine(::testing::Values(wl::AttackKind::kHeartbleed,
                                         wl::AttackKind::kVtableOverwrite,
                                         wl::AttackKind::kSropForgery),
                       ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv)),
    [](const ::testing::TestParamInfo<AttackDefeated::ParamType>& info) {
        return std::string(to_string(std::get<0>(info.param))) + "_" +
               arch::to_string(std::get<1>(info.param));
    });

// --- satellite: determinism under attack -------------------------------------

// One trial's externally observable containment story, serialized: the
// attestation measurement log, the quarantine/action sequence, and the
// attack + SPM counters. Byte-identical across reruns and --jobs values.
std::string fingerprint(Node& node, const resil::ContainmentEngine& contain,
                        const wl::AdversaryWorkload& attack) {
    std::ostringstream os;
    for (const auto& [name, digest] : node.spm()->measurements()) {
        os << "measure " << name << ' ' << crypto::to_hex(digest) << '\n';
    }
    for (const auto& a : contain.action_log()) {
        os << "action " << to_string(a.step) << ' ' << a.vm << ' ' << a.region
           << '\n';
    }
    const auto& s = attack.stats();
    os << "attack " << s.attempts << ' ' << s.denied << ' ' << s.leaked_words
       << ' ' << s.corrupted_words << '\n';
    os << "hf.tag_violations " << node.spm()->stats().tag_violations << '\n';
    return os.str();
}

TEST(DeterminismUnderAttack, SameSeedSameContainmentTimelineAtAnyJobs) {
    struct Rig {
        std::unique_ptr<resil::ContainmentEngine> contain;
        std::unique_ptr<wl::AdversaryWorkload> attack;
    };
    const std::vector<std::uint64_t> seeds = {91, 92, 93};

    auto run = [&seeds](int jobs) {
        auto prints = std::make_shared<std::map<std::uint64_t, std::string>>();
        Harness::Options opt;
        opt.trials = 1;
        opt.jobs = jobs;
        opt.measurement_noise = false;
        opt.config_factory = [](SchedulerKind kind, std::uint64_t seed) {
            NodeConfig cfg = Harness::default_config(kind, seed);
            cfg.protect_critical = true;
            return cfg;
        };
        opt.pre_trial = [prints](SchedulerKind, std::uint64_t seed,
                                 Node& n) -> std::shared_ptr<void> {
            auto rig = std::make_shared<Rig>();
            hafnium::VmSpec aspec;
            aspec.name = "attacker";
            aspec.role = hafnium::VmRole::kSecondary;
            aspec.mem_bytes = 4ull << 20;
            aspec.vcpu_count = 1;
            aspec.image = Node::make_image("attacker");
            const arch::VmId attacker = n.spm()->create_vm(aspec);
            resil::ContainmentConfig cc;
            cc.defer_s = 0.0002;
            rig->contain = std::make_unique<resil::ContainmentEngine>(n, cc);
            rig->contain->arm();
            // Fire early and fast: the trial's reduced workload finishes in
            // a few simulated milliseconds, and the whole detect → contain
            // sequence must land inside it.
            wl::AttackConfig ac;
            ac.start_s = 0.0005;
            ac.period_s = 5e-5;
            rig->attack = std::make_unique<wl::AdversaryWorkload>(
                *n.spm(), attacker, ac);
            rig->attack->start();
            // Serialize the story at teardown (the node is still alive then;
            // pre_trial attachments die before it). Harness serializes
            // attachment destruction, so the map needs no extra lock.
            struct Harvest {
                std::shared_ptr<Rig> rig;
                std::shared_ptr<std::map<std::uint64_t, std::string>> out;
                std::uint64_t seed;
                Node* node;
                ~Harvest() {
                    rig->attack->stop();
                    (*out)[seed] =
                        fingerprint(*node, *rig->contain, *rig->attack);
                }
            };
            // No temporary: a moved-from Harvest's destructor would stop the
            // attack (and fingerprint) before the trial even ran.
            return std::shared_ptr<Harvest>(new Harvest{rig, prints, seed, &n});
        };
        Harness h(opt);
        wl::WorkloadSpec spec = wl::randomaccess_spec();
        spec.units_per_thread_step /= 16;
        h.run_trials(SchedulerKind::kKittenPrimary, spec, seeds);
        return *prints;
    };

    const auto serial = run(1);
    const auto fanned = run(8);
    const auto again = run(8);
    ASSERT_EQ(serial.size(), seeds.size());
    for (const std::uint64_t seed : seeds) {
        // The attack fired and was contained in every trial...
        EXPECT_NE(serial.at(seed).find("action quarantined"),
                  std::string::npos)
            << serial.at(seed);
        // ...and the whole story is a pure function of the seed.
        EXPECT_EQ(serial.at(seed), fanned.at(seed)) << "seed " << seed;
        EXPECT_EQ(fanned.at(seed), again.at(seed)) << "seed " << seed;
    }
}

}  // namespace
}  // namespace hpcsec
