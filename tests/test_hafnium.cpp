// Hafnium SPM tests: manifest validation, boot, hypercall ABI, privilege
// enforcement, mailboxes, memory sharing, device assignment.
#include <gtest/gtest.h>

#include "arch/platform.h"
#include "hafnium/manifest.h"
#include "hafnium/spm.h"

namespace hpcsec::hafnium {
namespace {

VmSpec primary_spec(const std::string& name = "primary") {
    VmSpec s;
    s.name = name;
    s.role = VmRole::kPrimary;
    s.mem_bytes = 64ull << 20;
    s.vcpu_count = 4;
    s.image = {1, 2, 3};
    return s;
}

VmSpec secondary_spec(const std::string& name, std::uint64_t mem = 32ull << 20,
                      int vcpus = 4) {
    VmSpec s;
    s.name = name;
    s.role = VmRole::kSecondary;
    s.mem_bytes = mem;
    s.vcpu_count = vcpus;
    s.image = {4, 5, 6};
    return s;
}

VmSpec super_secondary_spec() {
    VmSpec s;
    s.name = "login";
    s.role = VmRole::kSuperSecondary;
    s.mem_bytes = 32ull << 20;
    s.vcpu_count = 1;
    s.image = {7, 8, 9};
    return s;
}

// --- Manifest -----------------------------------------------------------------

TEST(Manifest, ValidManifestPasses) {
    Manifest m;
    m.vms = {primary_spec(), secondary_spec("compute")};
    EXPECT_TRUE(m.problems().empty());
}

TEST(Manifest, RequiresExactlyOnePrimary) {
    Manifest none;
    none.vms = {secondary_spec("a")};
    EXPECT_FALSE(none.problems().empty());

    Manifest two;
    two.vms = {primary_spec("p1"), primary_spec("p2")};
    EXPECT_FALSE(two.problems().empty());
}

TEST(Manifest, AtMostOneSuperSecondary) {
    Manifest m;
    m.vms = {primary_spec(), super_secondary_spec(), super_secondary_spec()};
    auto problems = m.problems();
    bool found = false;
    for (const auto& p : problems) found |= p.find("super-secondary") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Manifest, SecondariesCannotOwnDevices) {
    Manifest m;
    VmSpec bad = secondary_spec("compute");
    bad.devices = {"uart0"};
    m.vms = {primary_spec(), bad};
    EXPECT_FALSE(m.problems().empty());
}

TEST(Manifest, RejectsDuplicateNamesAndBadSizes) {
    Manifest m;
    VmSpec dup = secondary_spec("compute");
    VmSpec unaligned = secondary_spec("compute");
    unaligned.mem_bytes = 12345;  // not page aligned
    VmSpec novcpu = secondary_spec("x");
    novcpu.vcpu_count = 0;
    m.vms = {primary_spec(), dup, unaligned, novcpu};
    EXPECT_GE(m.problems().size(), 3u);
}

TEST(Manifest, PrimaryMustBeNonSecure) {
    Manifest m;
    VmSpec p = primary_spec();
    p.world = arch::World::kSecure;
    m.vms = {p, secondary_spec("compute")};
    EXPECT_FALSE(m.problems().empty());
}

// --- SPM boot ------------------------------------------------------------------

struct SpmFixture : ::testing::Test {
    arch::Platform platform{arch::PlatformConfig::pine_a64()};

    std::unique_ptr<Spm> make_spm(bool with_super = false,
                                  IrqRoutingPolicy policy =
                                      IrqRoutingPolicy::kAllToPrimary) {
        Manifest m;
        m.vms.push_back(primary_spec());
        if (with_super) m.vms.push_back(super_secondary_spec());
        m.vms.push_back(secondary_spec("compute"));
        auto spm = std::make_unique<Spm>(platform, m, policy);
        spm->boot();
        return spm;
    }
};

TEST_F(SpmFixture, BootAssignsIdsInRoleOrder) {
    auto spm = make_spm(true);
    EXPECT_EQ(spm->vm_count(), 3);
    EXPECT_EQ(spm->primary_vm().id(), arch::kPrimaryVmId);
    EXPECT_EQ(spm->super_secondary()->id(), 2);  // "hardcoded VM ID" for the SS
    EXPECT_EQ(spm->find_vm("compute")->id(), 3);
}

TEST_F(SpmFixture, BootRejectsInvalidManifest) {
    Manifest m;  // no primary
    m.vms = {secondary_spec("compute")};
    Spm spm(platform, m);
    EXPECT_THROW(spm.boot(), std::runtime_error);
}

TEST_F(SpmFixture, BootPowersAllCores) {
    auto spm = make_spm();
    EXPECT_EQ(platform.monitor().powered_cores(), 4);
    for (int c = 0; c < 4; ++c) EXPECT_EQ(platform.core(c).el(), arch::El::kEl1);
}

TEST_F(SpmFixture, MeasurementsCoverEveryImage) {
    auto spm = make_spm(true);
    ASSERT_EQ(spm->measurements().size(), 3u);
    EXPECT_EQ(spm->measurements()[0].first, "primary");
    EXPECT_EQ(spm->measurements()[1].first, "login");
}

TEST_F(SpmFixture, ImageHashMismatchAbortsBoot) {
    Manifest m;
    m.vms = {primary_spec(), secondary_spec("compute")};
    m.vms[1].expected_hash = crypto::Sha256::hash("not the image");
    Spm spm(platform, m);
    EXPECT_THROW(spm.boot(), std::runtime_error);
}

TEST_F(SpmFixture, VmMemoryIsOwnedAndDisjoint) {
    auto spm = make_spm(true);
    for (int id = 1; id <= spm->vm_count(); ++id) {
        Vm& vm = spm->vm(static_cast<arch::VmId>(id));
        EXPECT_TRUE(platform.mem().owned_span(vm.mem_base, vm.mem_bytes(), vm.id()))
            << vm.name();
    }
}

TEST_F(SpmFixture, MmioGoesToPrimaryWithoutSuperSecondary) {
    auto spm = make_spm(false);
    EXPECT_FALSE(spm->devices_of(arch::kPrimaryVmId).empty());
    // Primary can translate the UART MMIO window.
    EXPECT_EQ(spm->vm_translate(arch::kPrimaryVmId, 0x01C2'8000).fault,
              arch::FaultKind::kNone);
}

TEST_F(SpmFixture, MmioGoesToSuperSecondaryWhenPresent) {
    auto spm = make_spm(true);
    EXPECT_TRUE(spm->devices_of(arch::kPrimaryVmId).empty());
    EXPECT_EQ(spm->devices_of(2).size(), platform.config().devices.size());
    EXPECT_EQ(spm->vm_translate(2, 0x01C2'8000).fault, arch::FaultKind::kNone);
    EXPECT_NE(spm->vm_translate(arch::kPrimaryVmId, 0x01C2'8000).fault,
              arch::FaultKind::kNone);
}

TEST_F(SpmFixture, SecondaryNeverSeesMmio) {
    auto spm = make_spm(true);
    const arch::VmId compute = spm->find_vm("compute")->id();
    // The secondary's view of IPA 0x01C28000 (the UART's PA) is its own RAM;
    // no stage-2 entry of a secondary may resolve to an MMIO physical range.
    const arch::WalkResult w = spm->vm_translate(compute, 0x01C2'8000);
    if (w.fault == arch::FaultKind::kNone) {
        EXPECT_TRUE(platform.mem().is_ram(w.out));
        EXPECT_FALSE(platform.mem().is_mmio(w.out));
    }
    // And IPAs beyond its RAM window do not translate at all.
    EXPECT_NE(
        spm->vm_translate(compute, spm->vm(compute).mem_bytes() + 0x1000).fault,
        arch::FaultKind::kNone);
}

TEST_F(SpmFixture, DefaultVcpuSpreadIsIncremental) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    for (int v = 0; v < compute.vcpu_count(); ++v) {
        EXPECT_EQ(compute.vcpu(v).assigned_core, v % platform.ncores());
    }
}

// --- Hypercalls ------------------------------------------------------------------

TEST_F(SpmFixture, VersionAndCounts) {
    auto spm = make_spm(true);
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVersion).value, (1 << 16) | 1);
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVmGetCount).value, 3);
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVcpuGetCount, {3, 0, 0, 0}).value, 4);
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVcpuGetCount, {9, 0, 0, 0}).error,
              HfError::kNotFound);
}

TEST_F(SpmFixture, VmGetInfoPacksRoleWorldVcpus) {
    auto spm = make_spm(true);
    const auto info = spm->hypercall(0, 1, Call::kVmGetInfo, {2, 0, 0, 0});
    ASSERT_TRUE(info.ok());
    EXPECT_EQ((info.value >> 32) & 0xff,
              static_cast<std::int64_t>(VmRole::kSuperSecondary));
    EXPECT_EQ(info.value & 0xffff, 1);
}

TEST_F(SpmFixture, VcpuRunDeniedForNonPrimary) {
    auto spm = make_spm(true);
    // The super-secondary must NOT be able to assume control over cores.
    const auto r = spm->hypercall(0, 2, Call::kVcpuRun, {3, 0, 0, 0});
    EXPECT_EQ(r.error, HfError::kDenied);
    EXPECT_EQ(spm->stats().denied_calls, 1u);
    // Nor can a plain secondary.
    EXPECT_EQ(spm->hypercall(0, 3, Call::kVcpuRun, {2, 0, 0, 0}).error,
              HfError::kDenied);
}

TEST_F(SpmFixture, VcpuRunRejectsPrimaryTargetAndBadIds) {
    auto spm = make_spm();
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVcpuRun, {1, 0, 0, 0}).error,
              HfError::kInvalid);
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVcpuRun, {7, 0, 0, 0}).error,
              HfError::kNotFound);
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVcpuRun, {2, 99, 0, 0}).error,
              HfError::kInvalid);
}

TEST_F(SpmFixture, VcpuRunRetriesWhenNotReady) {
    auto spm = make_spm();
    // VCPU exists but is Off (no guest kernel attached it).
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVcpuRun, {2, 0, 0, 0}).error,
              HfError::kRetry);
}

TEST_F(SpmFixture, InterruptInjectPrivilege) {
    auto spm = make_spm(true);
    // Secondary may not inject.
    EXPECT_EQ(spm->hypercall(0, 3, Call::kInterruptInject, {2, 0, 40, 0}).error,
              HfError::kDenied);
    // Primary may.
    EXPECT_TRUE(spm->hypercall(0, 1, Call::kInterruptInject, {3, 0, 40, 0}).ok());
    EXPECT_TRUE(spm->vm(3).vcpu(0).vgic.pending.contains(40));
}

TEST_F(SpmFixture, MailboxConfigureValidatesPages) {
    auto spm = make_spm();
    Vm& primary = spm->primary_vm();
    const arch::IpaAddr good = primary.ipa_base + 0x1000;
    EXPECT_TRUE(spm->hypercall(0, 1, Call::kVmConfigure, {good, good + 0x1000, 0, 0})
                    .ok());
    // An unmapped IPA is rejected.
    EXPECT_EQ(spm->hypercall(0, 1, Call::kVmConfigure,
                             {0xffff'0000'0000ull, good, 0, 0})
                  .error,
              HfError::kInvalid);
}

TEST_F(SpmFixture, MessageSendCopiesThroughStage2) {
    auto spm = make_spm();
    Vm& primary = spm->primary_vm();
    Vm& compute = *spm->find_vm("compute");
    const arch::IpaAddr psend = primary.ipa_base + 0x1000;
    const arch::IpaAddr precv = primary.ipa_base + 0x2000;
    ASSERT_TRUE(spm->hypercall(0, 1, Call::kVmConfigure, {psend, precv, 0, 0}).ok());
    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kVmConfigure, {0x1000, 0x2000, 0, 0})
            .ok());

    ASSERT_TRUE(spm->vm_write64(1, psend, 0xabcdef));
    ASSERT_TRUE(spm->vm_write64(1, psend + 8, 0x123456));
    const auto r =
        spm->hypercall(0, 1, Call::kMsgSend, {compute.id(), 16, 0, 0});
    ASSERT_TRUE(r.ok());

    std::uint64_t w0 = 0, w1 = 0;
    EXPECT_TRUE(spm->vm_read64(compute.id(), 0x2000, w0));
    EXPECT_TRUE(spm->vm_read64(compute.id(), 0x2008, w1));
    EXPECT_EQ(w0, 0xabcdefu);
    EXPECT_EQ(w1, 0x123456u);
    EXPECT_TRUE(compute.mailbox.recv_full);
    EXPECT_EQ(compute.mailbox.recv_from, 1);
    // Message notification virq is pending on the receiver's vcpu0.
    EXPECT_TRUE(compute.vcpu(0).vgic.pending.contains(kMessageVirq));
}

TEST_F(SpmFixture, MessageSendBusyWhenRecvFull) {
    auto spm = make_spm();
    Vm& primary = spm->primary_vm();
    Vm& compute = *spm->find_vm("compute");
    const arch::IpaAddr base = primary.ipa_base;
    ASSERT_TRUE(
        spm->hypercall(0, 1, Call::kVmConfigure, {base + 0x1000, base + 0x2000, 0, 0})
            .ok());
    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kVmConfigure, {0x1000, 0x2000, 0, 0})
            .ok());
    ASSERT_TRUE(spm->hypercall(0, 1, Call::kMsgSend, {compute.id(), 8, 0, 0}).ok());
    EXPECT_EQ(spm->hypercall(0, 1, Call::kMsgSend, {compute.id(), 8, 0, 0}).error,
              HfError::kBusy);
    // RX release clears it.
    ASSERT_TRUE(spm->hypercall(0, compute.id(), Call::kRxRelease, {}).ok());
    EXPECT_TRUE(spm->hypercall(0, 1, Call::kMsgSend, {compute.id(), 8, 0, 0}).ok());
}

TEST_F(SpmFixture, MessageSizeLimited) {
    auto spm = make_spm();
    Vm& primary = spm->primary_vm();
    const arch::IpaAddr base = primary.ipa_base;
    ASSERT_TRUE(
        spm->hypercall(0, 1, Call::kVmConfigure, {base + 0x1000, base + 0x2000, 0, 0})
            .ok());
    EXPECT_EQ(
        spm->hypercall(0, 1, Call::kMsgSend, {2, arch::kPageSize + 8, 0, 0}).error,
        HfError::kInvalid);
}

// --- Memory sharing ------------------------------------------------------------

TEST_F(SpmFixture, MemShareGrantsAndReclaims) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    const arch::IpaAddr own = 0x10000;
    const arch::IpaAddr borrower_ipa = 0x5000'0000;

    // compute shares 2 pages with the primary.
    ASSERT_TRUE(spm->vm_write64(compute.id(), own, 0x77));
    const auto share = spm->hypercall(0, compute.id(), Call::kMemShare,
                                      {1, own, 2, borrower_ipa});
    ASSERT_TRUE(share.ok());
    ASSERT_EQ(spm->grants().size(), 1u);

    std::uint64_t v = 0;
    EXPECT_TRUE(spm->vm_read64(1, borrower_ipa, v));
    EXPECT_EQ(v, 0x77u);
    // Writes through the share are visible to the owner.
    EXPECT_TRUE(spm->vm_write64(1, borrower_ipa + 8, 0x88));
    EXPECT_TRUE(spm->vm_read64(compute.id(), own + 8, v));
    EXPECT_EQ(v, 0x88u);

    // Reclaim revokes access.
    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kMemReclaim, {1, own, 0, 0}).ok());
    EXPECT_FALSE(spm->vm_read64(1, borrower_ipa, v));
    EXPECT_TRUE(spm->grants().empty());
}

TEST_F(SpmFixture, MemShareRejectsUnownedRange) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    // IPA beyond the VM's memory doesn't translate.
    EXPECT_EQ(spm->hypercall(0, compute.id(), Call::kMemShare,
                             {1, compute.mem_bytes() + 0x1000, 1, 0x5000'0000})
                  .error,
              HfError::kInvalid);
}

TEST_F(SpmFixture, MemShareRejectsSelfAndBadTarget) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    EXPECT_EQ(spm->hypercall(0, compute.id(), Call::kMemShare,
                             {compute.id(), 0, 1, 0x5000'0000})
                  .error,
              HfError::kInvalid);
    EXPECT_EQ(
        spm->hypercall(0, compute.id(), Call::kMemShare, {9, 0, 1, 0x5000'0000})
            .error,
        HfError::kNotFound);
}

TEST_F(SpmFixture, MemLendRevokesOwnerAccessUntilReclaim) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    const arch::IpaAddr own = 0x8000;
    const arch::IpaAddr window = 0x6000'0000;
    ASSERT_TRUE(spm->vm_write64(compute.id(), own, 0xfeed));

    ASSERT_TRUE(spm->hypercall(0, compute.id(), Call::kMemLend, {1, own, 1, window})
                    .ok());
    // Borrower sees the data; the owner's access is gone.
    std::uint64_t v = 0;
    EXPECT_TRUE(spm->vm_read64(1, window, v));
    EXPECT_EQ(v, 0xfeedu);
    EXPECT_FALSE(spm->vm_read64(compute.id(), own, v));
    EXPECT_FALSE(spm->vm_write64(compute.id(), own, 1));
    // Pages around the lent one are unaffected.
    EXPECT_TRUE(spm->vm_read64(compute.id(), own + arch::kPageSize, v));

    // Reclaim: owner back, borrower out.
    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kMemReclaim, {1, own, 0, 0}).ok());
    EXPECT_TRUE(spm->vm_read64(compute.id(), own, v));
    EXPECT_EQ(v, 0xfeedu);
    EXPECT_FALSE(spm->vm_read64(1, window, v));
}

TEST_F(SpmFixture, MemDonateTransfersOwnership) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    const arch::IpaAddr own = 0x20000;
    const arch::IpaAddr window = 0x6100'0000;
    ASSERT_TRUE(spm->vm_write64(compute.id(), own, 0xd07a7e));
    const arch::PhysAddr pa = spm->vm_translate(compute.id(), own).out;

    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kMemDonate, {1, own, 2, window}).ok());
    // Frames are retagged to the new owner.
    EXPECT_TRUE(platform.mem().owned_span(pa, 2 * arch::kPageSize, 1));
    // The donor lost its translation; the recipient reads the data.
    std::uint64_t v = 0;
    EXPECT_FALSE(spm->vm_read64(compute.id(), own, v));
    EXPECT_TRUE(spm->vm_read64(1, window, v));
    EXPECT_EQ(v, 0xd07a7eu);
    // Donation is permanent: no grant is recorded to reclaim.
    EXPECT_EQ(spm->hypercall(0, compute.id(), Call::kMemReclaim, {1, own, 0, 0}).error,
              HfError::kNotFound);
}

TEST_F(SpmFixture, MemDonateAcrossWorldsDenied) {
    // A secure-world compute VM cannot donate secure frames to the
    // non-secure primary.
    arch::PlatformConfig pcfg = arch::PlatformConfig::pine_a64();
    pcfg.secure_ram_bytes = 128ull << 20;
    arch::Platform p2(pcfg);
    Manifest m;
    m.vms.push_back(primary_spec());
    VmSpec sec = secondary_spec("enclave");
    sec.world = arch::World::kSecure;
    m.vms.push_back(sec);
    Spm spm2(p2, m);
    spm2.boot();
    EXPECT_EQ(
        spm2.hypercall(0, 2, Call::kMemDonate, {1, 0x1000, 1, 0x6000'0000}).error,
        HfError::kDenied);
}

TEST_F(SpmFixture, ReclaimUnknownGrantFails) {
    auto spm = make_spm();
    EXPECT_EQ(spm->hypercall(0, 3, Call::kMemReclaim, {1, 0x4000, 0, 0}).error,
              HfError::kNotFound);
}

// --- vtimer hypercalls ------------------------------------------------------------

TEST_F(SpmFixture, VtimerSetAndCancelTrackState) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kVtimerSet, {123456, 1, 0, 0}).ok());
    EXPECT_TRUE(compute.vcpu(1).vtimer_armed);
    EXPECT_EQ(compute.vcpu(1).vtimer_deadline, 123456u);
    ASSERT_TRUE(
        spm->hypercall(0, compute.id(), Call::kVtimerCancel, {0, 1, 0, 0}).ok());
    EXPECT_FALSE(compute.vcpu(1).vtimer_armed);
}

TEST_F(SpmFixture, InterruptEnableTracksVgicState) {
    auto spm = make_spm();
    Vm& compute = *spm->find_vm("compute");
    const auto virt_timer =
        static_cast<std::uint64_t>(spm->platform().isa_ops().irq.virt_timer);
    ASSERT_TRUE(spm->hypercall(0, compute.id(), Call::kInterruptEnable,
                               {virt_timer, 2, 0, 0})
                    .ok());
    EXPECT_TRUE(compute.vcpu(2).vgic.enabled.contains(static_cast<int>(virt_timer)));
}

}  // namespace
}  // namespace hpcsec::hafnium
