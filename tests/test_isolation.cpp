// Security-isolation property tests — the invariants that make the system
// "securely compartmentalized":
//   I1  no stage-2 translation of a VM resolves to a frame owned by another
//       VM (unless covered by an explicit share grant);
//   I2  cross-VM reads/writes outside grants always fail;
//   I3  non-secure VMs can never reach secure-world frames;
//   I4  revoking a grant closes the window completely;
//   I5  hypervisor frame ownership is never reachable from any VM.
// Then the FF-A memory transactions (docs/ABI.md, "Memory transactions"):
// one PA run per call, no second grant of granted frames, secure frames
// stay in the secure world, freed frames read zero, and a generated
// transaction soak under a strict auditor.
// The whole suite is parameterized over (seed, ISA backend): the isolation
// properties must hold identically on the ARM and RISC-V machine models.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>

#include "arch/isa.h"
#include "arch/platform.h"
#include "check/check.h"
#include "check/corrupt.h"
#include "hafnium/spm.h"
#include "sim/rng.h"

namespace hpcsec::hafnium {
namespace {

struct IsolationFixture
    : ::testing::TestWithParam<std::tuple<std::uint64_t, arch::Isa>> {
    arch::PlatformConfig pcfg = [this] {
        auto c = arch::PlatformConfig::pine_a64();
        c.secure_ram_bytes = 128ull << 20;
        c.isa = std::get<1>(GetParam());
        return c;
    }();
    arch::Platform platform{pcfg};
    std::unique_ptr<Spm> spm;

    [[nodiscard]] std::uint64_t seed() const { return std::get<0>(GetParam()); }

    void SetUp() override {
        Manifest m;
        VmSpec p;
        p.name = "primary";
        p.role = VmRole::kPrimary;
        p.mem_bytes = 64ull << 20;
        p.vcpu_count = 4;
        p.image = {1};
        m.vms.push_back(p);
        for (int i = 0; i < 3; ++i) {
            VmSpec s;
            s.name = "tenant" + std::to_string(i);
            s.role = VmRole::kSecondary;
            s.mem_bytes = 32ull << 20;
            s.vcpu_count = 2;
            s.image = {static_cast<std::uint8_t>(i)};
            // tenant2 lives in the TrustZone secure world.
            s.world = i == 2 ? arch::World::kSecure : arch::World::kNonSecure;
            m.vms.push_back(s);
        }
        spm = std::make_unique<Spm>(platform, m);
        spm->boot();
    }

    /// An IPA window above every RAM window on both ISAs.
    static constexpr arch::IpaAddr kHole = 0x10'0000'0000ull;
    static constexpr std::uint64_t kPage = arch::kPageSize;

    Vm& tenant(int i) { return *spm->find_vm("tenant" + std::to_string(i)); }

    /// FFA_MEM_SHARE, _LEND or _DONATE of `pages` pages at `own` in `from`
    /// to `window` in `to`.
    HfResult send(Call call, const Vm& from, const Vm& to, arch::IpaAddr own,
                  std::uint64_t pages, arch::IpaAddr window) {
        return spm->hypercall(0, from.id(), call, {to.id(), own, pages, window});
    }

    static bool mapped(const Vm& vm, arch::IpaAddr ipa) {
        return vm.stage2().walk(ipa).fault == arch::FaultKind::kNone;
    }

    [[nodiscard]] std::optional<arch::VmId> owner(arch::PhysAddr pa) {
        const auto o = platform.mem().owner_of(pa);
        return o ? std::optional<arch::VmId>(o->vm) : std::nullopt;
    }
};

constexpr std::array<Call, 3> kSends{Call::kMemShare, Call::kMemLend, Call::kMemDonate};

TEST_P(IsolationFixture, I1_TranslationsStayWithinOwnership) {
    sim::Rng rng(seed());
    for (int vm_id = 1; vm_id <= spm->vm_count(); ++vm_id) {
        Vm& vm = spm->vm(static_cast<arch::VmId>(vm_id));
        for (int trial = 0; trial < 500; ++trial) {
            const arch::IpaAddr ipa =
                vm.ipa_base + rng.next_below(vm.mem_bytes());
            const arch::WalkResult w = vm.stage2().walk(ipa);
            ASSERT_EQ(w.fault, arch::FaultKind::kNone);
            const auto owner = platform.mem().owner_of(w.out);
            ASSERT_TRUE(owner.has_value());
            EXPECT_EQ(owner->vm, vm.id())
                << vm.name() << " reached a frame owned by VM " << owner->vm;
        }
    }
}

TEST_P(IsolationFixture, I2_RandomCrossVmProbesAllFail) {
    sim::Rng rng(seed() ^ 0xabcdef);
    // Probe each tenant's stage-2 with IPAs pointing at other VMs' PAs —
    // none may translate (their stage-2 simply has no such mappings beyond
    // their own window).
    for (int attacker = 2; attacker <= spm->vm_count(); ++attacker) {
        Vm& a = spm->vm(static_cast<arch::VmId>(attacker));
        for (int victim = 1; victim <= spm->vm_count(); ++victim) {
            if (victim == attacker) continue;
            Vm& v = spm->vm(static_cast<arch::VmId>(victim));
            for (int trial = 0; trial < 100; ++trial) {
                // Attacker guesses IPAs equal to the victim's PAs (the
                // strongest guess it could make).
                const arch::IpaAddr probe = v.mem_base + rng.next_below(v.mem_bytes());
                std::uint64_t out = 0;
                if (spm->vm_read64(a.id(), probe, out)) {
                    // Translation succeeded only if the probe happens to fall
                    // inside the attacker's own window — verify it resolved
                    // to the attacker's own frames, not the victim's.
                    const arch::WalkResult w = a.stage2().walk(probe);
                    EXPECT_TRUE(
                        platform.mem().owned_span(w.out, 8, a.id()))
                        << "cross-VM leak from " << v.name() << " to " << a.name();
                }
            }
        }
    }
}

TEST_P(IsolationFixture, I3_NonSecureCannotTouchSecureWorld) {
    sim::Rng rng(seed() ^ 0x5ec);
    Vm& secure_vm = *spm->find_vm("tenant2");
    ASSERT_EQ(secure_vm.world(), arch::World::kSecure);
    ASSERT_EQ(platform.mem().world_of(secure_vm.mem_base), arch::World::kSecure);
    // The memory system itself rejects NS masters on those frames.
    for (int trial = 0; trial < 200; ++trial) {
        const arch::PhysAddr pa =
            secure_vm.mem_base + (rng.next_below(secure_vm.mem_bytes()) & ~7ull);
        EXPECT_EQ(platform.mem().check_physical_access(pa, arch::World::kNonSecure),
                  arch::FaultKind::kSecurity);
    }
    // And the secure VM itself can use its memory.
    EXPECT_TRUE(spm->vm_write64(secure_vm.id(), 0x1000, 0x5ecull));
    std::uint64_t v = 0;
    EXPECT_TRUE(spm->vm_read64(secure_vm.id(), 0x1000, v));
    EXPECT_EQ(v, 0x5ecull);
    // A rogue non-secure stage-2 window onto that secure frame: the walk
    // resolves, and the SPM's access check still refuses both directions.
    const Vm& rogue = tenant(0);
    const arch::PhysAddr secure_pa = spm->vm_translate(secure_vm.id(), 0x1000).out;
    const arch::IpaAddr window =
        check::CorruptionAccess::map_rogue_window(*spm, rogue.id(), secure_pa);
    const arch::WalkResult w = spm->vm_translate(rogue.id(), window);
    EXPECT_EQ(w.fault, arch::FaultKind::kNone);
    EXPECT_EQ(w.out, secure_pa);
    std::uint64_t out = 0x0bad;
    EXPECT_FALSE(spm->vm_read64(rogue.id(), window, out));
    EXPECT_EQ(out, 0x0badu);
    EXPECT_FALSE(spm->vm_write64(rogue.id(), window, 0xdead));
    EXPECT_TRUE(spm->vm_read64(secure_vm.id(), 0x1000, v));
    EXPECT_EQ(v, 0x5ecull);
}

TEST_P(IsolationFixture, I4_GrantWindowOpensAndClosesExactly) {
    sim::Rng rng(seed() ^ 0x97a7);
    Vm& t0 = *spm->find_vm("tenant0");
    Vm& t1 = *spm->find_vm("tenant1");
    const arch::IpaAddr own = (rng.next_below(1024)) * arch::kPageSize;
    const arch::IpaAddr window = 0x7000'0000;
    const std::uint64_t pages = 1 + rng.next_below(4);

    ASSERT_TRUE(spm->hypercall(0, t0.id(), Call::kMemShare,
                               {t1.id(), own, pages, window})
                    .ok());
    std::uint64_t v = 0;
    // Inside the grant: accessible.
    EXPECT_TRUE(spm->vm_read64(t1.id(), window, v));
    EXPECT_TRUE(spm->vm_read64(t1.id(), window + (pages - 1) * arch::kPageSize, v));
    // One page past the grant: not accessible.
    EXPECT_FALSE(spm->vm_read64(t1.id(), window + pages * arch::kPageSize, v));
    // Revoke: the whole window closes.
    ASSERT_TRUE(
        spm->hypercall(0, t0.id(), Call::kMemReclaim, {t1.id(), own, 0, 0}).ok());
    EXPECT_FALSE(spm->vm_read64(t1.id(), window, v));
}

TEST_P(IsolationFixture, I5_PageTableFramesNotGuestReachable) {
    // Stage-2 table nodes are hypervisor state; confirm no VM translation
    // resolves into frames owned by the hypervisor (owner id 0 is never a
    // VM id, so I1 already covers it — this asserts the ownership tag).
    for (int vm_id = 1; vm_id <= spm->vm_count(); ++vm_id) {
        Vm& vm = spm->vm(static_cast<arch::VmId>(vm_id));
        const arch::WalkResult w = vm.stage2().walk(vm.ipa_base);
        ASSERT_EQ(w.fault, arch::FaultKind::kNone);
        const auto owner = platform.mem().owner_of(w.out);
        ASSERT_TRUE(owner.has_value());
        EXPECT_NE(owner->vm, arch::kHypervisorId);
    }
}

// A window that is not one PA run is refused. The primary donates a
// page to tenant0 just past its RAM, so tenant0's two pages at the seam map
// its last frame and the donated one. Mapping the window as one run from
// the first page would hand out tenant1's first frame, which follows
// tenant0's RAM in PA.
TEST_P(IsolationFixture, SeamWindowIsNotOneTransaction) {
    Vm& p = spm->primary_vm();
    Vm& t0 = tenant(0);
    Vm& t1 = tenant(1);
    ASSERT_EQ(t1.mem_base, t0.mem_base + t0.mem_bytes());
    const arch::IpaAddr ram_end = t0.mem_bytes();
    ASSERT_EQ(send(Call::kMemDonate, p, t0, p.ipa_base, 1, ram_end).error, HfError::kOk);
    for (const Call call : kSends) {
        SCOPED_TRACE(to_string(call));
        EXPECT_EQ(send(call, t0, p, ram_end - kPage, 2, kHole).error, HfError::kInvalid);
        EXPECT_FALSE(mapped(p, kHole));
        EXPECT_FALSE(mapped(p, kHole + kPage));
        EXPECT_EQ(owner(t1.mem_base), t1.id());
        EXPECT_TRUE(mapped(t0, ram_end - kPage));
        EXPECT_TRUE(mapped(t0, ram_end));
        EXPECT_TRUE(spm->grants().empty());
    }
}

// The same seam on tenant1, whose RAM is followed by free frames: donating
// it must answer, not throw out of the SPM.
TEST_P(IsolationFixture, SeamDonateBeforeFreeFramesAnswersInvalid) {
    Vm& p = spm->primary_vm();
    Vm& t1 = tenant(1);
    const arch::IpaAddr ram_end = t1.mem_bytes();
    const arch::PhysAddr after = t1.mem_base + t1.mem_bytes();
    ASSERT_FALSE(owner(after).has_value());
    ASSERT_EQ(send(Call::kMemDonate, p, t1, p.ipa_base, 1, ram_end).error, HfError::kOk);
    HfResult r{};
    ASSERT_NO_THROW(r = send(Call::kMemDonate, t1, p, ram_end - kPage, 2, kHole));
    EXPECT_EQ(r.error, HfError::kInvalid);
    EXPECT_FALSE(mapped(p, kHole));
    EXPECT_TRUE(mapped(t1, ram_end - kPage));
    EXPECT_EQ(owner(after - kPage), t1.id());
    EXPECT_FALSE(owner(after).has_value());
}

// Pages under a live share or lend cannot be shared, lent or donated again
// until reclaimed, even by a window that only overlaps.
TEST_P(IsolationFixture, GrantedPagesCannotBeSentAgain) {
    sim::Rng rng(seed() ^ 0x4a4);
    Vm& p = spm->primary_vm();
    Vm& t0 = tenant(0);
    Vm& t1 = tenant(1);
    for (const Call first : {Call::kMemShare, Call::kMemLend}) {
        for (const Call second : kSends) {
            SCOPED_TRACE(to_string(first) + " then " + to_string(second));
            const arch::IpaAddr own = (1 + rng.next_below(1000)) * kPage;
            ASSERT_EQ(send(first, t0, t1, own, 2, kHole).error, HfError::kOk);
            EXPECT_EQ(send(second, t0, p, own + kPage, 2, kHole).error, HfError::kDenied);
            EXPECT_EQ(send(second, t0, p, own - kPage, 2, kHole).error, HfError::kDenied);
            EXPECT_FALSE(mapped(p, kHole));
            EXPECT_EQ(spm->grants().size(), 1u);
            ASSERT_TRUE(
                spm->hypercall(0, t0.id(), Call::kMemReclaim, {t1.id(), own, 0, 0}).ok());
        }
    }
}

// Secure frames go only to a secure VM. Normal-world memory may still be
// shared with a secure VM, but not donated to it.
TEST_P(IsolationFixture, SecureFramesStayInTheSecureWorld) {
    Vm& t0 = tenant(0);
    Vm& t2 = tenant(2);
    ASSERT_EQ(t2.world(), arch::World::kSecure);
    for (const Call call : kSends) {
        SCOPED_TRACE(to_string(call));
        EXPECT_EQ(send(call, t2, t0, kPage, 1, kHole).error, HfError::kDenied);
        EXPECT_FALSE(mapped(t0, kHole));
    }
    EXPECT_TRUE(spm->grants().empty());
    EXPECT_EQ(send(Call::kMemDonate, t0, t2, kPage, 1, kHole).error, HfError::kDenied);
    ASSERT_EQ(send(Call::kMemShare, t0, t2, kPage, 1, kHole).error, HfError::kOk);
    ASSERT_TRUE(spm->vm_write64(t0.id(), kPage + 8, 0x5ec));
    std::uint64_t v = 0;
    ASSERT_TRUE(spm->vm_read64(t2.id(), kHole + 8, v));
    EXPECT_EQ(v, 0x5ecu);

    // Between two secure VMs the window keeps the frames' secure attribute.
    VmSpec vault;
    vault.name = "vault";
    vault.role = VmRole::kSecondary;
    vault.mem_bytes = 4ull << 20;
    vault.vcpu_count = 1;
    vault.world = arch::World::kSecure;
    Vm& sv = spm->vm(spm->create_vm(vault));
    check::Auditor auditor(*spm, {check::Mode::kStrict, 1, 0});
    ASSERT_EQ(send(Call::kMemShare, t2, sv, kPage, 1, kHole).error, HfError::kOk);
    EXPECT_TRUE(sv.stage2().walk(kHole).secure);
    EXPECT_EQ(auditor.validate(), 0u);
}

// A destroyed VM's frames are scrubbed before anyone else gets them, in
// either world: a VM re-created on the same frames reads zeros.
TEST_P(IsolationFixture, RecreatedVmReadsZerosFromReusedFrames) {
    sim::Rng rng(seed() ^ 0x6a6);
    for (const int t : {1, 2}) {
        Vm& old = tenant(t);
        SCOPED_TRACE(old.name());
        std::vector<arch::IpaAddr> written;
        for (int f = 0; f < 8; ++f) {
            const arch::IpaAddr frame = rng.next_below(old.mem_bytes() / kPage) * kPage;
            for (const std::uint64_t off : {0ull, 8ull, 0xff8ull}) {
                ASSERT_TRUE(spm->vm_write64(old.id(), frame + off, ~frame ^ off));
                written.push_back(frame + off);
            }
        }
        const VmSpec spec = old.spec();
        const arch::PhysAddr base = old.mem_base;
        spm->destroy_vm(old.id());
        const Vm& fresh = spm->vm(spm->create_vm(spec));
        ASSERT_EQ(fresh.mem_base, base);
        for (const arch::IpaAddr ipa : written) {
            std::uint64_t v = 1;
            ASSERT_TRUE(spm->vm_read64(fresh.id(), ipa, v));
            EXPECT_EQ(v, 0u) << "IPA 0x" << std::hex << ipa;
        }
    }
}

// A seeded FF-A transaction soak under a strict auditor: a few hundred
// share, lend, donate and reclaim calls among the primary and the three
// tenants, with windows drawn to straddle RAM ends and donated-in pages,
// overlap live grants and cross worlds, and one destroy and re-create of a
// tenant. Nothing may throw out of the SPM, the auditor must find nothing,
// and every answer is one a memory transaction can give.
TEST_P(IsolationFixture, TransactionSoakUnderStrictAudit) {
    constexpr int kSteps = 600;
    check::Auditor auditor(*spm, {check::Mode::kStrict, 1, 0});
    sim::Rng rng(seed() ^ 0x50a4);
    std::vector<std::pair<arch::VmId, arch::IpaAddr>> donated;  // pages received
    arch::IpaAddr next_hole = kHole;
    std::map<HfError, int> answers;

    const auto pick = [&rng](const auto& v) { return v[rng.next_below(v.size())]; };
    const auto ram_end = [](const Vm& vm) { return vm.ipa_base + vm.mem_bytes(); };
    const auto inside = [&rng](const Vm& vm) {
        return vm.ipa_base + rng.next_below(vm.mem_bytes() / kPage) * kPage;
    };
    // A page within two pages of a seam of `vm`'s: its RAM end, a page it
    // received by donation, or a window of one of its live grants.
    const auto near = [&](const Vm& vm) {
        std::vector<arch::IpaAddr> spots;
        for (const auto& [id, ipa] : donated) {
            if (id == vm.id()) spots.push_back(ipa);
        }
        for (const auto& g : spm->grants()) {
            if (g.owner == vm.id()) spots.push_back(g.owner_ipa);
            if (g.borrower == vm.id()) spots.push_back(g.borrower_ipa);
        }
        const arch::IpaAddr spot =
            spots.empty() || rng.next_below(2) == 0 ? ram_end(vm) : pick(spots);
        return spot + rng.next_below(4) * kPage - 2 * kPage;
    };

    for (int step = 0; step < kSteps; ++step) {
        if (step == kSteps / 2) {
            Vm& victim = tenant(static_cast<int>(rng.next_below(3)));
            const VmSpec spec = victim.spec();
            ASSERT_NO_THROW(spm->destroy_vm(victim.id()));
            ASSERT_NO_THROW((void)spm->create_vm(spec));
            continue;
        }
        std::vector<arch::VmId> live;
        for (arch::VmId id = 1; id <= static_cast<arch::VmId>(spm->vm_count()); ++id) {
            if (!spm->vm(id).destroyed) live.push_back(id);
        }
        Vm& from = spm->vm(pick(live));
        // Any id, so the caller itself and destroyed VMs come up too.
        Vm& to = spm->vm(static_cast<arch::VmId>(1 + rng.next_below(spm->vm_count())));
        const std::uint64_t op = rng.next_below(8);
        HfResult r{};
        if (op < 2) {
            // Reclaim a live grant of the caller's, or a made-up one.
            std::vector<Spm::ShareGrant> mine;
            for (const auto& g : spm->grants()) {
                if (g.owner == from.id()) mine.push_back(g);
            }
            const Spm::ShareGrant g =
                !mine.empty() && rng.next_below(4) != 0
                    ? pick(mine)
                    : Spm::ShareGrant{from.id(), to.id(), near(from), 0, 1};
            ASSERT_NO_THROW(r = spm->hypercall(0, from.id(), Call::kMemReclaim,
                                               {g.borrower, g.owner_ipa, 0, 0}))
                << "step " << step;
        } else {
            Call call = pick(kSends);
            arch::IpaAddr own = near(from);
            std::uint64_t pages = 1 + rng.next_below(3);
            arch::IpaAddr window = rng.next_below(2) == 0 ? near(to) : next_hole;
            if (op == 2) {
                // Build a seam: donate a page to just past the target's RAM end.
                call = Call::kMemDonate;
                own = inside(from);
                pages = 1;
                window = ram_end(to);
            } else if (op == 3) {
                own = inside(from);  // an ordinary send
                window = next_hole;
            }
            next_hole += 8 * kPage;
            ASSERT_NO_THROW(r = send(call, from, to, own, pages, window))
                << "step " << step << ": " << to_string(call) << " " << from.name()
                << " -> " << to.name() << " own 0x" << std::hex << own << " pages "
                << pages << " window 0x" << window;
            if (call == Call::kMemDonate && r.ok()) {
                for (std::uint64_t p = 0; p < pages; ++p) {
                    donated.emplace_back(to.id(), window + p * kPage);
                }
            }
        }
        ASSERT_TRUE(r.error == HfError::kOk || r.error == HfError::kInvalid ||
                    r.error == HfError::kDenied || r.error == HfError::kNotFound)
            << "step " << step << ": " << to_string(r.error);
        ++answers[r.error];
    }
    EXPECT_TRUE(auditor.failures().empty());
    EXPECT_EQ(auditor.validate(), 0u);
    // The sequence reaches every answer, so every rule gets exercised.
    for (const HfError e :
         {HfError::kOk, HfError::kInvalid, HfError::kDenied, HfError::kNotFound}) {
        EXPECT_GT(answers[e], 0) << to_string(e);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IsolationFixture,
    ::testing::Combine(::testing::Values<std::uint64_t>(11, 22, 33, 44, 55),
                       ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv)),
    [](const ::testing::TestParamInfo<IsolationFixture::ParamType>& info) {
        return arch::to_string(std::get<1>(info.param)) + "_seed" +
               std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace hpcsec::hafnium
