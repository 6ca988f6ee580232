// Memory-system tests: MemoryMap, PageTable, and a remap through the SPM's
// stage-2 access path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/memory_map.h"
#include "arch/page_table.h"
#include "arch/platform.h"
#include "hafnium/abi.h"
#include "hafnium/spm.h"
#include "sim/rng.h"

namespace hpcsec::arch {
namespace {

constexpr PhysAddr kRamBase = 0x4000'0000;
constexpr std::uint64_t kRamSize = 256ull << 20;

MemoryMap make_map(std::uint64_t secure_bytes = 0) {
    MemoryMap m;
    m.add_region({"ram", kRamBase, kRamSize - secure_bytes, RegionKind::kRam,
                  World::kNonSecure});
    if (secure_bytes > 0) {
        m.add_region({"sram", kRamBase + kRamSize - secure_bytes, secure_bytes,
                      RegionKind::kRam, World::kSecure});
    }
    m.add_region({"uart", 0x01C2'8000, 0x1000, RegionKind::kMmio, World::kNonSecure});
    return m;
}

// --- MemoryMap ------------------------------------------------------------------

TEST(MemoryMap, RegionLookup) {
    MemoryMap m = make_map();
    EXPECT_TRUE(m.is_ram(kRamBase));
    EXPECT_TRUE(m.is_ram(kRamBase + kRamSize - 8));
    EXPECT_FALSE(m.is_ram(kRamBase + kRamSize));
    EXPECT_TRUE(m.is_mmio(0x01C2'8000));
    EXPECT_EQ(m.find_region(0xdead'beef'0000ull), nullptr);
}

TEST(MemoryMap, RejectsOverlappingRegions) {
    MemoryMap m = make_map();
    EXPECT_THROW(m.add_region({"dup", kRamBase + 0x1000, 0x1000, RegionKind::kRam,
                               World::kNonSecure}),
                 std::invalid_argument);
}

TEST(MemoryMap, RejectsUnalignedRegion) {
    MemoryMap m;
    EXPECT_THROW(
        m.add_region({"bad", 0x100, 0x1000, RegionKind::kRam, World::kNonSecure}),
        std::invalid_argument);
}

TEST(MemoryMap, RamBytesByWorld) {
    MemoryMap m = make_map(64ull << 20);
    EXPECT_EQ(m.ram_bytes(), kRamSize);
    EXPECT_EQ(m.ram_bytes(World::kSecure), 64ull << 20);
    EXPECT_EQ(m.ram_bytes(World::kNonSecure), kRamSize - (64ull << 20));
}

TEST(MemoryMap, AllocatesContiguousOwnedFrames) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(16, 3, World::kNonSecure);
    EXPECT_TRUE(m.owned_span(a, 16 * kPageSize, 3));
    EXPECT_FALSE(m.owned_span(a, 17 * kPageSize, 3));
    EXPECT_EQ(m.allocated_frames(), 16u);
}

TEST(MemoryMap, AllocationsDoNotOverlap) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(8, 1, World::kNonSecure);
    const PhysAddr b = m.alloc_frames(8, 2, World::kNonSecure);
    EXPECT_TRUE(a + 8 * kPageSize <= b || b + 8 * kPageSize <= a);
    EXPECT_TRUE(m.owned_span(a, 8 * kPageSize, 1));
    EXPECT_TRUE(m.owned_span(b, 8 * kPageSize, 2));
}

TEST(MemoryMap, FreeAndReuse) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(8, 1, World::kNonSecure);
    m.free_frames(a, 8);
    EXPECT_EQ(m.allocated_frames(), 0u);
    const PhysAddr b = m.alloc_frames(8, 2, World::kNonSecure);
    EXPECT_EQ(a, b);  // first fit reuses the hole
}

TEST(MemoryMap, DoubleFreeThrows) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(2, 1, World::kNonSecure);
    m.free_frames(a, 2);
    EXPECT_THROW(m.free_frames(a, 2), std::logic_error);
}

TEST(MemoryMap, SecureAllocationComesFromSecureRegion) {
    MemoryMap m = make_map(64ull << 20);
    const PhysAddr s = m.alloc_frames(4, 1, World::kSecure);
    EXPECT_EQ(m.world_of(s), World::kSecure);
}

TEST(MemoryMap, OutOfMemoryThrows) {
    MemoryMap m;
    m.add_region({"tiny", kRamBase, 4 * kPageSize, RegionKind::kRam,
                  World::kNonSecure});
    (void)m.alloc_frames(4, 1, World::kNonSecure);
    EXPECT_THROW(m.alloc_frames(1, 2, World::kNonSecure), std::runtime_error);
}

TEST(MemoryMap, StoreReadsBackWrites) {
    MemoryMap m = make_map();
    m.write64(kRamBase + 0x100, 0xdeadbeefcafef00dull, World::kNonSecure);
    EXPECT_EQ(m.read64(kRamBase + 0x100, World::kNonSecure), 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.read64(kRamBase + 0x108, World::kNonSecure), 0u);  // zero default
}

TEST(MemoryMap, TrustZoneBlocksNonSecureAccess) {
    MemoryMap m = make_map(64ull << 20);
    const PhysAddr s = m.alloc_frames(1, 1, World::kSecure);
    m.write64(s, 42, World::kSecure);
    EXPECT_EQ(m.check_physical_access(s, World::kNonSecure), FaultKind::kSecurity);
    EXPECT_THROW((void)m.read64(s, World::kNonSecure), std::runtime_error);
    // Secure masters can reach both worlds.
    EXPECT_EQ(m.check_physical_access(s, World::kSecure), FaultKind::kNone);
    EXPECT_EQ(m.check_physical_access(kRamBase, World::kSecure), FaultKind::kNone);
}

TEST(MemoryMap, SetOwnerTransfersFrames) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(4, 1, World::kNonSecure);
    m.set_owner(a, 4, 9);
    EXPECT_TRUE(m.owned_span(a, 4 * kPageSize, 9));
    EXPECT_FALSE(m.owned_span(a, 4 * kPageSize, 1));
}

// --- MemoryMap extents ----------------------------------------------------------

TEST(MemoryMapExtents, FirstFitReusesAnInteriorHole) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(16, 1, World::kNonSecure);
    const PhysAddr b = m.alloc_frames(16, 2, World::kNonSecure);
    ASSERT_EQ(b, a + 16 * kPageSize);
    m.set_owner(a + 4 * kPageSize, 8, 7);  // A is now 1 | 7 | 1
    m.free_frames(a + 6 * kPageSize, 4);   // punch frames [6, 10) out of the 7s
    EXPECT_EQ(m.allocated_frames(), 28u);
    // Too big for the hole: lands after B.
    EXPECT_EQ(m.alloc_frames(5, 3, World::kNonSecure), b + 16 * kPageSize);
    // Fits: first fit takes the hole, not the space after B.
    EXPECT_EQ(m.alloc_frames(4, 4, World::kNonSecure), a + 6 * kPageSize);
    const VmId want[16] = {1, 1, 1, 1, 7, 7, 4, 4, 4, 4, 7, 7, 1, 1, 1, 1};
    for (std::uint64_t f = 0; f < 16; ++f) {
        const auto o = m.owner_of(a + f * kPageSize);
        ASSERT_TRUE(o.has_value()) << "frame " << f;
        EXPECT_EQ(o->vm, want[f]) << "frame " << f;
    }
    // free_owned_by frees both of 7's runs and nothing else.
    m.free_owned_by(7);
    EXPECT_EQ(m.allocated_frames(), 33u);
    for (std::uint64_t f = 0; f < 16; ++f) {
        const auto o = m.owner_of(a + f * kPageSize);
        EXPECT_EQ(o.has_value(), want[f] != 7) << "frame " << f;
        if (o) {
            EXPECT_EQ(o->vm, want[f]) << "frame " << f;
        }
    }
}

// The first, second and last word of a frame.
constexpr std::uint64_t kWordOffsets[] = {0, 8, kPageSize - 8};

// Write a distinct non-zero value to those words of `frames` frames.
void fill_words(MemoryMap& m, PhysAddr base, std::uint64_t frames) {
    for (std::uint64_t f = 0; f < frames; ++f) {
        for (const std::uint64_t off : kWordOffsets) {
            m.write64(base + f * kPageSize + off, 0x100 + f * kPageSize + off,
                      World::kNonSecure);
        }
    }
}

TEST(MemoryMapExtents, FreeFramesScrubsExactlyItsRange) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(6, 1, World::kNonSecure);
    fill_words(m, a, 6);
    m.free_frames(a + 2 * kPageSize, 2);
    for (std::uint64_t f = 0; f < 6; ++f) {
        const bool freed = f == 2 || f == 3;
        for (const std::uint64_t off : kWordOffsets) {
            EXPECT_EQ(m.read64(a + f * kPageSize + off, World::kNonSecure),
                      freed ? 0 : 0x100 + f * kPageSize + off)
                << "frame " << f << " offset " << off;
        }
    }
}

TEST(MemoryMapExtents, RefusedFreeScrubsNothing) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(6, 1, World::kNonSecure);
    m.free_frames(a + 2 * kPageSize, 1);
    fill_words(m, a, 6);
    EXPECT_THROW(m.free_frames(a, 6), std::logic_error);
    for (std::uint64_t f = 0; f < 6; ++f) {
        for (const std::uint64_t off : kWordOffsets) {
            EXPECT_EQ(m.read64(a + f * kPageSize + off, World::kNonSecure),
                      0x100 + f * kPageSize + off)
                << "frame " << f << " offset " << off;
        }
    }
}

TEST(MemoryMapExtents, PartlyFreeRangeIsRefusedWhole) {
    MemoryMap m = make_map();
    const PhysAddr a = m.alloc_frames(8, 1, World::kNonSecure);
    m.free_frames(a + 2 * kPageSize, 2);
    EXPECT_THROW(m.free_frames(a, 8), std::logic_error);
    EXPECT_THROW(m.set_owner(a, 8, 5), std::logic_error);
    EXPECT_EQ(m.allocated_frames(), 6u);
    EXPECT_TRUE(m.owned_span(a, 2 * kPageSize, 1));
    EXPECT_FALSE(m.owner_of(a + 2 * kPageSize).has_value());
    EXPECT_FALSE(m.owner_of(a + 3 * kPageSize).has_value());
    EXPECT_TRUE(m.owned_span(a + 4 * kPageSize, 4 * kPageSize, 1));
}

// Random alloc / free / set_owner sequences against a per-frame model:
// owner_of must agree on every frame, so on both sides of every extent
// boundary, and a refused call must leave the map as it was.
class MemoryMapExtentModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryMapExtentModel, OwnerOfMatchesPerFrameModel) {
    constexpr std::uint64_t kFrames = 128;
    MemoryMap m;
    m.add_region({"ram", kRamBase, kFrames * kPageSize, RegionKind::kRam,
                  World::kNonSecure});
    std::vector<int> model(kFrames, -1);  // owner per frame, -1 = free
    const auto pa = [](std::uint64_t f) { return kRamBase + f * kPageSize; };
    sim::Rng rng(GetParam());
    for (int step = 0; step < 400; ++step) {
        const std::uint64_t n = 1 + rng.next_below(8);
        const auto owner = static_cast<VmId>(1 + rng.next_below(3));
        const std::uint64_t f = rng.next_below(kFrames - n + 1);
        const auto range = model.begin() + static_cast<std::ptrdiff_t>(f);
        const bool held = std::all_of(range, range + static_cast<std::ptrdiff_t>(n),
                                      [](int o) { return o >= 0; });
        switch (rng.next_below(3)) {
            case 0: {
                std::uint64_t fit = kFrames;
                for (std::uint64_t i = 0, run = 0; i < kFrames && fit == kFrames; ++i) {
                    run = model[i] < 0 ? run + 1 : 0;
                    if (run == n) fit = i + 1 - n;
                }
                if (fit == kFrames) {
                    EXPECT_THROW(m.alloc_frames(n, owner, World::kNonSecure),
                                 std::runtime_error);
                } else {
                    ASSERT_EQ(m.alloc_frames(n, owner, World::kNonSecure), pa(fit));
                    std::fill_n(model.begin() + static_cast<std::ptrdiff_t>(fit), n, owner);
                }
                break;
            }
            case 1:
                if (held) {
                    m.free_frames(pa(f), n);
                    std::fill_n(range, n, -1);
                } else {
                    EXPECT_THROW(m.free_frames(pa(f), n), std::logic_error);
                }
                break;
            default:
                if (held) {
                    m.set_owner(pa(f), n, owner);
                    std::fill_n(range, n, owner);
                } else {
                    EXPECT_THROW(m.set_owner(pa(f), n, owner), std::logic_error);
                }
                break;
        }
        std::uint64_t allocated = 0;
        for (std::uint64_t i = 0; i < kFrames; ++i) {
            const auto o = m.owner_of(pa(i));
            ASSERT_EQ(o.has_value(), model[i] >= 0) << "step " << step << " frame " << i;
            if (!o) continue;
            ASSERT_EQ(static_cast<int>(o->vm), model[i]) << "step " << step << " frame " << i;
            ++allocated;
        }
        ASSERT_EQ(m.allocated_frames(), allocated) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryMapExtentModel, ::testing::Values(1, 2, 3, 4));

TEST(MemoryMapExtents, ClearingTheMiddleOfATagRunStaysExact) {
    MemoryMap m = make_map();
    const auto tagged = [&m](std::uint64_t f) {
        return m.integrity_tagged(kRamBase + f * kPageSize);
    };
    m.set_integrity_tag(kRamBase, 8, true);
    m.set_integrity_tag(kRamBase, 8, true);  // idempotent
    m.set_integrity_tag(kRamBase + 2 * kPageSize, 4, false);
    m.set_integrity_tag(kRamBase + 2 * kPageSize, 4, false);
    for (std::uint64_t f = 0; f < 9; ++f) {
        EXPECT_EQ(tagged(f), f < 2 || (f >= 6 && f < 8)) << "frame " << f;
    }
    m.set_integrity_tag(kRamBase, 2, false);
    EXPECT_TRUE(m.has_integrity_tags());
    m.set_integrity_tag(kRamBase + 6 * kPageSize, 2, false);
    EXPECT_FALSE(m.has_integrity_tags());
    // A range running off the end of RAM is refused whole.
    EXPECT_THROW(m.set_integrity_tag(kRamBase + kRamSize - kPageSize, 2, true),
                 std::invalid_argument);
    EXPECT_FALSE(m.has_integrity_tags());
    // Freeing tagged frames drops their tags.
    const PhysAddr a = m.alloc_frames(4, 1, World::kNonSecure);
    m.set_integrity_tag(a + kPageSize, 2, true);
    m.free_frames(a, 4);
    EXPECT_FALSE(m.has_integrity_tags());
}

// The remap-then-read shape of the ProtoKernel and qemu MMU self-tests,
// through the SPM: donate one frame out of a 2 MiB block. The new owner's IPA
// reads the donated backing, and the donor's IPA faults at once: every access
// walks the live stage-2, so no translation read before the donation
// survives it.
TEST(MemoryMapRemap, DonatedFrameLeavesNoStaleTranslation) {
    for (const Isa isa : {Isa::kArm, Isa::kRiscv}) {
        SCOPED_TRACE(to_string(isa));
        PlatformConfig pcfg = PlatformConfig::pine_a64();
        pcfg.isa = isa;
        Platform platform(pcfg);
        hafnium::Manifest manifest;
        hafnium::VmSpec primary;
        primary.name = "primary";
        primary.role = hafnium::VmRole::kPrimary;
        primary.mem_bytes = 64ull << 20;
        primary.vcpu_count = 4;
        primary.image = {1};
        hafnium::VmSpec donor_spec;
        donor_spec.name = "donor";
        donor_spec.role = hafnium::VmRole::kSecondary;
        donor_spec.mem_bytes = 32ull << 20;
        donor_spec.vcpu_count = 1;
        donor_spec.image = {2};
        manifest.vms = {primary, donor_spec};
        hafnium::Spm spm(platform, manifest);
        spm.boot();
        hafnium::Vm& donor = *spm.find_vm("donor");

        const IpaAddr own = 0x5000;          // inside the donor's first 2 MiB block
        const IpaAddr window = 0x6100'0000;  // a hole in the primary's stage-2
        const WalkResult block = spm.vm_translate(donor.id(), own);
        ASSERT_EQ(donor.stage2().format().span(block.level), 2ull << 20);
        const PhysAddr pa = block.out;
        ASSERT_TRUE(spm.vm_write64(donor.id(), own, 0x5eed));

        std::uint64_t v = 0;
        ASSERT_TRUE(spm.vm_read64(donor.id(), own, v));
        ASSERT_EQ(v, 0x5eedu);

        ASSERT_TRUE(hf::mem_donate(spm, 0, donor.id(), kPrimaryVmId, own, 1, window).ok());
        v = 0x0bad;
        EXPECT_FALSE(spm.vm_read64(donor.id(), own, v));
        EXPECT_EQ(v, 0x0badu);
        EXPECT_EQ(spm.vm_translate(donor.id(), own).fault, FaultKind::kTranslation);
        EXPECT_EQ(spm.vm_translate(donor.id(), own + kPageSize).out, pa + kPageSize);

        ASSERT_TRUE(spm.vm_read64(kPrimaryVmId, window, v));
        EXPECT_EQ(v, 0x5eedu);
        EXPECT_EQ(spm.vm_translate(kPrimaryVmId, window).out, pa);
        // The donor's run split around the one frame.
        EXPECT_EQ(platform.mem().owner_of(pa - kPageSize)->vm, donor.id());
        EXPECT_EQ(platform.mem().owner_of(pa)->vm, kPrimaryVmId);
        EXPECT_EQ(platform.mem().owner_of(pa + kPageSize)->vm, donor.id());
    }
}

// --- PageTable ------------------------------------------------------------------

TEST(PageTable, SinglePageMapping) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, kPageSize, kPermRW);
    const WalkResult w = pt.walk(0x1234);
    EXPECT_EQ(w.fault, FaultKind::kNone);
    EXPECT_EQ(w.out, 0x8000'0234u);
    EXPECT_EQ(w.level, 3);
    EXPECT_EQ(w.perms, kPermRW);
}

TEST(PageTable, UnmappedFaults) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, kPageSize, kPermRW);
    EXPECT_EQ(pt.walk(0x2000).fault, FaultKind::kTranslation);
    EXPECT_EQ(pt.walk(0x0).fault, FaultKind::kTranslation);
}

TEST(PageTable, Uses2MBBlocksWhenAligned) {
    PageTable pt;
    pt.map(0, 0x4000'0000, 2ull << 20, kPermRWX);
    const WalkResult w = pt.walk(0x123456);
    EXPECT_EQ(w.fault, FaultKind::kNone);
    EXPECT_EQ(w.level, 2);  // 2 MiB block entry
    EXPECT_EQ(w.out, 0x4000'0000ull + 0x123456);
    EXPECT_EQ(pt.mapping_count(), 1u);
}

TEST(PageTable, Uses1GBBlocksWhenAligned) {
    PageTable pt;
    pt.map(0, 0x4000'0000, 1ull << 30, kPermRWX);
    EXPECT_EQ(pt.walk(0x3fff'ffff).level, 1);
    EXPECT_EQ(pt.mapping_count(), 1u);
    EXPECT_EQ(pt.node_count(), 2u);  // root + L1
}

TEST(PageTable, ForcePagesAvoidsBlocks) {
    PageTable pt;
    pt.map(0, 0x4000'0000, 2ull << 20, kPermRWX, false, /*force_pages=*/true);
    EXPECT_EQ(pt.walk(0).level, 3);
    EXPECT_EQ(pt.mapping_count(), 512u);
}

TEST(PageTable, MixedAlignmentUsesPagesThenBlocks) {
    PageTable pt;
    // 2 MiB + one page, starting one page below a 2 MiB boundary.
    pt.map((2ull << 20) - kPageSize, 0x4000'0000 + (2ull << 20) - kPageSize,
           (2ull << 20) + kPageSize, kPermRW);
    EXPECT_EQ(pt.walk((2ull << 20) - kPageSize).level, 3);
    EXPECT_EQ(pt.walk(2ull << 20).level, 2);
    EXPECT_EQ(pt.mapped_bytes(), (2ull << 20) + kPageSize);
}

TEST(PageTable, OverlapThrows) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, kPageSize, kPermRW);
    EXPECT_THROW(pt.map(0x1000, 0x9000'0000, kPageSize, kPermRW), std::logic_error);
}

TEST(PageTable, OverlapWithBlockThrows) {
    PageTable pt;
    pt.map(0, 0x4000'0000, 2ull << 20, kPermRW);
    EXPECT_THROW(pt.map(0x10'0000, 0x9000'0000, kPageSize, kPermRW),
                 std::logic_error);
}

TEST(PageTable, UnmapRemovesTranslation) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, 4 * kPageSize, kPermRW);
    pt.unmap(0x2000, kPageSize);
    EXPECT_EQ(pt.walk(0x1000).fault, FaultKind::kNone);
    EXPECT_EQ(pt.walk(0x2000).fault, FaultKind::kTranslation);
    EXPECT_EQ(pt.walk(0x3000).fault, FaultKind::kNone);
    EXPECT_EQ(pt.mapping_count(), 3u);
}

TEST(PageTable, UnmapIsIdempotentOnHoles) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, kPageSize, kPermRW);
    EXPECT_NO_THROW(pt.unmap(0x10'0000, 16 * kPageSize));
    EXPECT_EQ(pt.mapping_count(), 1u);
}

TEST(PageTable, PartialBlockUnmapSplitsBlock) {
    PageTable pt;
    pt.map(0, 0x4000'0000, 2ull << 20, kPermRW);
    ASSERT_EQ(pt.walk(0).level, 2);  // block entry
    pt.unmap(0x3000, kPageSize);     // carve one page out of the block
    EXPECT_EQ(pt.walk(0x3000).fault, FaultKind::kTranslation);
    // Neighbours survive with identical translations, now via L3 pages.
    const WalkResult before = pt.walk(0x2000);
    EXPECT_EQ(before.fault, FaultKind::kNone);
    EXPECT_EQ(before.out, 0x4000'2000u);
    EXPECT_EQ(before.level, 3);
    EXPECT_EQ(pt.walk(0x4000).out, 0x4000'4000u);
    EXPECT_EQ(pt.mapped_bytes(), (2ull << 20) - kPageSize);
}

TEST(PageTable, PartialBlockProtectSplitsBlock) {
    PageTable pt;
    pt.map(0, 0x4000'0000, 2ull << 20, kPermRWX);
    pt.protect(0x5000, 2 * kPageSize, kPermR);
    EXPECT_EQ(pt.walk(0x5000).perms, kPermR);
    EXPECT_EQ(pt.walk(0x6000).perms, kPermR);
    EXPECT_EQ(pt.walk(0x4000).perms, kPermRWX);
    EXPECT_EQ(pt.walk(0x7000).perms, kPermRWX);
    // Translations unchanged by the split.
    EXPECT_EQ(pt.walk(0x5008).out, 0x4000'5008u);
}

TEST(PageTable, ProtectChangesPerms) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, kPageSize, kPermRW);
    pt.protect(0x1000, kPageSize, kPermR);
    EXPECT_EQ(pt.walk(0x1000).perms, kPermR);
}

TEST(PageTable, ProtectUnmappedThrows) {
    PageTable pt;
    EXPECT_THROW(pt.protect(0x1000, kPageSize, kPermR), std::logic_error);
}

TEST(PageTable, AddressSizeFault) {
    PageTable pt;
    EXPECT_EQ(pt.walk(1ull << 48).fault, FaultKind::kAddressSize);
    EXPECT_THROW(pt.map(1ull << 48, 0, kPageSize, kPermRW), std::invalid_argument);
}

TEST(PageTable, SecureBitPropagates) {
    PageTable pt;
    pt.map(0x1000, 0x8000'0000, kPageSize, kPermRW, /*secure=*/true);
    EXPECT_TRUE(pt.walk(0x1000).secure);
}

// Property sweep: random disjoint mappings walk back exactly.
class PageTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableProperty, RandomDisjointMappingsRoundTrip) {
    sim::Rng rng(GetParam());
    PageTable pt;
    struct M {
        std::uint64_t in, out, size;
    };
    std::vector<M> maps;
    for (int i = 0; i < 40; ++i) {
        // Slot mappings into disjoint 4 MiB lanes to guarantee no overlap.
        const std::uint64_t lane = (i + 1) * (4ull << 20);
        const std::uint64_t pages = 1 + rng.next_below(16);
        const std::uint64_t off = rng.next_below(64) * kPageSize;
        const std::uint64_t out = 0x8000'0000ull + (rng.next_below(1 << 20)) * kPageSize;
        pt.map(lane + off, out, pages * kPageSize, kPermRW);
        maps.push_back({lane + off, out, pages * kPageSize});
    }
    for (const auto& m : maps) {
        for (std::uint64_t a = m.in; a < m.in + m.size; a += kPageSize / 2) {
            const WalkResult w = pt.walk(a);
            ASSERT_EQ(w.fault, FaultKind::kNone);
            EXPECT_EQ(w.out, m.out + (a - m.in));
        }
        // One page past the end must not resolve into this mapping.
        const WalkResult past = pt.walk(m.in + m.size);
        if (past.fault == FaultKind::kNone) {
            EXPECT_NE(past.out, m.out + m.size);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// map/unmap/protect refuse a range past the input limit (or one whose end
// wraps) instead of letting the index mask alias it onto low addresses.
TEST(PageTable, OutOfRangeCallsLeaveLowAddressesAlone) {
    for (const PtFormat fmt : {PtFormat::armv8_4k(), PtFormat::sv39x4()}) {
        SCOPED_TRACE(fmt.input_bits);
        const std::uint64_t limit = fmt.input_limit();
        PageTable pt(fmt);
        pt.map(0, 0x8000'0000, kPageSize, kPermRW);
        EXPECT_THROW(pt.unmap(limit, kPageSize), std::invalid_argument);
        EXPECT_THROW(pt.protect(limit, kPageSize, kPermNone), std::invalid_argument);
        EXPECT_THROW(pt.unmap(limit - kPageSize, 2 * kPageSize), std::invalid_argument);
        const WalkResult w = pt.walk(0);
        EXPECT_EQ(w.fault, FaultKind::kNone);
        EXPECT_EQ(w.out, 0x8000'0000u);
        EXPECT_EQ(w.perms, kPermRW);
        EXPECT_EQ(pt.mapping_count(), 1u);

        PageTable fresh(fmt);
        EXPECT_THROW(fresh.map(0xFFFF'FFFF'FFFF'F000, 0x9000'0000, 2 * kPageSize, kPermRW),
                     std::invalid_argument);
        EXPECT_EQ(fresh.walk(0).fault, FaultKind::kTranslation);
        EXPECT_EQ(fresh.mapping_count(), 0u);
    }
}

// --- PageTable folding and runs, on every format --------------------------------

struct NamedFormat {
    const char* name;
    PtFormat fmt;
};

constexpr NamedFormat kFormats[] = {
    {"armv8_4k", PtFormat::armv8_4k()},
    {"sv39", PtFormat::sv39()},
    {"sv39x4", PtFormat::sv39x4()},
};

constexpr std::uint64_t kGiB = 1ull << 30;
constexpr std::uint64_t k2MiB = 2ull << 20;

class PageTableFold : public ::testing::TestWithParam<NamedFormat> {};

// Carving pages out of a block and restoring them folds the block back: the
// walk ends at the block level again and the split tables are gone.
TEST_P(PageTableFold, RestoredBlockWalksAtItsBlockLevelAgain) {
    const PtFormat fmt = GetParam().fmt;
    PageTable pt(fmt);
    pt.map(kGiB, 0x4000'0000, kGiB, kPermRWX);
    pt.map(2 * kGiB, 0x8000'0000, 2 * k2MiB, kPermRW, /*secure=*/true);
    const int giga = pt.walk(kGiB).level;
    const int mega = pt.walk(2 * kGiB + k2MiB).level;
    ASSERT_EQ(fmt.span(giga), kGiB);
    ASSERT_EQ(fmt.span(mega), k2MiB);
    const std::uint64_t nodes = pt.node_count();
    const std::uint64_t maps = pt.mapping_count();

    // Protect to none and back: the 1 GiB block splits twice, then folds.
    const IpaAddr lent = kGiB + 5 * kPageSize;
    pt.protect(lent, 3 * kPageSize, kPermNone);
    EXPECT_EQ(pt.walk(lent).perms, kPermNone);
    EXPECT_EQ(pt.walk(lent).level, fmt.levels - 1);
    EXPECT_EQ(pt.node_count(), nodes + 2);
    pt.protect(lent, 3 * kPageSize, kPermRWX);
    EXPECT_EQ(pt.walk(lent).level, giga);
    EXPECT_EQ(pt.walk(lent + 8).out, 0x4000'0000u + 5 * kPageSize + 8);
    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(pt.mapping_count(), maps);

    // Unmap a page and map it back to the same frame (a donation and its
    // return): the 2 MiB block folds once the hole is filled.
    const IpaAddr donated = 2 * kGiB + k2MiB + 7 * kPageSize;
    pt.unmap(donated, kPageSize);
    EXPECT_EQ(pt.node_count(), nodes + 1);
    pt.map(donated, 0x8000'0000 + k2MiB + 7 * kPageSize, kPageSize, kPermRW,
           /*secure=*/true);
    const WalkResult w = pt.walk(donated);
    EXPECT_EQ(w.level, mega);
    EXPECT_EQ(w.out, 0x8000'0000u + k2MiB + 7 * kPageSize);
    EXPECT_TRUE(w.secure);
    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(pt.mapping_count(), maps);
    EXPECT_EQ(pt.mapped_bytes(), kGiB + 2 * k2MiB);
}

// Tables that are not one block's worth of uniform leaves stay split.
TEST_P(PageTableFold, NonUniformTablesStaySplit) {
    const PtFormat fmt = GetParam().fmt;
    const int page = fmt.levels - 1;
    PageTable pt(fmt);

    // A donated hole, refilled from another frame.
    pt.map(0, 0x4000'0000, k2MiB, kPermRW);
    pt.unmap(3 * kPageSize, kPageSize);
    pt.map(3 * kPageSize, 0x9000'0000, kPageSize, kPermRW);
    EXPECT_EQ(pt.walk(0).level, page);
    EXPECT_EQ(pt.walk(3 * kPageSize).out, 0x9000'0000u);

    // The right frame comes back, but with a differing secure bit.
    pt.map(k2MiB, 0x4020'0000, k2MiB, kPermRW);
    pt.unmap(k2MiB + 9 * kPageSize, kPageSize);
    pt.map(k2MiB + 9 * kPageSize, 0x4020'0000 + 9 * kPageSize, kPageSize, kPermRW,
           /*secure=*/true);
    EXPECT_EQ(pt.walk(k2MiB).level, page);
    EXPECT_TRUE(pt.walk(k2MiB + 9 * kPageSize).secure);

    // Contiguous, uniform leaves whose output is one page off a 2 MiB
    // boundary, and 2 MiB blocks whose output is off a 1 GiB boundary.
    pt.map(2 * k2MiB, 0x4040'1000, k2MiB, kPermRW);
    pt.map(kGiB, 0x4020'0000, kGiB, kPermRW);
    const int mega = pt.walk(kGiB).level;
    ASSERT_EQ(fmt.span(mega), k2MiB);
    const std::uint64_t nodes = pt.node_count();
    pt.protect(2 * k2MiB, kPageSize, kPermR);
    pt.protect(2 * k2MiB, kPageSize, kPermRW);
    pt.protect(kGiB, kPageSize, kPermR);
    pt.protect(kGiB, kPageSize, kPermRW);
    EXPECT_EQ(pt.walk(2 * k2MiB).level, page);
    EXPECT_EQ(pt.walk(kGiB).level, mega);
    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(pt.mapping_count(), 4 * 512u);
}

// A block-sized map over a table that unmaps emptied is not an overlap: it
// fills the table, which folds into the block.
TEST_P(PageTableFold, BlockMapsOverAnEmptiedTable) {
    const PtFormat fmt = GetParam().fmt;
    PageTable pt(fmt);
    pt.map(0, 0x4000'0000, k2MiB, kPermRW);
    const int mega = pt.walk(0).level;
    const std::uint64_t nodes = pt.node_count();
    pt.unmap(kPageSize, kPageSize);  // splits the block
    pt.unmap(0, k2MiB);
    EXPECT_EQ(pt.mapping_count(), 0u);
    ASSERT_NO_THROW(pt.map(0, 0x5000'0000, k2MiB, kPermRWX));
    const WalkResult w = pt.walk(kPageSize + 8);
    EXPECT_EQ(w.level, mega);
    EXPECT_EQ(w.out, 0x5000'0000u + kPageSize + 8);
    EXPECT_EQ(w.perms, kPermRWX);
    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(pt.mapping_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Formats, PageTableFold, ::testing::ValuesIn(kFormats),
                         [](const ::testing::TestParamInfo<NamedFormat>& info) {
                             return std::string(info.param.name);
                         });

// The generation is what check::Auditor keys its cached runs on: every call
// that may change a mapping moves it before changing anything, even one that
// throws part-way, and reads or calls refused up front leave it alone.
TEST(PageTable, GenerationMovesOnEveryMutation) {
    for (const NamedFormat& f : kFormats) {
        SCOPED_TRACE(f.name);
        PageTable pt(f.fmt);
        std::uint64_t seen = pt.generation();
        const auto moved = [&pt, &seen] {
            const bool changed = pt.generation() != seen;
            seen = pt.generation();
            return changed;
        };

        pt.map(kGiB, 0x4000'0000, k2MiB, kPermRW);
        EXPECT_TRUE(moved());
        pt.protect(kGiB + kPageSize, kPageSize, kPermR);  // splits the block
        EXPECT_TRUE(moved());
        pt.protect(kGiB + kPageSize, kPageSize, kPermRW);  // folds it back
        EXPECT_TRUE(moved());
        pt.unmap(kGiB + 2 * kPageSize, kPageSize);
        EXPECT_TRUE(moved());
        // The first page maps, then the second overlaps and throws.
        EXPECT_THROW(pt.map(kGiB - kPageSize, 0x5000'0000, 2 * kPageSize, kPermRW),
                     std::logic_error);
        EXPECT_EQ(pt.walk(kGiB - kPageSize).fault, FaultKind::kNone);
        EXPECT_TRUE(moved());
        EXPECT_THROW(pt.protect(0, kPageSize, kPermR), std::logic_error);  // unmapped
        EXPECT_TRUE(moved());

        (void)pt.walk(kGiB);
        pt.for_each_mapping([](const PageTable::MappingView&) {});
        EXPECT_THROW(pt.map(kGiB + 8, 0x5000'0000, kPageSize, kPermRW),
                     std::invalid_argument);
        EXPECT_THROW(pt.unmap(f.fmt.input_limit(), kPageSize), std::invalid_argument);
        EXPECT_THROW(pt.protect(kGiB, kPageSize + 8, kPermR), std::invalid_argument);
        EXPECT_FALSE(moved());

        // A moved-to table reads a generation neither old table had.
        PageTable built(std::move(pt));
        EXPECT_NE(built.generation(), seen);
        PageTable fresh(f.fmt);
        const std::uint64_t built_was = built.generation();
        const std::uint64_t fresh_was = fresh.generation();
        built = std::move(fresh);
        EXPECT_NE(built.generation(), built_was);
        EXPECT_NE(built.generation(), fresh_was);
        EXPECT_EQ(built.mapping_count(), 0u);
    }
}

// for_each_mapping over one 512-entry table of 2 MiB entries, valid only at
// its edges and around a four-entry group: blocks at entries 0, 3, 5, 510 and
// 511 and a table of pages at 509. The scan skips invalid descriptors in
// groups of four, so every run must still start, stop and join exactly
// where the per-page model says.
class PageTableRuns : public ::testing::TestWithParam<NamedFormat> {};

TEST_P(PageTableRuns, SparseTableEdgesMatchPerPageModel) {
    const PtFormat fmt = GetParam().fmt;
    constexpr IpaAddr kBase = kGiB;  // the 2 MiB-entry table covering [1, 2) GiB
    constexpr std::uint64_t kOut = 0x2'0000'0000;
    const auto entry = [](std::uint64_t e) { return kBase + e * k2MiB; };

    struct Map {
        IpaAddr in;
        std::uint64_t out;
        std::uint64_t size;
        std::uint8_t perms;
        bool secure;
    };
    const Map maps[] = {
        {entry(0), kOut, k2MiB, kPermRW, false},
        // Contiguous in output with entry 0 but not in input: its own run.
        {entry(3), kOut + k2MiB, k2MiB, kPermRW, false},
        {entry(5), kOut + 8 * k2MiB, k2MiB, kPermR, true},
        // Entry 509 is a table: its first two pages form one run, and its
        // last page runs on into the blocks at 510 and 511.
        {entry(509), kOut + 20 * k2MiB, 2 * kPageSize, kPermRWX, false},
        {entry(509) + 511 * kPageSize, kOut + 30 * k2MiB - kPageSize, kPageSize,
         kPermRWX, false},
        {entry(510), kOut + 30 * k2MiB, 2 * k2MiB, kPermRWX, false},
    };

    struct Ref {
        std::uint64_t out;
        std::uint8_t perms;
        bool secure;
    };
    std::map<IpaAddr, Ref> model;  // page input address -> mapping
    PageTable pt(fmt);
    for (const Map& m : maps) {
        pt.map(m.in, m.out, m.size, m.perms, m.secure, /*force_pages=*/m.size < k2MiB);
        for (std::uint64_t off = 0; off < m.size; off += kPageSize) {
            model[m.in + off] = {m.out + off, m.perms, m.secure};
        }
    }
    ASSERT_EQ(fmt.span(pt.walk(entry(0)).level), k2MiB);
    ASSERT_EQ(pt.walk(entry(509)).level, fmt.levels - 1);

    std::vector<PageTable::MappingView> runs;
    pt.for_each_mapping([&](const PageTable::MappingView& m) { runs.push_back(m); });
    ASSERT_EQ(runs.size(), 5u);
    std::uint64_t pages = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const PageTable::MappingView& m = runs[k];
        SCOPED_TRACE(::testing::Message() << "run " << k << " at 0x" << std::hex
                                          << m.in_base);
        if (k > 0) {
            const PageTable::MappingView& prev = runs[k - 1];
            ASSERT_LE(prev.in_base + prev.size, m.in_base);
            EXPECT_FALSE(prev.in_base + prev.size == m.in_base &&
                         prev.out_base + prev.size == m.out_base &&
                         prev.perms == m.perms && prev.secure == m.secure)
                << "continues the run before it";
        }
        for (std::uint64_t off = 0; off < m.size; off += kPageSize, ++pages) {
            const auto it = model.find(m.in_base + off);
            ASSERT_NE(it, model.end()) << "page +0x" << off << " is not mapped";
            ASSERT_EQ(it->second.out, m.out_base + off);
            ASSERT_EQ(it->second.perms, m.perms);
            ASSERT_EQ(it->second.secure, m.secure);
        }
    }
    EXPECT_EQ(pages, model.size());
}

// refresh_runs must leave a cached run list equal to a full walk, whether
// it walks the logged ranges or, once more calls than the log holds went by,
// the whole table. Random map, unmap and protect calls over a 1 GiB window
// and the 2 MiB blocks after it split and fold blocks, force pages, throw
// part-way on an overlap or an unmapped page, and move the table out and
// back in or replace it, 1-6 calls between refreshes. A third of the ranges
// start or end at the edge of a run, where a refresh must join or cut.
TEST_P(PageTableRuns, RefreshedRunsMatchAFullWalk) {
    const PtFormat fmt = GetParam().fmt;
    constexpr IpaAddr kBase = kGiB;
    constexpr IpaAddr kEnd = 2 * kGiB + 4 * k2MiB;
    constexpr std::uint64_t kLinear = 3 * kGiB;  // the usual output offset
    const std::uint8_t kMapPerms[] = {kPermRW, kPermRW, kPermRWX, kPermR};
    const std::uint8_t kProtectPerms[] = {kPermRW, kPermRW, kPermRWX, kPermR, kPermNone};

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        sim::Rng rng(seed);
        PageTable pt(fmt);
        std::vector<PageTable::MappingView> cached;  // empty at generation 0
        std::uint64_t at = 0;
        int ranged = 0;
        int full = 0;
        int part_mapped = 0;  // maps that threw after mapping some pages
        int protect_throws = 0;

        // A range of whole blocks, of pages near a block edge, or of pages
        // on either side of an edge of a current run, clamped to the window.
        const auto pick_range = [&](IpaAddr& in, std::uint64_t& size) {
            const std::uint64_t pages = 1 + rng.next_below(64);
            const std::uint64_t shape = rng.next_below(3);
            std::vector<PageTable::MappingView> now;
            if (shape == 2) {
                pt.for_each_mapping(
                    [&now](const PageTable::MappingView& m) { now.push_back(m); });
            }
            if (shape == 0) {
                in = kBase + rng.next_below((kEnd - kBase) / k2MiB) * k2MiB;
                size = (1 + rng.next_below(3)) * k2MiB;
            } else if (shape == 1 || now.empty()) {
                in = kBase + rng.next_below((kEnd - kBase) / k2MiB) * k2MiB +
                     (rng.next_below(2) == 0 ? 0 : k2MiB - 16 * kPageSize) +
                     rng.next_below(16) * kPageSize;
                size = pages * kPageSize;
            } else {
                const PageTable::MappingView& r = now[rng.next_below(now.size())];
                const IpaAddr edge = rng.next_below(2) == 0 ? r.in_base : r.in_base + r.size;
                size = pages * kPageSize;
                in = rng.next_below(2) == 0 ? edge : std::max(kBase + size, edge) - size;
            }
            in = std::clamp(in, kBase, kEnd - kPageSize);
            size = std::min(size, kEnd - in);
        };

        for (int step = 0; step < 150; ++step) {
            const std::uint64_t calls = 1 + rng.next_below(6);
            for (std::uint64_t c = 0; c < calls; ++c) {
                IpaAddr in = 0;
                std::uint64_t size = 0;
                pick_range(in, size);
                const std::uint64_t kind = rng.next_below(20);
                if (kind < 8) {
                    const std::uint64_t out =
                        rng.next_below(4) != 0
                            ? in + kLinear
                            : (8 * kGiB + rng.next_below(64) * k2MiB) | (in & (k2MiB - 1));
                    const std::uint64_t mapped = pt.mapped_bytes();
                    try {
                        pt.map(in, out, size, kMapPerms[rng.next_below(4)],
                               /*secure=*/rng.next_below(8) == 0,
                               /*force_pages=*/rng.next_below(4) == 0);
                    } catch (const std::logic_error&) {
                        // An overlap: the pages before it stay mapped.
                        if (pt.mapped_bytes() != mapped) ++part_mapped;
                    }
                } else if (kind < 13) {
                    pt.unmap(in, size);
                } else if (kind < 19) {
                    try {
                        pt.protect(in, size, kProtectPerms[rng.next_below(5)]);
                    } catch (const std::logic_error&) {
                        ++protect_throws;  // an unmapped page
                    }
                } else if (rng.next_below(4) != 0) {
                    PageTable out_of_place(std::move(pt));
                    pt = std::move(out_of_place);
                } else {
                    pt = PageTable(fmt);  // as Spm::destroy_vm drops a stage-2
                }
            }

            (pt.generation() - at > PageTable::kChangeLog ? full : ranged) += 1;
            pt.refresh_runs(cached, at);
            at = pt.generation();

            std::vector<PageTable::MappingView> walked;
            pt.for_each_mapping(
                [&walked](const PageTable::MappingView& m) { walked.push_back(m); });
            ASSERT_EQ(cached.size(), walked.size()) << "step " << step;
            for (std::size_t k = 0; k < walked.size(); ++k) {
                SCOPED_TRACE(::testing::Message() << "step " << step << " run " << k);
                ASSERT_EQ(cached[k].in_base, walked[k].in_base);
                ASSERT_EQ(cached[k].out_base, walked[k].out_base);
                ASSERT_EQ(cached[k].size, walked[k].size);
                ASSERT_EQ(cached[k].perms, walked[k].perms);
                ASSERT_EQ(cached[k].secure, walked[k].secure);
            }
        }
        // Both paths ran (the ranged refresh and the full-walk fallback), and
        // so did a map that threw part-way and a protect that threw.
        EXPECT_GT(ranged, 0);
        EXPECT_GT(full, 0);
        EXPECT_GT(part_mapped, 0);
        EXPECT_GT(protect_throws, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, PageTableRuns, ::testing::ValuesIn(kFormats),
                         [](const ::testing::TestParamInfo<NamedFormat>& info) {
                             return std::string(info.param.name);
                         });

// Random map (blocks and pages), unmap and protect calls over a 1 GiB window
// and the two 2 MiB blocks after it, each checked against a per-page model.
class PageTableModel
    : public ::testing::TestWithParam<std::tuple<NamedFormat, std::uint64_t>> {};

TEST_P(PageTableModel, MatchesPerPageReference) {
    const PtFormat fmt = std::get<0>(GetParam()).fmt;
    sim::Rng rng(std::get<1>(GetParam()));
    constexpr IpaAddr kBase = kGiB;
    constexpr std::uint64_t kPages = (kGiB + 2 * k2MiB) / kPageSize;
    constexpr std::uint64_t kLinear = 3 * kGiB;  // default output offset

    struct Ref {
        bool mapped = false;
        std::uint64_t out = 0;
        std::uint8_t perms = kPermNone;
        bool secure = false;
    };
    std::vector<Ref> model(kPages);
    std::uint64_t model_pages = 0;
    PageTable pt(fmt);

    const auto page_of = [&](IpaAddr in) { return (in - kBase) / kPageSize; };
    const auto count_mapped = [&](IpaAddr in, std::uint64_t size) {
        std::uint64_t n = 0;
        for (std::uint64_t p = page_of(in); p < page_of(in + size); ++p) {
            n += model[p].mapped;
        }
        return n;
    };

    for (int step = 0; step < 150; ++step) {
        // Pick a range: the whole 1 GiB window, a few 2 MiB blocks, or a few
        // pages near a block boundary.
        IpaAddr in = kBase;
        std::uint64_t size = kGiB;
        const std::uint64_t shape = rng.next_below(10);
        if (shape >= 1 && shape <= 3) {
            in = kBase + rng.next_below(kPages * kPageSize / k2MiB) * k2MiB;
            size = (1 + rng.next_below(4)) * k2MiB;
        } else if (shape >= 4) {
            const IpaAddr hot[] = {kBase, kBase + kGiB - k2MiB, kBase + kGiB,
                                   kBase + kGiB + k2MiB,
                                   kBase + rng.next_below(512) * k2MiB};
            in = hot[rng.next_below(5)] + rng.next_below(512) * kPageSize;
            size = (1 + rng.next_below(64)) * kPageSize;
        }
        size = std::min(size, kBase + kPages * kPageSize - in);
        const std::uint64_t mapped = count_mapped(in, size);
        const std::uint64_t pages = size / kPageSize;

        std::uint64_t kind = rng.next_below(3);  // 0 map, 1 unmap, 2 protect
        if (kind == 0 && mapped != 0) kind = mapped == pages ? 2 : 1;
        if (kind == 2 && mapped != pages) kind = mapped == 0 ? 0 : 1;
        SCOPED_TRACE(::testing::Message() << "step " << step << " kind " << kind << " in 0x"
                                          << std::hex << in << " size 0x" << size);
        const std::uint8_t kPermChoice[] = {kPermRWX, kPermRWX, kPermRW, kPermR, kPermNone};
        if (kind == 0) {
            const std::uint64_t out =
                rng.next_below(4) != 0
                    ? in + kLinear
                    : (8 * kGiB + rng.next_below(4096) * k2MiB) | (in & (k2MiB - 1));
            const std::uint8_t perms = kPermChoice[rng.next_below(4)];
            const bool secure = rng.next_below(5) == 0;
            const bool force_pages = rng.next_below(4) == 0;
            pt.map(in, out, size, perms, secure, force_pages);
            for (std::uint64_t i = 0; i < pages; ++i) {
                model[page_of(in) + i] = {true, out + i * kPageSize, perms, secure};
            }
            model_pages += pages;
        } else if (kind == 1) {
            pt.unmap(in, size);
            for (std::uint64_t i = 0; i < pages; ++i) model[page_of(in) + i].mapped = false;
            model_pages -= mapped;
        } else {
            const std::uint8_t perms = kPermChoice[rng.next_below(5)];
            pt.protect(in, size, perms);
            for (std::uint64_t i = 0; i < pages; ++i) model[page_of(in) + i].perms = perms;
        }

        // Every touched page walks as the model says.
        for (std::uint64_t i = 0; i < pages; ++i) {
            const Ref& r = model[page_of(in) + i];
            const WalkResult w = pt.walk(in + i * kPageSize);
            ASSERT_EQ(w.fault == FaultKind::kNone, r.mapped) << "page " << i;
            if (!r.mapped) continue;
            ASSERT_EQ(w.out, r.out) << "page " << i;
            ASSERT_EQ(w.perms, r.perms) << "page " << i;
            ASSERT_EQ(w.secure, r.secure) << "page " << i;
        }

        // The runs are sorted, disjoint and maximal, and cover exactly the
        // model's pages; the counters match a recount of terminal entries.
        std::vector<PageTable::MappingView> runs;
        pt.for_each_mapping([&](const PageTable::MappingView& m) { runs.push_back(m); });
        std::uint64_t run_pages = 0;
        std::uint64_t entries = 0;
        for (std::size_t k = 0; k < runs.size(); ++k) {
            const PageTable::MappingView& m = runs[k];
            ASSERT_GT(m.size, 0u);
            ASSERT_GE(m.in_base, kBase);
            ASSERT_LE(m.in_base + m.size, kBase + kPages * kPageSize);
            if (k > 0) {
                const PageTable::MappingView& prev = runs[k - 1];
                ASSERT_LE(prev.in_base + prev.size, m.in_base) << "run " << k;
                ASSERT_FALSE(prev.in_base + prev.size == m.in_base &&
                             prev.out_base + prev.size == m.out_base &&
                             prev.perms == m.perms && prev.secure == m.secure)
                    << "run " << k << " continues run " << k - 1;
            }
            for (std::uint64_t off = 0; off < m.size; off += kPageSize) {
                const Ref& r = model[page_of(m.in_base + off)];
                ASSERT_TRUE(r.mapped) << "run " << k;
                ASSERT_EQ(r.out, m.out_base + off) << "run " << k;
                ASSERT_EQ(r.perms, m.perms) << "run " << k;
                ASSERT_EQ(r.secure, m.secure) << "run " << k;
            }
            run_pages += m.size / kPageSize;
            for (IpaAddr a = m.in_base; a < m.in_base + m.size; ++entries) {
                a += fmt.span(pt.walk(a).level);
            }
        }
        ASSERT_EQ(run_pages, model_pages);
        ASSERT_EQ(pt.mapping_count(), entries);
        ASSERT_EQ(pt.mapped_bytes(), model_pages * kPageSize);
    }
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndSeeds, PageTableModel,
    ::testing::Combine(::testing::ValuesIn(kFormats), ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<NamedFormat, std::uint64_t>>& info) {
        return std::string(std::get<0>(info.param).name) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hpcsec::arch
