// Per-core MMU front end: one- or two-stage translation with TLB caching.
//
// Stage 1 (VA -> IPA) is owned by the executing kernel; stage 2 (IPA -> PA)
// is owned by the hypervisor and is what provides Hafnium's memory isolation
// guarantee. Natively (no hypervisor) stage 2 is absent and IPA == PA.
//
// translate() is the functional path used for correctness and security
// checks; its `table_accesses` output also feeds the performance model
// (nested walks are what make RandomAccess slower under virtualization).
#pragma once

#include <cstdint>

#include "arch/memory_map.h"
#include "arch/page_table.h"
#include "arch/tlb.h"
#include "arch/types.h"

namespace hpcsec::arch {

struct Translation {
    FaultKind fault = FaultKind::kNone;
    int fault_stage = 0;        ///< 1 or 2 when fault != kNone (0 = physical)
    PhysAddr pa = 0;
    int table_accesses = 0;     ///< memory reads the walk performed
    bool tlb_hit = false;
};

class Mmu {
public:
    explicit Mmu(MemoryMap& mem) : mem_(&mem) {}

    /// Install translation context (what TTBR/VTTBR + VMID/ASID encode).
    /// Either stage may be null: null stage-1 = identity VA->IPA (kernel
    /// idmap); null stage-2 = native execution, IPA == PA.
    void set_context(const PageTable* stage1, const PageTable* stage2, VmId vmid,
                     Asid asid, World world);

    [[nodiscard]] VmId vmid() const { return vmid_; }
    [[nodiscard]] Asid asid() const { return asid_; }
    [[nodiscard]] World world() const { return world_; }

    /// Full translation of a virtual address for an access kind.
    Translation translate(VirtAddr va, Access access);

    /// Functional guest memory access through the full translation path.
    /// Returns false (and leaves `value`) on any fault.
    bool read64(VirtAddr va, std::uint64_t& value);
    bool write64(VirtAddr va, std::uint64_t value);

    Tlb& tlb() { return tlb_; }
    const Tlb& tlb() const { return tlb_; }

private:
    Translation translate_uncached(VirtAddr va, Access access);

    /// L0: the last successful translation, one compare on the hit path.
    /// Streaming workloads touch the same page for many consecutive accesses;
    /// this skips the TLB's set scan entirely. Tagged with the TLB flush
    /// epoch so any TLBI (any scope) invalidates it; set_context resets it.
    struct L0Entry {
        std::uint64_t in_page = ~0ull;
        std::uint64_t out_page = 0;
        std::uint64_t epoch = 0;
        std::uint8_t perms = kPermNone;
    };

    MemoryMap* mem_;
    const PageTable* stage1_ = nullptr;
    const PageTable* stage2_ = nullptr;
    VmId vmid_ = 0;
    Asid asid_ = 0;
    World world_ = World::kNonSecure;
    Tlb tlb_;
    L0Entry l0_;
};

}  // namespace hpcsec::arch
