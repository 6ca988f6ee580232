#include "arch/mmu.h"

namespace hpcsec::arch {

void Mmu::set_context(const PageTable* stage1, const PageTable* stage2, VmId vmid,
                      Asid asid, World world) {
    stage1_ = stage1;
    stage2_ = stage2;
    vmid_ = vmid;
    asid_ = asid;
    world_ = world;
    l0_ = L0Entry{};  // the cached line belongs to the outgoing context
}

Translation Mmu::translate(VirtAddr va, Access access) {
    // L0 hit: same page as the last successful translation and no TLBI of
    // any scope since the fill. One compare + one epoch check; the
    // permission check still applies, exactly as on the TLB-hit path below.
    const std::uint64_t in_page = page_index(va);
    if (in_page == l0_.in_page && l0_.epoch == tlb_.flush_epoch()) {
        tlb_.note_front_hit();
        Translation t;
        if (!perms_allow(l0_.perms, access)) {
            t.fault = FaultKind::kPermission;
            t.fault_stage = stage1_ != nullptr ? 1 : 2;
            return t;
        }
        const PhysAddr pa = (l0_.out_page << kPageShift) | (va & kPageMask);
        // DFITAGCHECK on the hit path too: tag flips flush every TLB scope
        // (which bumps the epoch and so kills this line), but the check must
        // not *depend* on that wiring — a cached translation is never a
        // licence to touch a tagged frame. Tags-off cost: one predicted
        // branch on the resident counter.
        if (mem_->integrity_tagged(pa) && vmid_ != kHypervisorId) {
            t.fault = FaultKind::kTagViolation;
            t.fault_stage = 0;
            return t;
        }
        t.pa = pa;
        t.tlb_hit = true;
        return t;
    }

    // Combined-translation TLB hit short-circuits both walks, but the
    // permission check still applies (perms are cached in the entry).
    if (const TlbEntry* e = tlb_.lookup(vmid_, asid_, page_index(va))) {
        Translation t;
        if (!perms_allow(e->perms, access)) {
            t.fault = FaultKind::kPermission;
            t.fault_stage = stage1_ != nullptr ? 1 : 2;
            return t;
        }
        const PhysAddr pa = (e->out_page << kPageShift) | (va & kPageMask);
        if (mem_->integrity_tagged(pa) && vmid_ != kHypervisorId) {
            t.fault = FaultKind::kTagViolation;
            t.fault_stage = 0;
            return t;
        }
        t.pa = pa;
        t.tlb_hit = true;
        l0_ = {e->in_page, e->out_page, tlb_.flush_epoch(), e->perms};
        return t;
    }

    Translation t = translate_uncached(va, access);
    if (t.fault == FaultKind::kNone) {
        TlbEntry e;
        e.vmid = vmid_;
        e.asid = asid_;
        e.in_page = page_index(va);
        e.out_page = page_index(t.pa);
        // Cache the *combined* permissions so later accesses of other kinds
        // re-check correctly.
        std::uint8_t perms = kPermRWX;
        if (stage1_ != nullptr) perms &= stage1_->walk(va).perms;
        if (stage2_ != nullptr) {
            const std::uint64_t ipa =
                stage1_ != nullptr ? (stage1_->walk(va).out) : va;
            perms &= stage2_->walk(ipa).perms;
        }
        e.perms = perms;
        e.secure = mem_->world_of(t.pa) == World::kSecure;
        tlb_.insert(e);
        l0_ = {e.in_page, e.out_page, tlb_.flush_epoch(), e.perms};
    }
    return t;
}

Translation Mmu::translate_uncached(VirtAddr va, Access access) {
    Translation t;
    IpaAddr ipa = va;
    std::uint8_t perms = kPermRWX;

    if (stage1_ != nullptr) {
        const WalkResult s1 = stage1_->walk(va);
        // Each stage-1 table access is itself an IPA that needs stage-2
        // translation under virtualization: the classic nested-walk blowup.
        // The multiplier is the stage-2 format's depth (4 on ARMv8, 3 on
        // Sv39x4), so the blowup scales with the configured ISA.
        const int s2_per_access = stage2_ != nullptr ? stage2_->format().levels : 0;
        t.table_accesses += s1.table_accesses * (1 + s2_per_access);
        if (s1.fault != FaultKind::kNone) {
            t.fault = s1.fault;
            t.fault_stage = 1;
            return t;
        }
        ipa = s1.out;
        perms &= s1.perms;
    }

    PhysAddr pa = ipa;
    if (stage2_ != nullptr) {
        const WalkResult s2 = stage2_->walk(ipa);
        t.table_accesses += s2.table_accesses;
        if (s2.fault != FaultKind::kNone) {
            t.fault = s2.fault;
            t.fault_stage = 2;
            return t;
        }
        pa = s2.out;
        perms &= s2.perms;
    }

    if (!perms_allow(perms, access)) {
        t.fault = FaultKind::kPermission;
        t.fault_stage = stage1_ != nullptr ? 1 : 2;
        return t;
    }

    // Physical-level TrustZone check.
    if (const FaultKind f = mem_->check_physical_access(pa, world_);
        f != FaultKind::kNone) {
        t.fault = f;
        t.fault_stage = 0;
        return t;
    }

    // DFITAGCHECK: a guest (non-hypervisor) translation must never reach an
    // integrity-tagged frame, read or write — over-reads leak key material
    // just as surely as overwrites corrupt page tables. The tag lives on
    // the physical frame, so no stage-1/stage-2 aliasing can dodge it.
    if (mem_->integrity_tagged(pa) && vmid_ != kHypervisorId) {
        t.fault = FaultKind::kTagViolation;
        t.fault_stage = 0;
        return t;
    }

    t.pa = pa;
    return t;
}

bool Mmu::read64(VirtAddr va, std::uint64_t& value) {
    const Translation t = translate(va, Access::kRead);
    if (t.fault != FaultKind::kNone) return false;
    value = mem_->read64(t.pa, world_);
    return true;
}

bool Mmu::write64(VirtAddr va, std::uint64_t value) {
    const Translation t = translate(va, Access::kWrite);
    if (t.fault != FaultKind::kNone) return false;
    mem_->write64(t.pa, value, world_);
    return true;
}

}  // namespace hpcsec::arch
