// Set-associative TLB model with VMID/ASID tagging.
//
// Caches *combined* final translations (input page -> output page), the way
// modern ARM cores cache two-stage walks. Flush semantics follow the ARM
// TLBI instructions we need: full flush, by-VMID, and by-page. Replacement
// is deterministic round-robin so simulations are reproducible.
//
// Entry storage is allocated by the first insert. Simulation paths never
// translate through a core's MMU (the SPM walks stage-2 tables itself), so
// a booted node's TLBs stay empty and cost it no heap; until the first
// fill, lookups miss and every TLBI only bumps the flush epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "arch/types.h"

namespace hpcsec::arch {

struct TlbEntry {
    bool valid = false;
    VmId vmid = 0;
    Asid asid = 0;
    std::uint64_t in_page = 0;   ///< input address >> kPageShift
    std::uint64_t out_page = 0;  ///< output address >> kPageShift
    std::uint8_t perms = kPermNone;
    bool secure = false;
};

struct TlbStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    [[nodiscard]] double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
};

class Tlb {
public:
    /// A53 main TLB: 512 entries, 4-way.
    explicit Tlb(std::size_t entries = 512, std::size_t ways = 4);

    /// nullptr on miss; also bumps hit/miss counters.
    const TlbEntry* lookup(VmId vmid, Asid asid, std::uint64_t in_page);

    void insert(const TlbEntry& entry);

    void flush_all();
    void flush_vmid(VmId vmid);
    void flush_page(VmId vmid, std::uint64_t in_page);

    /// Monotonic count of flush operations of any scope. Front-side caches
    /// (the MMU's L0 line) tag their fill with this and re-validate on hit,
    /// so every TLBI reaches them without a registration scheme.
    [[nodiscard]] std::uint64_t flush_epoch() const { return flush_epoch_; }

    /// Account a hit that was served by a front-side cache above this TLB
    /// (the combined translation is still logically cached here).
    void note_front_hit() { ++stats_.hits; }

    [[nodiscard]] const TlbStats& stats() const { return stats_; }

    [[nodiscard]] std::size_t valid_entries() const;
    [[nodiscard]] std::size_t capacity() const { return sets_ * ways_; }

private:
    /// Every entry, set-major; empty before the first insert.
    [[nodiscard]] std::span<TlbEntry> entries() const {
        return {entries_.get(), entries_ ? sets_ * ways_ : 0};
    }
    /// The ways of the set `in_page` maps to; empty before the first insert.
    [[nodiscard]] std::span<TlbEntry> set_of(std::uint64_t in_page) const {
        if (!entries_) return {};
        return {entries_.get() + (in_page % sets_) * ways_, ways_};
    }

    std::unique_ptr<TlbEntry[]> entries_;         ///< null until the first insert
    std::unique_ptr<std::size_t[]> next_victim_;  ///< per set; allocated with entries_
    std::size_t sets_;
    std::size_t ways_;
    TlbStats stats_;
    std::uint64_t flush_epoch_ = 0;
};

}  // namespace hpcsec::arch
