#include "arch/tlb.h"

#include <stdexcept>

namespace hpcsec::arch {

Tlb::Tlb(std::size_t entries, std::size_t ways) {
    if (ways == 0 || entries == 0 || entries % ways != 0) {
        throw std::invalid_argument("Tlb: entries must be a positive multiple of ways");
    }
    sets_ = entries / ways;
    ways_ = ways;
}

const TlbEntry* Tlb::lookup(VmId vmid, Asid asid, std::uint64_t in_page) {
    for (const auto& e : set_of(in_page)) {
        if (e.valid && e.vmid == vmid && e.asid == asid && e.in_page == in_page) {
            ++stats_.hits;
            return &e;
        }
    }
    ++stats_.misses;
    return nullptr;
}

void Tlb::insert(const TlbEntry& entry) {
    if (!entries_) {
        entries_ = std::make_unique<TlbEntry[]>(sets_ * ways_);
        next_victim_ = std::make_unique<std::size_t[]>(sets_);
    }
    const std::span<TlbEntry> set = set_of(entry.in_page);
    // Re-inserting an existing translation updates it in place — a duplicate
    // would let lookups return whichever copy is found first (stale data).
    for (auto& e : set) {
        if (e.valid && e.vmid == entry.vmid && e.asid == entry.asid &&
            e.in_page == entry.in_page) {
            e = entry;
            e.valid = true;
            return;
        }
    }
    // Prefer an invalid way; otherwise round-robin evict.
    for (auto& e : set) {
        if (!e.valid) {
            e = entry;
            e.valid = true;
            return;
        }
    }
    std::size_t& next_victim = next_victim_[entry.in_page % sets_];
    TlbEntry& victim = set[next_victim];
    next_victim = (next_victim + 1) % ways_;
    ++stats_.evictions;
    victim = entry;
    victim.valid = true;
}

void Tlb::flush_all() {
    ++flush_epoch_;
    for (auto& e : entries()) e.valid = false;
}

void Tlb::flush_vmid(VmId vmid) {
    ++flush_epoch_;
    for (auto& e : entries()) {
        if (e.valid && e.vmid == vmid) e.valid = false;
    }
}

void Tlb::flush_page(VmId vmid, std::uint64_t in_page) {
    ++flush_epoch_;
    for (auto& e : set_of(in_page)) {
        if (e.valid && e.vmid == vmid && e.in_page == in_page) e.valid = false;
    }
}

std::size_t Tlb::valid_entries() const {
    std::size_t n = 0;
    for (const auto& e : entries()) n += e.valid ? 1 : 0;
    return n;
}

}  // namespace hpcsec::arch
