// Buddy allocator — Kitten's kmem physical-page allocator.
//
// Kitten manages each memory pool with a classic binary-buddy system; the
// kernel model uses one (`KittenKernel::kmem()`) to place the job channel's
// mailbox pages inside the VM's own IPA window. Offsets returned are
// relative to the pool base.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace hpcsec::kitten {

class BuddyAllocator {
public:
    /// Pool of `pool_bytes` (power of two) with minimum block `min_bytes`.
    BuddyAllocator(std::uint64_t pool_bytes, std::uint64_t min_bytes);

    /// Allocate at least `bytes`; returns pool-relative offset or nullopt.
    std::optional<std::uint64_t> alloc(std::uint64_t bytes);

    /// Free a previously allocated block (by its offset).
    void free(std::uint64_t offset);

    [[nodiscard]] std::uint64_t pool_bytes() const { return pool_bytes_; }
    [[nodiscard]] std::uint64_t allocated_bytes() const { return allocated_bytes_; }
    /// Largest single allocation that would currently succeed.
    [[nodiscard]] std::uint64_t largest_free_block() const;
    [[nodiscard]] std::size_t fragments() const;

private:
    [[nodiscard]] int order_for(std::uint64_t bytes) const;
    [[nodiscard]] std::uint64_t block_bytes(int order) const {
        return min_bytes_ << order;
    }

    std::uint64_t pool_bytes_;
    std::uint64_t min_bytes_;
    int max_order_;
    // free_lists_[order] = set of offsets of free blocks of that order.
    std::vector<std::set<std::uint64_t>> free_lists_;
    // offset -> order of live allocations.
    std::map<std::uint64_t, int> live_;
    std::uint64_t allocated_bytes_ = 0;
};

}  // namespace hpcsec::kitten
