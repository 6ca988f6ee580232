// Physical memory model: region layout, TrustZone attributes, frame
// ownership, and a sparse functional backing store.
//
// Frame ownership is the ground truth the isolation property tests check
// against: every RAM frame is owned by exactly one entity (hypervisor, a VM,
// or free), and stage-2 translations must never let a VM reach a frame it
// does not own or hold a share-grant for. Ownership and integrity tags are
// stored as extents (sorted runs of frames), so a partition costs a few
// entries whatever its size, the way Hafnium maps it with a few large
// blocks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/types.h"

namespace hpcsec::arch {

enum class RegionKind : std::uint8_t {
    kRam,
    kMmio,
    kReserved,
};

struct MemRegion {
    std::string name;
    PhysAddr base = 0;
    std::uint64_t size = 0;
    RegionKind kind = RegionKind::kRam;
    World world = World::kNonSecure;

    [[nodiscard]] PhysAddr end() const { return base + size; }
    [[nodiscard]] bool contains(PhysAddr a) const { return a >= base && a < end(); }
};

/// Who owns a physical frame.
struct FrameOwner {
    VmId vm = kHypervisorId;  ///< kHypervisorId also encodes "hypervisor/firmware"
    bool allocated = false;
};

class MemoryMap {
public:
    MemoryMap() = default;
    MemoryMap(MemoryMap&& other) noexcept;
    MemoryMap& operator=(MemoryMap&& other) noexcept;
    MemoryMap(const MemoryMap&) = delete;
    MemoryMap& operator=(const MemoryMap&) = delete;

    /// Starts the ownership change log afresh (see owner_changes).
    void add_region(MemRegion region);

    [[nodiscard]] const std::vector<MemRegion>& regions() const { return regions_; }
    [[nodiscard]] const MemRegion* find_region(PhysAddr a) const;
    [[nodiscard]] bool is_ram(PhysAddr a) const;
    [[nodiscard]] bool is_mmio(PhysAddr a) const;
    [[nodiscard]] World world_of(PhysAddr a) const;

    /// Total bytes of RAM across all regions (per world if given).
    [[nodiscard]] std::uint64_t ram_bytes() const;
    [[nodiscard]] std::uint64_t ram_bytes(World w) const;

    // --- frame allocation / ownership -------------------------------------

    /// Allocate `nframes` physically contiguous RAM frames in `world` and tag
    /// them as owned by `owner`. Returns the base PA of the lowest free range
    /// that fits (first fit, regions in address order).
    /// Throws std::runtime_error when no suitable contiguous range exists.
    PhysAddr alloc_frames(std::uint64_t nframes, VmId owner, World world);

    /// Free previously allocated frames (ownership returns to "free") and
    /// scrub them: every word of the range reads zero afterwards, so the
    /// next owner never sees the last one's data. Throws std::logic_error,
    /// changing nothing, if any frame is free.
    void free_frames(PhysAddr base, std::uint64_t nframes);

    /// Free every frame `vm` owns, one owner run at a time. VM teardown
    /// reclaims by current ownership: once FF-A donations have moved frames,
    /// a VM's holdings differ from its boot window.
    void free_owned_by(VmId vm);

    /// Transfer ownership of allocated frames (VM image donation etc.).
    /// Throws std::logic_error, changing nothing, if any frame is free.
    void set_owner(PhysAddr base, std::uint64_t nframes, VmId owner);

    [[nodiscard]] std::optional<FrameOwner> owner_of(PhysAddr a) const;

    /// True when every frame in [base, base+bytes) is RAM owned by `vm`.
    [[nodiscard]] bool owned_span(PhysAddr base, std::uint64_t bytes, VmId vm) const;

    /// Visit the frames of [base, base+bytes) in ascending runs of one owner:
    /// `fn(run_base, nframes, owner)`, where unallocated stretches arrive
    /// with `owner.allocated == false`. The auditor's exact ownership walk.
    void for_each_owner_run(
        PhysAddr base, std::uint64_t bytes,
        const std::function<void(PhysAddr, std::uint64_t, const FrameOwner&)>& fn) const;

    [[nodiscard]] std::uint64_t allocated_frames() const { return allocated_frames_; }

    // --- ownership change log ---------------------------------------------

    /// Bumped by every repaint of frame ownership, after the call's argument
    /// check: alloc_frames, free_frames (once for each run free_owned_by
    /// frees) and set_owner. add_region and a move into or out of this map
    /// bump it too, and start the log afresh. While it is unchanged, so is
    /// every frame's owner.
    [[nodiscard]] std::uint64_t owner_generation() const { return owner_generation_; }

    /// Generations the ownership log covers.
    static constexpr std::uint64_t kChangeLog = 4;

    /// Call fn(base, bytes) with the PA range each generation after `since`
    /// repainted, oldest first, and return true. Return false, calling
    /// nothing, when the log cannot say: more than kChangeLog generations
    /// went by, or add_region or a move came among them. check::Auditor
    /// re-checks only the frames these ranges cover.
    template <typename Fn>
    bool owner_changes(std::uint64_t since, const Fn& fn) const {
        if (since < log_start_ || owner_generation_ - since > kChangeLog) return false;
        for (std::uint64_t g = since + 1; g <= owner_generation_; ++g) {
            const OwnerChange& c = owner_log_[g % kChangeLog];
            fn(c.base, c.bytes);
        }
        return true;
    }

    // --- integrity tags (HDFI-style one-bit frame tags) --------------------

    /// Tag (or clear) the one-bit integrity mark on every frame in
    /// [base, base + nframes * page). Tagged frames hold SPM-critical state
    /// (stage-2 tables, attestation log, signature material, manifest); the
    /// SPM's stage-2 access check refuses a guest access that resolves onto
    /// one. Throws std::invalid_argument, changing nothing, if any frame is
    /// not RAM.
    void set_integrity_tag(PhysAddr base, std::uint64_t nframes, bool tagged);

    /// True when any frame is tagged. With none, the tag-run vector is
    /// empty, so integrity_tagged() costs one predicted branch.
    [[nodiscard]] bool has_integrity_tags() const { return !tag_runs_.empty(); }

    /// DFITAGCHECK: true when the frame holding `a` carries the tag.
    [[nodiscard]] bool integrity_tagged(PhysAddr a) const {
        if (tag_runs_.empty()) [[likely]] {
            return false;
        }
        return in_tag_run(page_index(a));
    }

    // --- functional backing store (sparse, 64-bit words) -------------------

    /// Aligned 64-bit load/store at a physical address. The security check
    /// against `world` enforces TrustZone partitioning at the memory system
    /// level (a non-secure master can never read secure RAM).
    [[nodiscard]] std::uint64_t read64(PhysAddr a, World accessor) const;
    void write64(PhysAddr a, std::uint64_t value, World accessor);

    /// Raises FaultKind::kSecurity as a return instead of throwing.
    [[nodiscard]] FaultKind check_physical_access(PhysAddr a, World accessor) const;

    // --- MMIO dispatch -------------------------------------------------------
    struct MmioHandler {
        std::function<std::uint64_t(std::uint64_t offset)> read;
        std::function<void(std::uint64_t offset, std::uint64_t value)> write;
    };

    /// Attach a device model to an MMIO region (identified by its base).
    /// Accesses to the region route to the handler instead of the RAM store.
    void register_mmio(PhysAddr region_base, MmioHandler handler);

private:
    /// Frames [first, end), as page indices. Tag runs leave `owner` at its
    /// default. A run vector is kept sorted and disjoint, and never holds two
    /// touching runs with the same owner.
    struct Run {
        std::uint64_t first = 0;
        std::uint64_t end = 0;
        VmId owner = kHypervisorId;
    };

    /// The frames one ownership generation repainted.
    struct OwnerChange {
        PhysAddr base = 0;
        std::uint64_t bytes = 0;
    };

    [[nodiscard]] bool in_tag_run(std::uint64_t page) const;
    /// The one place owner runs are painted: repaint pages [first, end) as
    /// owned by `*owner` (free when null) and log it as a new generation.
    void paint_owner(std::uint64_t first, std::uint64_t end, const VmId* owner);
    /// Move to a new generation that the log cannot reach back past.
    void restart_log() { log_start_ = ++owner_generation_; }

    std::vector<MemRegion> regions_;
    std::vector<Run> owner_runs_;  ///< allocated frames only
    std::vector<Run> tag_runs_;    ///< tagged frames, allocated or not
    std::unordered_map<std::uint64_t, std::uint64_t> store_;
    std::unordered_map<std::uint64_t, MmioHandler> mmio_;  // keyed by region base
    std::uint64_t allocated_frames_ = 0;
    std::uint64_t owner_generation_ = 0;
    /// The oldest generation owner_changes can start from.
    std::uint64_t log_start_ = 0;
    /// owner_log_[g % kChangeLog] is what generation g repainted.
    std::array<OwnerChange, kChangeLog> owner_log_{};
};

}  // namespace hpcsec::arch
