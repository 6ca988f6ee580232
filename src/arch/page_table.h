// Radix translation tables, parameterized by an ISA page-table format.
//
// The same structure serves stage-1 (VA -> IPA, owned by a guest kernel) and
// stage-2 (IPA -> PA, owned by the hypervisor) on either backend:
//   ARMv8 4 KiB granule: 4 levels x 9 bits, 48-bit input (the default).
//   RISC-V Sv39:         3 levels x 9 bits, 39-bit input (stage-1).
//   RISC-V Sv39x4:       3 levels, 11-bit root index, 41-bit input
//                        (H-extension guest-physical stage-2).
// Block mappings are supported wherever the format has a 1 GiB or 2 MiB
// entry span (ARM levels 1/2; Sv39 giga/megapages), mirroring how Hafnium
// maps VM memory with the largest possible blocks.
//
// Each entry is one 64-bit descriptor, as in hardware and in Hafnium's mm
// layer: 0 is invalid, bit 0 valid, bit 1 table, bits 2-4 the perms, bit 5
// the secure attribute, and a leaf's page-aligned output address above. A
// table descriptor carries the address of its next-level table in place of
// an output address, so each table is one array of descriptors.
// A split block is folded back into its block once its table is uniform
// again (Hafnium's mm_vm_defrag), so transient carve-outs leave no leaves.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/types.h"

namespace hpcsec::arch {

/// Geometry of one translation-table format: how many radix levels, the
/// index width per level (the root may be wider, as in Sv39x4's 2048-entry
/// concatenated root), and the input-address size the walker enforces.
struct PtFormat {
    int levels = 4;
    int bits_per_level = 9;
    int root_bits = 9;
    int input_bits = 48;

    /// Entries in a table node at `level` (0 = root).
    [[nodiscard]] constexpr std::uint64_t entries(int level) const {
        return 1ull << (level == 0 ? root_bits : bits_per_level);
    }

    /// Size of the region covered by one entry at `level`.
    [[nodiscard]] constexpr std::uint64_t span(int level) const {
        return 1ull << (kPageShift +
                        static_cast<std::uint64_t>(bits_per_level) *
                            static_cast<std::uint64_t>(levels - 1 - level));
    }

    /// Index into the table at `level` for input address `a`.
    [[nodiscard]] constexpr std::uint64_t index(std::uint64_t a, int level) const {
        return (a >> (kPageShift + static_cast<std::uint64_t>(bits_per_level) *
                                       static_cast<std::uint64_t>(levels - 1 - level))) &
               (entries(level) - 1);
    }

    [[nodiscard]] constexpr std::uint64_t input_limit() const {
        return 1ull << input_bits;
    }

    /// ARMv8-A 4 KiB granule, 48-bit VA/IPA (stage-1 and stage-2 alike).
    [[nodiscard]] static constexpr PtFormat armv8_4k() { return {4, 9, 9, 48}; }
    /// RISC-V Sv39: 3 x 9-bit levels over a 39-bit VA.
    [[nodiscard]] static constexpr PtFormat sv39() { return {3, 9, 9, 39}; }
    /// RISC-V Sv39x4: stage-2 guest-physical format — the root is four
    /// concatenated Sv39 tables (11 index bits, 2048 entries) giving a
    /// 41-bit guest-physical address space.
    [[nodiscard]] static constexpr PtFormat sv39x4() { return {3, 9, 11, 41}; }
};

struct WalkResult {
    FaultKind fault = FaultKind::kNone;
    std::uint64_t out = 0;          ///< translated output address
    std::uint8_t perms = kPermNone;
    int level = -1;                 ///< level of the terminal entry
    bool secure = false;            ///< NS bit of the terminal entry
};

class PageTable {
public:
    explicit PageTable(PtFormat format = PtFormat::armv8_4k());
    ~PageTable();
    PageTable(PageTable&&) noexcept;
    PageTable& operator=(PageTable&&) noexcept;
    PageTable(const PageTable&) = delete;
    PageTable& operator=(const PageTable&) = delete;

    [[nodiscard]] const PtFormat& format() const { return fmt_; }

    // map, unmap and protect throw std::invalid_argument, changing nothing,
    // unless the range is page aligned and lies inside the input range.

    /// Map [in_base, in_base+size) to [out_base, ...) with `perms`.
    /// Uses 1 GiB / 2 MiB blocks where alignment allows unless
    /// `force_pages` is set (such a map also never folds a table back into
    /// a block). Overlapping an existing mapping throws.
    void map(std::uint64_t in_base, std::uint64_t out_base, std::uint64_t size,
             std::uint8_t perms, bool secure = false, bool force_pages = false);

    /// Remove all mappings intersecting [in_base, in_base+size). Block
    /// entries partially covered by the range are split first
    /// (break-before-make), so page-granular carve-outs from block-mapped
    /// windows work as on real hardware.
    void unmap(std::uint64_t in_base, std::uint64_t size);

    /// Change permissions on a mapped range (page granularity; splits
    /// blocks as needed, and folds them back once uniform again). Throws if
    /// any page in the range is unmapped.
    void protect(std::uint64_t in_base, std::uint64_t size, std::uint8_t perms);

    /// Walk the tables for one input address.
    [[nodiscard]] WalkResult walk(std::uint64_t addr) const;

    /// One maximal run of terminal (page or block) mappings, as reported by
    /// for_each_mapping: contiguous in input and output, with equal perms
    /// and secure bit.
    struct MappingView {
        std::uint64_t in_base = 0;
        std::uint64_t out_base = 0;
        std::uint64_t size = 0;
        std::uint8_t perms = kPermNone;
        bool secure = false;
    };

    /// Enumerate the mappings as maximal runs, in input-address order, one
    /// callback per run (audit / introspection path). The callback must not
    /// mutate this table.
    void for_each_mapping(const std::function<void(const MappingView&)>& fn) const;

    /// Bring `runs`, the list for_each_mapping reported from this table at
    /// generation `since`, up to date: it then holds what for_each_mapping
    /// reports now. An empty list at generation 0 stands for a table never
    /// read before. While the change log reaches back to `since` (the last
    /// kChangeLog generations), only the input ranges those calls changed
    /// are walked: the runs there are cut at the range edges, replaced, and
    /// joined again at the seams. Otherwise the whole table is walked.
    void refresh_runs(std::vector<MappingView>& runs, std::uint64_t since) const;

    /// Number of live table nodes (root included) — i.e. translation-table
    /// memory footprint in page units.
    [[nodiscard]] std::uint64_t node_count() const { return node_count_; }

    /// Number of terminal (page or block) entries.
    [[nodiscard]] std::uint64_t mapping_count() const { return mapping_count_; }

    /// Total bytes covered by terminal mappings.
    [[nodiscard]] std::uint64_t mapped_bytes() const { return mapped_bytes_; }

    /// Bumped by every map, unmap and protect that passes its argument
    /// check, before it changes anything (so one that throws part-way bumps
    /// it too), and by a move into or out of this table; a move leaves the
    /// target above both old values. While a table's address and generation
    /// are unchanged, so are its mappings: check::Auditor re-reads a VM's
    /// stage-2 runs only when either moved.
    [[nodiscard]] std::uint64_t generation() const { return generation_; }

    /// Generations the change log covers: refresh_runs walks only the
    /// changed ranges of a list at most this many generations old.
    static constexpr std::uint64_t kChangeLog = 4;

private:
    /// The input range one generation's map, unmap or protect may have
    /// changed: the call's whole range, whatever part of it took effect.
    struct Change {
        std::uint64_t in_base = 0;
        std::uint64_t size = 0;
    };
    /// One walk of the runs inside [lo, hi): the run it has open, and where
    /// it hands each finished run.
    struct RunWalk;

    /// Move to the next generation, logging the range it changes.
    void log_change(std::uint64_t in_base, std::uint64_t size);
    /// Log the whole input range at every generation the log covers (on
    /// construction and on a move into or out of this table).
    void log_everything();
    // A table is one array of fmt_.entries(level) descriptors.
    [[nodiscard]] std::uint64_t* new_table(int level);
    void free_table(std::uint64_t* table, int level) noexcept;
    std::uint64_t* ensure_child(std::uint64_t* table, std::uint64_t index,
                                int child_level);
    void split_block(std::uint64_t* table, std::uint64_t index, int level);
    void defrag(std::uint64_t* table, std::uint64_t index, int level);
    void map_range(std::uint64_t* table, int level, std::uint64_t in,
                   std::uint64_t out, std::uint64_t size, std::uint8_t perms,
                   bool secure, bool force_pages);
    void unmap_range(std::uint64_t* table, int level, std::uint64_t in,
                     std::uint64_t size);
    void protect_range(std::uint64_t* table, int level, std::uint64_t in,
                       std::uint64_t size, std::uint8_t perms);
    void visit_mappings(RunWalk& walk, const std::uint64_t* table, int level,
                        std::uint64_t in_base) const;
    void refresh_range(std::vector<MappingView>& runs, std::uint64_t lo,
                       std::uint64_t hi) const;

    PtFormat fmt_;
    std::uint64_t* root_ = nullptr;
    std::uint64_t node_count_ = 0;
    std::uint64_t mapping_count_ = 0;
    std::uint64_t mapped_bytes_ = 0;
    std::uint64_t generation_ = 0;
    /// changes_[g % kChangeLog] is the range generation g changed.
    std::array<Change, kChangeLog> changes_{};
};

}  // namespace hpcsec::arch
