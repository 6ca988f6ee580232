#include "arch/page_table.h"

#include <stdexcept>
#include <string>

namespace hpcsec::arch {

namespace {
// Block-mapping spans shared by both backends: ARM level-1/level-2 blocks
// and Sv39 giga/megapages are the same 1 GiB / 2 MiB shapes.
constexpr std::uint64_t kBlockSpanGiB = 1ull << 30;
constexpr std::uint64_t kBlockSpanMiB2 = 1ull << 21;

constexpr bool block_span(std::uint64_t span) {
    return span == kBlockSpanGiB || span == kBlockSpanMiB2;
}

// Descriptor bits (see the header). Two leaves with equal attributes whose
// outputs are contiguous differ by exactly their span.
constexpr std::uint64_t kValid = 1ull << 0;
constexpr std::uint64_t kTable = 1ull << 1;
constexpr unsigned kPermShift = 2;
constexpr std::uint64_t kPermBits = std::uint64_t{kPermRWX} << kPermShift;
constexpr std::uint64_t kSecure = 1ull << 5;

constexpr std::uint64_t leaf(std::uint64_t out, std::uint8_t perms, bool secure) {
    return kValid | (out & ~kPageMask) |
           (static_cast<std::uint64_t>(perms & kPermRWX) << kPermShift) |
           (secure ? kSecure : 0);
}
constexpr bool is_leaf(std::uint64_t d) { return (d & (kValid | kTable)) == kValid; }
constexpr std::uint64_t out_of(std::uint64_t d) { return d & ~kPageMask; }
constexpr std::uint8_t perms_of(std::uint64_t d) {
    return static_cast<std::uint8_t>((d & kPermBits) >> kPermShift);
}
constexpr bool secure_of(std::uint64_t d) { return (d & kSecure) != 0; }

/// The one argument check of map/unmap/protect: page aligned, and inside
/// the input range without letting in_base + size wrap past the limit.
void check_range(const PtFormat& fmt, std::uint64_t in_base, std::uint64_t size,
                 std::uint64_t out_base, const char* op) {
    if ((in_base | out_base | size) & kPageMask) {
        throw std::invalid_argument(std::string("PageTable::") + op +
                                    ": unaligned arguments");
    }
    const std::uint64_t limit = fmt.input_limit();
    if (size > limit || in_base > limit - size) {
        throw std::invalid_argument(std::string("PageTable::") + op +
                                    ": input beyond address range");
    }
}
}  // namespace

struct PageTable::Node {
    // Sized per level at construction: the format's root may be wider than
    // the inner levels (Sv39x4's 2048-entry concatenated root). `child` is
    // empty at the last level, which holds only pages.
    std::vector<std::uint64_t> desc;
    std::vector<std::unique_ptr<Node>> child;
};

std::unique_ptr<PageTable::Node> PageTable::make_node(int level) const {
    auto node = std::make_unique<Node>();
    node->desc.resize(fmt_.entries(level));
    if (level < fmt_.levels - 1) node->child.resize(fmt_.entries(level));
    return node;
}

PageTable::PageTable(PtFormat format)
    : fmt_(format), root_(make_node(0)), node_count_(1) {}
PageTable::~PageTable() = default;
PageTable::PageTable(PageTable&&) noexcept = default;
PageTable& PageTable::operator=(PageTable&&) noexcept = default;

PageTable::Node& PageTable::ensure_child(Node& parent, std::uint64_t index,
                                         int child_level) {
    std::uint64_t& d = parent.desc[index];
    if (is_leaf(d)) {
        throw std::logic_error("PageTable: mapping overlaps existing block entry");
    }
    if (d == 0) {
        d = kValid | kTable;
        // sca-suppress(hot-path-alloc): table nodes are built on the
        // control-plane map/donate/share calls; steady state has no
        // stage-2 churn.
        parent.child[index] = make_node(child_level);
        ++node_count_;
    }
    return *parent.child[index];
}

void PageTable::map(std::uint64_t in_base, std::uint64_t out_base, std::uint64_t size,
                    std::uint8_t perms, bool secure, bool force_pages) {
    if (size == 0) return;
    check_range(fmt_, in_base, size, out_base, "map");
    map_range(*root_, 0, in_base, out_base, size, perms, secure, force_pages);
}

void PageTable::map_range(Node& node, int level, std::uint64_t in, std::uint64_t out,
                          std::uint64_t size, std::uint8_t perms, bool secure,
                          bool force_pages) {
    const std::uint64_t span = fmt_.span(level);
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t idx = fmt_.index(in, level);
        const std::uint64_t entry_base = in & ~(span - 1);
        const std::uint64_t within = in - entry_base;
        const std::uint64_t chunk = std::min(remaining, span - within);

        // ARM: 1 GiB (level 1) and 2 MiB (level 2) blocks. Sv39: gigapages
        // (root) and megapages (level 1). block_span() excludes the ARM
        // 512 GiB root span, so the predicate is shape-based, not
        // level-number based.
        const bool block_allowed =
            !force_pages && level < fmt_.levels - 1 && block_span(span) &&
            within == 0 && chunk == span && (out & (span - 1)) == 0;

        if (level == fmt_.levels - 1 || (block_allowed && node.desc[idx] == 0)) {
            if (node.desc[idx] != 0) {
                throw std::logic_error("PageTable: mapping overlaps existing entry");
            }
            node.desc[idx] = leaf(out, perms, secure);
            ++mapping_count_;
            mapped_bytes_ += span;
        } else {
            // A block over a table that unmaps left empty fills that table
            // and folds below, like the last hole of a split block does.
            map_range(ensure_child(node, idx, level + 1), level + 1, in, out, chunk,
                      perms, secure, force_pages);
            if (!force_pages) defrag(node, idx, level);
        }
        in += chunk;
        out += chunk;
        remaining -= chunk;
    }
}

void PageTable::unmap(std::uint64_t in_base, std::uint64_t size) {
    if (size == 0) return;
    check_range(fmt_, in_base, size, 0, "unmap");
    unmap_range(*root_, 0, in_base, size);
}

void PageTable::split_block(Node& node, std::uint64_t index, int level) {
    // Break-before-make: replace a block leaf with a table of next-level
    // leaves covering the same range (what a real hypervisor does before
    // changing a sub-range of a block mapping).
    // sca-suppress(hot-path-alloc): block splits happen on control-plane
    // unmap/remap calls, not per-event steady state.
    auto child = make_node(level + 1);
    const std::uint64_t block = node.desc[index];
    const std::uint64_t child_span = fmt_.span(level + 1);
    const std::uint64_t child_entries = fmt_.entries(level + 1);
    for (std::uint64_t i = 0; i < child_entries; ++i) {
        child->desc[i] = block + i * child_span;
    }
    node.desc[index] = kValid | kTable;
    node.child[index] = std::move(child);
    ++node_count_;
    mapping_count_ += child_entries - 1;  // one block leaf became N leaves
}

void PageTable::defrag(Node& node, std::uint64_t index, int level) {
    // The inverse of split_block: a table under a block-sized entry whose
    // leaves run contiguously from a block-aligned output, with equal
    // attributes, becomes that block again. Translations do not change, so
    // no TLB entry goes stale.
    const std::uint64_t span = fmt_.span(level);
    if (!block_span(span)) return;
    const std::vector<std::uint64_t>& sub = node.child[index]->desc;
    const std::uint64_t first = sub.front();
    if (!is_leaf(first) || (out_of(first) & (span - 1)) != 0) return;
    const std::uint64_t child_span = fmt_.span(level + 1);
    for (std::uint64_t i = 1; i < sub.size(); ++i) {
        if (sub[i] != first + i * child_span) return;
    }
    mapping_count_ -= sub.size() - 1;
    node.desc[index] = first;
    node.child[index].reset();
    --node_count_;
}

void PageTable::unmap_range(Node& node, int level, std::uint64_t in, std::uint64_t size) {
    // Removing entries never makes a table uniform, so unmap has nothing
    // to defrag.
    const std::uint64_t span = fmt_.span(level);
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t idx = fmt_.index(in, level);
        std::uint64_t& d = node.desc[idx];
        const std::uint64_t entry_base = in & ~(span - 1);
        const std::uint64_t within = in - entry_base;
        const std::uint64_t chunk = std::min(remaining, span - within);

        if (is_leaf(d)) {
            if (within != 0 || chunk != span) {
                // Partial unmap of a block: split and recurse.
                split_block(node, idx, level);
                unmap_range(*node.child[idx], level + 1, in, chunk);
            } else {
                d = 0;
                --mapping_count_;
                mapped_bytes_ -= span;
            }
        } else if (d != 0) {
            unmap_range(*node.child[idx], level + 1, in, chunk);
        }
        // Invalid: nothing mapped here; unmap is idempotent.
        in += chunk;
        remaining -= chunk;
    }
}

void PageTable::protect(std::uint64_t in_base, std::uint64_t size, std::uint8_t perms) {
    check_range(fmt_, in_base, size, 0, "protect");
    protect_range(*root_, 0, in_base, size, perms);
}

void PageTable::protect_range(Node& node, int level, std::uint64_t in,
                              std::uint64_t size, std::uint8_t perms) {
    const std::uint64_t span = fmt_.span(level);
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t idx = fmt_.index(in, level);
        std::uint64_t& d = node.desc[idx];
        const std::uint64_t entry_base = in & ~(span - 1);
        const std::uint64_t within = in - entry_base;
        const std::uint64_t chunk = std::min(remaining, span - within);

        if (d == 0) throw std::logic_error("PageTable::protect: range not mapped");
        if (is_leaf(d) && within == 0 && chunk == span) {
            d = leaf(out_of(d), perms, secure_of(d));
        } else {
            // Partial protect of a block: split, recurse, and fold back if
            // the new perms made the table uniform again.
            if (is_leaf(d)) split_block(node, idx, level);
            protect_range(*node.child[idx], level + 1, in, chunk, perms);
            defrag(node, idx, level);
        }
        in += chunk;
        remaining -= chunk;
    }
}

WalkResult PageTable::walk(std::uint64_t addr) const {
    WalkResult r;
    if (addr >= fmt_.input_limit()) {
        r.fault = FaultKind::kAddressSize;
        return r;
    }
    const Node* node = root_.get();
    for (int level = 0; level < fmt_.levels; ++level) {
        ++r.table_accesses;
        const std::uint64_t idx = fmt_.index(addr, level);
        const std::uint64_t d = node->desc[idx];
        if (d & kTable) {
            node = node->child[idx].get();
            continue;
        }
        r.level = level;
        if (d == 0) {
            r.fault = FaultKind::kTranslation;
            return r;
        }
        r.out = out_of(d) + (addr & (fmt_.span(level) - 1));
        r.perms = perms_of(d);
        r.secure = secure_of(d);
        return r;
    }
    r.fault = FaultKind::kTranslation;  // unreachable with well-formed tables
    return r;
}

void PageTable::for_each_mapping(
    const std::function<void(const MappingView&)>& fn) const {
    MappingView run;  // size 0: no run open yet
    visit_mappings(*root_, 0, 0, run, fn);
    if (run.size != 0) fn(run);
}

void PageTable::visit_mappings(
    const Node& node, int level, std::uint64_t in_base, MappingView& run,
    const std::function<void(const MappingView&)>& fn) const {
    const std::uint64_t span = fmt_.span(level);
    const std::uint64_t* d = node.desc.data();
    const std::uint64_t n = node.desc.size();
    for (std::uint64_t i = 0; i < n;) {
        // Skip invalid descriptors in one tight loop. An out-of-line skip
        // (`++i; continue;`) makes the audit scan's speed depend on where
        // this function lands modulo 64 B.
        while (d[i] == 0) {
            if (++i == n) return;
        }
        if (d[i] & kTable) {
            visit_mappings(*node.child[i], level + 1, in_base + i * span, run, fn);
            ++i;
            continue;
        }
        // Extend over the leaves of this node that continue the run.
        std::uint64_t j = i + 1;
        while (j < n && d[j] == d[j - 1] + span) ++j;
        const std::uint64_t in = in_base + i * span;
        if (run.size != 0 && in == run.in_base + run.size &&
            d[i] == leaf(run.out_base + run.size, run.perms, run.secure)) {
            run.size += (j - i) * span;
        } else {
            if (run.size != 0) fn(run);
            run = {in, out_of(d[i]), (j - i) * span, perms_of(d[i]), secure_of(d[i])};
        }
        i = j;
    }
}

}  // namespace hpcsec::arch
