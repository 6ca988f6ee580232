#include "arch/page_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

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
// A table descriptor carries its next-level table's address; the arrays are
// at least 8-byte aligned, which leaves the valid and table bits free.
std::uint64_t table_desc(const std::uint64_t* table) {
    return kValid | kTable | reinterpret_cast<std::uintptr_t>(table);
}
std::uint64_t* table_of(std::uint64_t d) {
    return reinterpret_cast<std::uint64_t*>(d & ~(kValid | kTable));
}

/// One table's descriptors, all invalid: the table's only allocation.
std::uint64_t* zeroed_descriptors(std::uint64_t entries) {
    return new std::uint64_t[entries]();
}

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

std::uint64_t* PageTable::new_table(int level) {
    ++node_count_;
    // sca-suppress(hot-path-alloc): tables are built on the control-plane
    // map/donate/share/unmap calls; steady state has no stage-2 churn.
    return zeroed_descriptors(fmt_.entries(level));
}

void PageTable::free_table(std::uint64_t* table, int level) noexcept {
    if (level < fmt_.levels - 1) {
        for (std::uint64_t i = 0; i < fmt_.entries(level); ++i) {
            if (table[i] & kTable) free_table(table_of(table[i]), level + 1);
        }
    }
    delete[] table;
}

PageTable::PageTable(PtFormat format) : fmt_(format) {
    root_ = new_table(0);
    log_everything();
}

PageTable::~PageTable() {
    if (root_ != nullptr) free_table(root_, 0);
}

PageTable::PageTable(PageTable&& other) noexcept
    : fmt_(other.fmt_),
      root_(std::exchange(other.root_, nullptr)),
      node_count_(other.node_count_),
      mapping_count_(other.mapping_count_),
      mapped_bytes_(other.mapped_bytes_),
      generation_(++other.generation_) {
    log_everything();
    other.log_everything();
}

PageTable& PageTable::operator=(PageTable&& other) noexcept {
    if (this != &other) {
        if (root_ != nullptr) free_table(root_, 0);
        fmt_ = other.fmt_;
        root_ = std::exchange(other.root_, nullptr);
        node_count_ = other.node_count_;
        mapping_count_ = other.mapping_count_;
        mapped_bytes_ = other.mapped_bytes_;
        generation_ = std::max(generation_, ++other.generation_) + 1;
        log_everything();
        other.log_everything();
    }
    return *this;
}

void PageTable::log_change(std::uint64_t in_base, std::uint64_t size) {
    changes_[++generation_ % kChangeLog] = {in_base, in_base + size};
}

void PageTable::log_everything() { changes_.fill({0, fmt_.input_limit()}); }

std::uint64_t* PageTable::ensure_child(std::uint64_t* table, std::uint64_t index,
                                       int child_level) {
    std::uint64_t& d = table[index];
    if (is_leaf(d)) {
        throw std::logic_error("PageTable: mapping overlaps existing block entry");
    }
    if (d == 0) d = table_desc(new_table(child_level));
    return table_of(d);
}

void PageTable::map(std::uint64_t in_base, std::uint64_t out_base, std::uint64_t size,
                    std::uint8_t perms, bool secure, bool force_pages) {
    if (size == 0) return;
    check_range(fmt_, in_base, size, out_base, "map");
    log_change(in_base, size);
    map_range(root_, 0, in_base, out_base, size, perms, secure, force_pages);
}

void PageTable::map_range(std::uint64_t* table, int level, std::uint64_t in,
                          std::uint64_t out, std::uint64_t size, std::uint8_t perms,
                          bool secure, bool force_pages) {
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

        if (level == fmt_.levels - 1 || (block_allowed && table[idx] == 0)) {
            if (table[idx] != 0) {
                throw std::logic_error("PageTable: mapping overlaps existing entry");
            }
            table[idx] = leaf(out, perms, secure);
            ++mapping_count_;
            mapped_bytes_ += span;
        } else {
            // A block over a table that unmaps left empty fills that table
            // and folds below, like the last hole of a split block does.
            map_range(ensure_child(table, idx, level + 1), level + 1, in, out, chunk,
                      perms, secure, force_pages);
            if (!force_pages) defrag(table, idx, level);
        }
        in += chunk;
        out += chunk;
        remaining -= chunk;
    }
}

void PageTable::unmap(std::uint64_t in_base, std::uint64_t size) {
    if (size == 0) return;
    check_range(fmt_, in_base, size, 0, "unmap");
    log_change(in_base, size);
    unmap_range(root_, 0, in_base, size);
}

void PageTable::split_block(std::uint64_t* table, std::uint64_t index, int level) {
    // Break-before-make: replace a block leaf with a table of next-level
    // leaves covering the same range (what a real hypervisor does before
    // changing a sub-range of a block mapping).
    std::uint64_t* child = new_table(level + 1);
    const std::uint64_t block = table[index];
    const std::uint64_t child_span = fmt_.span(level + 1);
    const std::uint64_t child_entries = fmt_.entries(level + 1);
    for (std::uint64_t i = 0; i < child_entries; ++i) {
        child[i] = block + i * child_span;
    }
    table[index] = table_desc(child);
    mapping_count_ += child_entries - 1;  // one block leaf became N leaves
}

void PageTable::defrag(std::uint64_t* table, std::uint64_t index, int level) {
    // The inverse of split_block: a table under a block-sized entry whose
    // leaves run contiguously from a block-aligned output, with equal
    // attributes, becomes that block again. Translations do not change.
    const std::uint64_t span = fmt_.span(level);
    if (!block_span(span)) return;
    std::uint64_t* sub = table_of(table[index]);
    const std::uint64_t n = fmt_.entries(level + 1);
    const std::uint64_t first = sub[0];
    if (!is_leaf(first) || (out_of(first) & (span - 1)) != 0) return;
    const std::uint64_t child_span = fmt_.span(level + 1);
    for (std::uint64_t i = 1; i < n; ++i) {
        if (sub[i] != first + i * child_span) return;
    }
    mapping_count_ -= n - 1;
    table[index] = first;
    delete[] sub;  // all leaves: no table below it
    --node_count_;
}

void PageTable::unmap_range(std::uint64_t* table, int level, std::uint64_t in,
                            std::uint64_t size) {
    // Removing entries never makes a table uniform, so unmap has nothing
    // to defrag.
    const std::uint64_t span = fmt_.span(level);
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t idx = fmt_.index(in, level);
        std::uint64_t& d = table[idx];
        const std::uint64_t entry_base = in & ~(span - 1);
        const std::uint64_t within = in - entry_base;
        const std::uint64_t chunk = std::min(remaining, span - within);

        if (is_leaf(d)) {
            if (within != 0 || chunk != span) {
                // Partial unmap of a block: split and recurse.
                split_block(table, idx, level);
                unmap_range(table_of(d), level + 1, in, chunk);
            } else {
                d = 0;
                --mapping_count_;
                mapped_bytes_ -= span;
            }
        } else if (d != 0) {
            unmap_range(table_of(d), level + 1, in, chunk);
        }
        // Invalid: nothing mapped here; unmap is idempotent.
        in += chunk;
        remaining -= chunk;
    }
}

void PageTable::protect(std::uint64_t in_base, std::uint64_t size, std::uint8_t perms) {
    check_range(fmt_, in_base, size, 0, "protect");
    log_change(in_base, size);
    protect_range(root_, 0, in_base, size, perms);
}

void PageTable::protect_range(std::uint64_t* table, int level, std::uint64_t in,
                              std::uint64_t size, std::uint8_t perms) {
    const std::uint64_t span = fmt_.span(level);
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t idx = fmt_.index(in, level);
        std::uint64_t& d = table[idx];
        const std::uint64_t entry_base = in & ~(span - 1);
        const std::uint64_t within = in - entry_base;
        const std::uint64_t chunk = std::min(remaining, span - within);

        if (d == 0) throw std::logic_error("PageTable::protect: range not mapped");
        if (is_leaf(d) && within == 0 && chunk == span) {
            d = leaf(out_of(d), perms, secure_of(d));
        } else {
            // Partial protect of a block: split, recurse, and fold back if
            // the new perms made the table uniform again.
            if (is_leaf(d)) split_block(table, idx, level);
            protect_range(table_of(d), level + 1, in, chunk, perms);
            defrag(table, idx, level);
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
    const std::uint64_t* table = root_;
    for (int level = 0; level < fmt_.levels; ++level) {
        const std::uint64_t d = table[fmt_.index(addr, level)];
        if (d & kTable) {
            table = table_of(d);
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

struct PageTable::RunWalk {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    MappingView run;  // size 0: no run open yet
    const std::function<void(const MappingView&)>& fn;
};

void PageTable::for_each_mapping(
    const std::function<void(const MappingView&)>& fn) const {
    RunWalk walk{0, fmt_.input_limit(), {}, fn};
    visit_mappings(walk, root_, 0, 0);
    if (walk.run.size != 0) fn(walk.run);
}

void PageTable::visit_mappings(RunWalk& walk, const std::uint64_t* d, int level,
                               std::uint64_t in_base) const {
    const std::uint64_t span = fmt_.span(level);
    const int shift = std::countr_zero(span);
    // The entries that reach into [lo, hi); the recursion keeps hi > in_base.
    const std::uint64_t first = walk.lo > in_base ? (walk.lo - in_base) >> shift : 0;
    const std::uint64_t n =
        std::min(fmt_.entries(level), (walk.hi - in_base + span - 1) >> shift);
    for (std::uint64_t i = first; i < n;) {
        // Skip invalid descriptors four at a time, then one at a time. A
        // one-wide skip alone runs about x1.3 slower at some placements of
        // this function modulo 64 B.
        while (i + 4 <= n && (d[i] | d[i + 1] | d[i + 2] | d[i + 3]) == 0) i += 4;
        if (i == n) return;
        while (d[i] == 0) {
            if (++i == n) return;
        }
        if (d[i] & kTable) {
            visit_mappings(walk, table_of(d[i]), level + 1, in_base + i * span);
            ++i;
            continue;
        }
        // Extend over the leaves of this table that continue the run, cut
        // to [lo, hi) where a leaf at either end reaches past it.
        std::uint64_t j = i + 1;
        while (j < n && d[j] == d[j - 1] + span) ++j;
        const std::uint64_t in = in_base + i * span;
        const std::uint64_t start = std::max(in, walk.lo);
        const std::uint64_t end = std::min(in_base + j * span, walk.hi);
        MappingView& run = walk.run;
        if (run.size != 0 && start == run.in_base + run.size &&
            d[i] == leaf(run.out_base + run.size - (start - in), run.perms, run.secure)) {
            run.size += end - start;
        } else {
            if (run.size != 0) walk.fn(run);
            run = {start, out_of(d[i]) + (start - in), end - start, perms_of(d[i]),
                   secure_of(d[i])};
        }
        i = j;
    }
}

void PageTable::refresh_runs(std::vector<MappingView>& runs, std::uint64_t since) const {
    if (generation_ - since > kChangeLog) runs.clear();  // the log no longer reaches back
    std::array<Range, kChangeLog> ranges;
    const std::size_t n = refresh_ranges(since, ranges);
    for (std::size_t i = 0; i < n; ++i) refresh_range(runs, ranges[i].lo, ranges[i].hi);
}

std::size_t PageTable::refresh_ranges(std::uint64_t since,
                                      std::array<Range, kChangeLog>& out) const {
    const std::uint64_t behind = generation_ - since;
    if (behind == 0) return 0;
    if (behind > kChangeLog) {
        out[0] = {0, fmt_.input_limit()};
        return 1;
    }
    // The ranges changed since then, in input order, merged where they
    // overlap or touch.
    for (std::uint64_t k = 0; k < behind; ++k) {
        out[k] = changes_[(since + 1 + k) % kChangeLog];
    }
    const auto last = out.begin() + static_cast<std::ptrdiff_t>(behind);
    std::sort(out.begin(), last,
              [](const Range& a, const Range& b) { return a.lo < b.lo; });
    std::size_t n = 0;
    for (auto c = out.begin(); c != last; ++c) {
        if (n > 0 && c->lo <= out[n - 1].hi) {
            out[n - 1].hi = std::max(out[n - 1].hi, c->hi);
        } else {
            out[n++] = *c;
        }
    }
    return n;
}

void PageTable::refresh_range(std::vector<MappingView>& runs, std::uint64_t lo,
                              std::uint64_t hi) const {
    if (lo == hi) return;  // a protect of no pages
    // A run depends only on the mappings, which split_block and defrag never
    // change, so the runs outside [lo, hi) still hold. The stale ones are
    // those that reach into [lo, hi) or end or start at its edge, where the
    // walk may join them; what they hold outside [lo, hi) is kept.
    const auto first = std::partition_point(
        runs.begin(), runs.end(),
        [lo](const MappingView& r) { return r.in_base + r.size < lo; });
    const auto last = std::partition_point(
        first, runs.end(), [hi](const MappingView& r) { return r.in_base <= hi; });
    MappingView head;
    MappingView tail;
    if (first != last && first->in_base < lo) {
        head = *first;
        head.size = lo - head.in_base;
    }
    if (first != last && last[-1].in_base + last[-1].size > hi) {
        tail = last[-1];
        tail.size = tail.in_base + tail.size - hi;
        tail.out_base += hi - tail.in_base;
        tail.in_base = hi;
    }
    const auto at = first - runs.begin();
    const auto stale = last - first;
    const auto kept = static_cast<std::ptrdiff_t>(runs.size());

    // Walk [lo, hi) with the head as the open run, appending behind the
    // list, then join the tail on. The list keeps its capacity from one
    // refresh to the next, so it allocates only while the table grows.
    const std::function<void(const MappingView&)> append =
        // sca-suppress(hot-path-alloc): see above; an audit of an unchanged
        // table never gets here.
        [&runs](const MappingView& m) { runs.push_back(m); };
    RunWalk walk{lo, hi, head, append};
    visit_mappings(walk, root_, 0, 0);
    MappingView& run = walk.run;
    if (run.size != 0 && tail.size != 0 && tail.in_base == run.in_base + run.size &&
        tail.out_base == run.out_base + run.size && tail.perms == run.perms &&
        tail.secure == run.secure) {
        run.size += tail.size;
    } else {
        if (run.size != 0) append(run);
        run = tail;
    }
    if (run.size != 0) append(run);

    // Put the new runs in place of the stale ones.
    const auto added = static_cast<std::ptrdiff_t>(runs.size()) - kept;
    std::rotate(runs.begin() + at, runs.begin() + kept, runs.end());
    runs.erase(runs.begin() + at + added, runs.begin() + at + added + stale);
}

}  // namespace hpcsec::arch
