#include "arch/memory_map.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

namespace hpcsec::arch {

namespace {

// Run vectors are sorted and disjoint, so their ends ascend too: every
// lookup is a binary search on `end`.

/// First run whose end lies above `page`: the run holding `page`, else the
/// next one up.
template <typename Runs>
auto first_ending_after(Runs& runs, std::uint64_t page) {
    return std::partition_point(runs.begin(), runs.end(),
                                [page](const auto& r) { return r.end <= page; });
}

/// Number of pages of [first, end) that `runs` cover.
template <typename Run>
std::uint64_t pages_covered(const std::vector<Run>& runs, std::uint64_t first,
                            std::uint64_t end) {
    std::uint64_t n = 0;
    for (auto it = first_ending_after(runs, first); it != runs.end() && it->first < end;
         ++it) {
        n += std::min(it->end, end) - std::max(it->first, first);
    }
    return n;
}

/// Repaint [first, end) as one run owned by `*owner`, or as a gap when
/// `owner` is null. Runs crossing an edge are split, and the painted run
/// merges with touching runs of the same owner, so `runs` stays canonical.
template <typename Run>
void paint(std::vector<Run>& runs, std::uint64_t first, std::uint64_t end,
           const VmId* owner) {
    // [lo, hi): every run that overlaps or touches [first, end).
    const auto lo = std::partition_point(runs.begin(), runs.end(),
                                         [first](const Run& r) { return r.end < first; });
    const auto hi = std::partition_point(lo, runs.end(),
                                         [end](const Run& r) { return r.first <= end; });
    std::array<Run, 3> parts{};
    std::size_t n = 0;
    const auto put = [&parts, &n](std::uint64_t f, std::uint64_t e, VmId o) {
        if (f >= e) return;
        if (n > 0 && parts[n - 1].end == f && parts[n - 1].owner == o) {
            parts[n - 1].end = e;
        } else {
            parts[n++] = Run{f, e, o};
        }
    };
    if (lo != hi) put(lo->first, std::min(lo->end, first), lo->owner);
    if (owner != nullptr) put(first, end, *owner);
    if (lo != hi) {
        const Run& last = *std::prev(hi);
        put(std::max(last.first, end), last.end, last.owner);
    }
    // Splice parts[0, n) over [lo, hi).
    const auto k = static_cast<std::size_t>(hi - lo);
    const auto at = std::copy_n(parts.begin(), std::min(n, k), lo);
    if (n < k) {
        runs.erase(at, hi);
    } else {
        // sca-suppress(hot-path-alloc): an FF-A call adds at most two
        // extents, and the list keeps its capacity as calls undo each other.
        runs.insert(at, parts.begin() + static_cast<std::ptrdiff_t>(k),
                    parts.begin() + static_cast<std::ptrdiff_t>(n));
    }
}

}  // namespace

MemoryMap::MemoryMap(MemoryMap&& other) noexcept
    : regions_(std::move(other.regions_)),
      owner_runs_(std::move(other.owner_runs_)),
      tag_runs_(std::move(other.tag_runs_)),
      store_(std::move(other.store_)),
      mmio_(std::move(other.mmio_)),
      allocated_frames_(std::exchange(other.allocated_frames_, 0)) {
    other.restart_log();
    owner_generation_ = other.owner_generation_;
    restart_log();
}

MemoryMap& MemoryMap::operator=(MemoryMap&& other) noexcept {
    if (this != &other) {
        regions_ = std::move(other.regions_);
        owner_runs_ = std::move(other.owner_runs_);
        tag_runs_ = std::move(other.tag_runs_);
        store_ = std::move(other.store_);
        mmio_ = std::move(other.mmio_);
        allocated_frames_ = std::exchange(other.allocated_frames_, 0);
        other.restart_log();
        owner_generation_ = std::max(owner_generation_, other.owner_generation_);
        restart_log();
    }
    return *this;
}

void MemoryMap::paint_owner(std::uint64_t first, std::uint64_t end, const VmId* owner) {
    paint(owner_runs_, first, end, owner);
    owner_log_[++owner_generation_ % kChangeLog] = {first << kPageShift,
                                                    (end - first) << kPageShift};
}

void MemoryMap::add_region(MemRegion region) {
    if (region.size == 0 || (region.base & kPageMask) != 0 || (region.size & kPageMask) != 0) {
        throw std::invalid_argument("MemoryMap: regions must be non-empty and page aligned");
    }
    for (const auto& r : regions_) {
        const bool disjoint = region.end() <= r.base || region.base >= r.end();
        if (!disjoint) throw std::invalid_argument("MemoryMap: overlapping regions");
    }
    regions_.push_back(std::move(region));
    std::sort(regions_.begin(), regions_.end(),
              [](const MemRegion& a, const MemRegion& b) { return a.base < b.base; });
    restart_log();
}

const MemRegion* MemoryMap::find_region(PhysAddr a) const {
    for (const auto& r : regions_) {
        if (r.contains(a)) return &r;
    }
    return nullptr;
}

bool MemoryMap::is_ram(PhysAddr a) const {
    const auto* r = find_region(a);
    return r != nullptr && r->kind == RegionKind::kRam;
}

bool MemoryMap::is_mmio(PhysAddr a) const {
    const auto* r = find_region(a);
    return r != nullptr && r->kind == RegionKind::kMmio;
}

World MemoryMap::world_of(PhysAddr a) const {
    const auto* r = find_region(a);
    return r != nullptr ? r->world : World::kNonSecure;
}

std::uint64_t MemoryMap::ram_bytes() const {
    std::uint64_t total = 0;
    for (const auto& r : regions_) {
        if (r.kind == RegionKind::kRam) total += r.size;
    }
    return total;
}

std::uint64_t MemoryMap::ram_bytes(World w) const {
    std::uint64_t total = 0;
    for (const auto& r : regions_) {
        if (r.kind == RegionKind::kRam && r.world == w) total += r.size;
    }
    return total;
}

PhysAddr MemoryMap::alloc_frames(std::uint64_t nframes, VmId owner, World world) {
    if (nframes == 0) throw std::invalid_argument("alloc_frames: zero frames");
    for (const auto& r : regions_) {
        if (r.kind != RegionKind::kRam || r.world != world) continue;
        // First fit: walk the gaps between allocated runs inside the region.
        const std::uint64_t last = page_index(r.end());
        std::uint64_t gap = page_index(r.base);
        for (auto it = first_ending_after(owner_runs_, gap); gap < last; ++it) {
            const std::uint64_t gap_end =
                it == owner_runs_.end() ? last : std::min(it->first, last);
            if (gap_end >= gap + nframes) {
                paint_owner(gap, gap + nframes, &owner);
                allocated_frames_ += nframes;
                return gap << kPageShift;
            }
            if (it == owner_runs_.end()) break;
            gap = it->end;
        }
    }
    throw std::runtime_error("MemoryMap: out of contiguous frames");
}

void MemoryMap::free_frames(PhysAddr base, std::uint64_t nframes) {
    const std::uint64_t first = page_index(base);
    const std::uint64_t end = first + nframes;
    if (pages_covered(owner_runs_, first, end) != nframes) {
        throw std::logic_error("free_frames: frame not allocated");
    }
    paint_owner(first, end, nullptr);
    allocated_frames_ -= nframes;
    // Scrub. The store is sparse, so walk its words rather than the range:
    // a 256 MiB VM is 32 M words, and the store holds only the non-zero
    // words ever written.
    const std::uint64_t lo = (first << kPageShift) / 8;
    const std::uint64_t hi = (end << kPageShift) / 8;
    std::erase_if(store_, [lo, hi](const auto& word) {
        return word.first >= lo && word.first < hi;
    });
    // Hygiene: a freed frame is no longer critical. Dropping the tag here
    // (rather than at the next tagging) keeps has_integrity_tags() exact,
    // which the hot-path gate depends on.
    paint(tag_runs_, first, end, nullptr);
}

void MemoryMap::set_integrity_tag(PhysAddr base, std::uint64_t nframes, bool tagged) {
    const std::uint64_t first = page_index(base);
    const std::uint64_t end = first + nframes;
    for (std::uint64_t page = first; page < end;) {
        const MemRegion* r = find_region(page << kPageShift);
        if (r == nullptr || r->kind != RegionKind::kRam) {
            throw std::invalid_argument("set_integrity_tag: frame is not RAM");
        }
        page = page_index(r->end());
    }
    paint(tag_runs_, first, end, tagged ? &kHypervisorId : nullptr);
}

bool MemoryMap::in_tag_run(std::uint64_t page) const {
    const auto it = first_ending_after(tag_runs_, page);
    return it != tag_runs_.end() && it->first <= page;
}

void MemoryMap::free_owned_by(VmId vm) {
    // Freeing a whole run erases it, so index i then holds the next run.
    for (std::size_t i = 0; i < owner_runs_.size();) {
        const Run r = owner_runs_[i];
        if (r.owner == vm) {
            free_frames(r.first << kPageShift, r.end - r.first);
        } else {
            ++i;
        }
    }
}

void MemoryMap::set_owner(PhysAddr base, std::uint64_t nframes, VmId owner) {
    const std::uint64_t first = page_index(base);
    if (pages_covered(owner_runs_, first, first + nframes) != nframes) {
        throw std::logic_error("set_owner: frame not allocated");
    }
    paint_owner(first, first + nframes, &owner);
}

std::optional<FrameOwner> MemoryMap::owner_of(PhysAddr a) const {
    const std::uint64_t page = page_index(a);
    const auto it = first_ending_after(owner_runs_, page);
    if (it == owner_runs_.end() || it->first > page) return std::nullopt;
    return FrameOwner{it->owner, true};
}

bool MemoryMap::owned_span(PhysAddr base, std::uint64_t bytes, VmId vm) const {
    // Allocated frames are RAM by construction, so ownership implies is_ram.
    std::uint64_t page = page_index(base);
    const std::uint64_t end = page_index(page_ceil(base + bytes));
    for (auto it = first_ending_after(owner_runs_, page); page < end; ++it) {
        if (it == owner_runs_.end() || it->first > page || it->owner != vm) return false;
        page = it->end;
    }
    return true;
}

void MemoryMap::for_each_owner_run(
    PhysAddr base, std::uint64_t bytes,
    const std::function<void(PhysAddr, std::uint64_t, const FrameOwner&)>& fn) const {
    std::uint64_t page = page_index(base);
    const std::uint64_t end = page_index(page_ceil(base + bytes));
    auto it = first_ending_after(owner_runs_, page);
    while (page < end) {
        const bool held = it != owner_runs_.end() && it->first <= page;
        const std::uint64_t next = held                      ? it->end
                                   : it != owner_runs_.end() ? it->first
                                                             : end;
        const std::uint64_t stop = std::min(next, end);
        fn(page << kPageShift, stop - page, held ? FrameOwner{it->owner, true} : FrameOwner{});
        page = stop;
        if (held) ++it;
    }
}

FaultKind MemoryMap::check_physical_access(PhysAddr a, World accessor) const {
    const auto* r = find_region(a);
    if (r == nullptr) return FaultKind::kAddressSize;
    // TrustZone rule: secure masters may touch both worlds; non-secure
    // masters are confined to non-secure memory.
    if (r->world == World::kSecure && accessor == World::kNonSecure) {
        return FaultKind::kSecurity;
    }
    return FaultKind::kNone;
}

void MemoryMap::register_mmio(PhysAddr region_base, MmioHandler handler) {
    const MemRegion* r = find_region(region_base);
    if (r == nullptr || r->kind != RegionKind::kMmio || r->base != region_base) {
        throw std::invalid_argument("register_mmio: no MMIO region at that base");
    }
    mmio_[region_base] = std::move(handler);
}

std::uint64_t MemoryMap::read64(PhysAddr a, World accessor) const {
    if (const FaultKind f = check_physical_access(a, accessor); f != FaultKind::kNone) {
        throw std::runtime_error("read64: " + to_string(f) + " fault");
    }
    if (const MemRegion* r = find_region(a); r != nullptr && r->kind == RegionKind::kMmio) {
        const auto it = mmio_.find(r->base);
        if (it != mmio_.end() && it->second.read) return it->second.read(a - r->base);
        return 0;
    }
    const auto it = store_.find(a / 8);
    return it == store_.end() ? 0 : it->second;
}

void MemoryMap::write64(PhysAddr a, std::uint64_t value, World accessor) {
    if (const FaultKind f = check_physical_access(a, accessor); f != FaultKind::kNone) {
        throw std::runtime_error("write64: " + to_string(f) + " fault");
    }
    if (const MemRegion* r = find_region(a); r != nullptr && r->kind == RegionKind::kMmio) {
        const auto it = mmio_.find(r->base);
        if (it != mmio_.end() && it->second.write) it->second.write(a - r->base, value);
        return;
    }
    if (value == 0) {
        store_.erase(a / 8);
    } else {
        store_[a / 8] = value;
    }
}

}  // namespace hpcsec::arch
