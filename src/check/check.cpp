#include "check/check.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <utility>

#include "arch/isa.h"
#include "arch/memory_map.h"
#include "arch/platform.h"
#include "obs/events.h"

namespace hpcsec::check {

namespace {

/// One past the largest interrupt id the controller models distribute
/// (kExternalBase + the default external-source count).
constexpr int kIrqIdLimit = 256;

[[nodiscard]] std::string hex(std::uint64_t v) {
    constexpr const char* digits = "0123456789abcdef";
    std::string s;
    do {
        // sca-suppress(hot-path-alloc): hex spells an address in a finding's
        // description, which is built only when a check has failed.
        s.insert(s.begin(), digits[v & 0xf]);
        v >>= 4;
    } while (v != 0);
    return "0x" + s;
}

[[nodiscard]] bool routed_irq_id(int irq, const arch::IrqLayout& layout) {
    return (irq >= arch::kIpiBase && irq < arch::kIpiLimit) ||  // IPIs
           irq == layout.virt_timer || irq == layout.phys_timer ||
           (irq >= arch::kExternalBase && irq < kIrqIdLimit);  // device irqs
}

/// The stretch of PA space from some address that one region decides: the
/// region holding it up to that region's end, or, when the address is
/// unbacked (`region` null), up to the next region's base.
struct Piece {
    const arch::MemRegion* region = nullptr;
    arch::PhysAddr end = 0;
};

[[nodiscard]] Piece piece_at(const arch::MemoryMap& mem, arch::PhysAddr pa) {
    for (const arch::MemRegion& r : mem.regions()) {  // sorted by base
        if (pa < r.base) return {nullptr, r.base};
        if (pa < r.end()) return {&r, r.end()};
    }
    return {nullptr, ~arch::PhysAddr{0}};
}

/// The piece index's order: by PA, then VM, then IPA. A VM's pieces never
/// share an IPA, so no two pieces tie, and every path that builds the
/// index visits overlapping pieces in one order.
constexpr auto by_pa_order = [](const auto& a, const auto& b) {
    return std::tie(a.pa, a.vm, a.ipa) < std::tie(b.pa, b.vm, b.ipa);
};

/// First PA in [pa, end) that no grant passing `accept` covers, or `end`
/// when they cover all of it. Grants may overlap and come in any order.
template <typename Grant, typename Accept>
[[nodiscard]] arch::PhysAddr first_ungranted(const std::vector<Grant>& grants,
                                             arch::PhysAddr pa, arch::PhysAddr end,
                                             const Accept& accept) {
    for (bool advanced = true; pa < end && advanced;) {
        advanced = false;
        for (const Grant& gr : grants) {
            if (accept(gr) && gr.pa <= pa && pa < gr.pa + gr.size) {
                pa = gr.pa + gr.size;
                advanced = true;
            }
        }
    }
    return std::min(pa, end);
}

}  // namespace

const char* to_string(Rule r) {
    switch (r) {
        case Rule::kStage2Exclusive: return "stage2-exclusive";
        case Rule::kStage2Ownership: return "stage2-ownership";
        case Rule::kTrustZone: return "trustzone-world";
        case Rule::kVcpuTransition: return "vcpu-transition";
        case Rule::kCoreLocality: return "core-locality";
        case Rule::kVgicSanity: return "vgic-sanity";
        case Rule::kAccounting: return "accounting";
    }
    return "?";
}

const char* to_string(Mode m) {
    switch (m) {
        case Mode::kOff: return "off";
        case Mode::kSampled: return "sampled";
        case Mode::kStrict: return "strict";
    }
    return "?";
}

std::string CheckFailure::format() const {
    std::string s = "[";
    s += to_string(rule);
    s += "] vm=" + std::to_string(vm);
    if (vcpu >= 0) s += " vcpu=" + std::to_string(vcpu);
    s += ": " + description;
    return s;
}

Auditor::Auditor(hafnium::Spm& spm) : Auditor(spm, Options{}) {}

Auditor::Auditor(hafnium::Spm& spm, Options options)
    : hafnium::HypercallInterceptor(hafnium::HypercallInterceptor::Stage::kAudit),
      spm_(&spm),
      options_(options) {
    const arch::IrqLayout& layout = spm_->platform().isa_ops().irq;
    for (int irq = 0; irq < arch::IrqBitset::kBits; ++irq) {
        if (routed_irq_id(irq, layout)) routed_irqs_.insert(irq);
    }
    spm_->attach_audit(this);
    spm_->attach_interceptor(this);
}

Auditor::~Auditor() {
    spm_->detach_interceptor(this);
    spm_->detach_audit(this);
}

std::size_t Auditor::count(Rule r) const {
    return static_cast<std::size_t>(
        std::count_if(failures_.begin(), failures_.end(),
                      [r](const CheckFailure& f) { return f.rule == r; }));
}

void Auditor::clear() {
    failures_.clear();
    seen_.clear();
}

std::string Auditor::report() const {
    std::string out;
    for (const auto& f : failures_) {
        out += f.format();
        out += '\n';
    }
    return out;
}

void Auditor::publish_metrics() {
    auto& m = spm_->platform().metrics();
    m.set(m.gauge("check.failures"), static_cast<double>(failures_.size()));
    m.set(m.gauge("check.audits"), static_cast<double>(audits_));
    m.set(m.gauge("check.transitions"), static_cast<double>(transitions_));
}

void Auditor::record(CheckFailure f) {
    std::string key = std::to_string(static_cast<int>(f.rule)) + '|' +
                      std::to_string(f.vm) + '|' + std::to_string(f.vcpu) + '|' +
                      f.description;
    // sca-suppress(hot-path-alloc): record runs only on a failed check, and
    // adds an entry only for a new finding.
    if (!seen_.insert(std::move(key)).second) return;  // already reported
    auto& platform = spm_->platform();
    platform.recorder().instant(platform.engine().now(), obs::EventType::kCheckFail,
                                /*core=*/-1, static_cast<std::int64_t>(f.rule),
                                f.vm, f.vcpu);
    // sca-suppress(hot-path-alloc): grows only when an isolation invariant
    // is already violated — the run is off its steady-state contract.
    failures_.push_back(f);
    // Post-mortem context: every *new* finding flushes the flight recorder
    // (no-op when disarmed) — before the strict throw, so the dump exists
    // even when the violation unwinds the run.
    // sca-suppress(hot-path-alloc): a dump copies the rings once per new
    // finding, off the steady state like the push_back above.
    platform.flight().dump("check-violation");
    // sca-suppress(no-throw-guest-path): strict mode is the documented
    // fail-stop contract — an isolation violation must abort the run, not
    // be swallowed; kLog mode is the non-throwing alternative.
    if (options_.mode == Mode::kStrict) throw CheckViolation(std::move(f));
}

std::size_t Auditor::validate() {
    const std::size_t before = failures_.size();
    ++audits_;
    calls_since_scan_ = 0;
    events_at_last_scan_ = spm_->platform().engine().events_executed();
    check_stage2();
    check_core_locality();
    check_vgic();
    check_accounting();
    return failures_.size() - before;
}

// --------------------------------------------------------------------------
// Hook points
// --------------------------------------------------------------------------

void Auditor::on_vcpu_state(hafnium::Vcpu& vcpu, hafnium::VcpuState from,
                            hafnium::VcpuState to) {
    if (options_.mode == Mode::kOff) return;
    ++transitions_;
    if (hafnium::vcpu_transition_legal(from, to)) return;
    record({Rule::kVcpuTransition, vcpu.vm().id(), vcpu.index(),
            std::string("illegal transition ") + hafnium::to_string(from) +
                " -> " + hafnium::to_string(to)});
}

void Auditor::after(const hafnium::HypercallSite& site,
                    const hafnium::HfResult& result) {
    (void)site;
    (void)result;
    if (options_.mode == Mode::kStrict) {
        validate();
        return;
    }
    if (options_.mode != Mode::kSampled) return;
    ++calls_since_scan_;
    const std::uint64_t events = spm_->platform().engine().events_executed();
    if (calls_since_scan_ >= static_cast<std::uint64_t>(options_.period) ||
        (options_.event_period != 0 &&
         events - events_at_last_scan_ >= options_.event_period)) {
        validate();
    }
}

// --------------------------------------------------------------------------
// Rule: stage-2 exclusivity / ownership / TrustZone worlds
// --------------------------------------------------------------------------

void Auditor::record_at(arch::PhysAddr lo, arch::PhysAddr hi, CheckFailure f) {
    // sca-suppress(hot-path-alloc): grows only when a check has failed.
    failed_.push_back({lo, hi});
    record(std::move(f));
}

void Auditor::mark(arch::PhysAddr lo, arch::PhysAddr hi) {
    // sca-suppress(hot-path-alloc): cleared, not freed, per audit, so it
    // grows only past the most dirty ranges an audit has seen.
    dirty_.push_back({lo, hi});
}

bool Auditor::dirty(arch::PhysAddr lo, arch::PhysAddr hi) const {
    for (const PaRange& r : dirty_) {  // short, and sorted by start
        if (r.lo > hi) return false;
        if (r.hi >= lo) return true;
    }
    return false;
}

template <typename Fn>
void Auditor::cut_run(arch::VmId vm, const arch::PageTable::MappingView& run,
                      const Fn& fn) const {
    const arch::MemoryMap& mem = spm_->platform().mem();
    const arch::PhysAddr run_end = run.out_base + run.size;
    for (arch::PhysAddr pa = run.out_base; pa < run_end;) {
        const Piece piece = piece_at(mem, pa);
        const arch::PhysAddr end = std::min(run_end, piece.end);
        fn(PaMapping{vm, run.in_base + (pa - run.out_base), pa, end - pa, run.perms,
                     run.secure, piece.region});
        pa = end;
    }
}

void Auditor::sync_stage2(const hafnium::Vm& vm, bool& full) {
    const auto slot = static_cast<std::size_t>(vm.id() - 1);
    // sca-suppress(hot-path-alloc): one slot per VM id, added by the first
    // audit that sees the VM.
    if (slot >= stage2_runs_.size()) stage2_runs_.resize(slot + 1);
    Stage2Runs& cached = stage2_runs_[slot];
    if (vm.destroyed) {
        if (!cached.runs.empty()) {
            std::erase_if(pieces_, [&vm](const PaMapping& p) { return p.vm == vm.id(); });
            cached.runs.clear();
        }
        return;
    }
    const arch::PageTable& table = vm.stage2();
    if (cached.table != &table) {  // never read: an empty list at generation 0
        full = full || cached.table != nullptr;
        cached.table = &table;
        cached.generation = 0;
        cached.runs.clear();
    }
    if (cached.generation == table.generation()) return;
    full = full || table.generation() - cached.generation > arch::PageTable::kChangeLog;
    ChangedRanges changed;
    const std::size_t n = full ? 0 : table.refresh_ranges(cached.generation, changed);
    reindex(vm.id(), cached.runs, changed, n, /*add=*/false);
    table.refresh_runs(cached.runs, cached.generation);
    cached.generation = table.generation();
    reindex(vm.id(), cached.runs, changed, n, /*add=*/true);
}

void Auditor::reindex(arch::VmId vm, const std::vector<arch::PageTable::MappingView>& runs,
                      const ChangedRanges& changed, std::size_t n, bool add) {
    // A piece that meets no changed range, closed at both ends, is the same
    // before and after the refresh: only those that meet one are swapped.
    for (std::size_t i = 0; i < n; ++i) {
        const auto [lo, hi] = changed[i];
        auto run = std::partition_point(runs.begin(), runs.end(),
                                        [lo](const arch::PageTable::MappingView& r) {
                                            return r.in_base + r.size < lo;
                                        });
        for (; run != runs.end() && run->in_base <= hi; ++run) {
            const std::uint64_t from = std::max(run->in_base, lo);
            const std::uint64_t to = std::min(run->in_base + run->size, hi);
            const arch::PhysAddr pa = run->out_base + (from - run->in_base);
            if (from < to) mark(pa, pa + (to - from));
            cut_run(vm, *run, [this, lo, hi, add](const PaMapping& m) {
                if (m.ipa > hi || m.ipa + m.size < lo) return;
                // Pieces are unique, and one that meets two ranges comes
                // twice: take out or put in only once.
                const auto at =
                    std::lower_bound(pieces_.begin(), pieces_.end(), m, by_pa_order);
                const bool present = at != pieces_.end() && !by_pa_order(m, *at);
                if (!add && present) pieces_.erase(at);
                // sca-suppress(hot-path-alloc): the index keeps its capacity,
                // so it grows only past the most pieces the node has held.
                if (add && !present) pieces_.insert(at, m);
            });
        }
    }
}

void Auditor::resolve_grants(bool full) {
    std::swap(grant_ranges_, audited_grant_ranges_);
    grant_ranges_.clear();
    for (const auto& g : spm_->grants()) {
        const arch::WalkResult w = spm_->vm_translate(g.owner, g.owner_ipa);
        if (w.fault != arch::FaultKind::kNone) continue;  // owner unmapped: stale
        // sca-suppress(hot-path-alloc): cleared, not freed, per audit, so it
        // grows only past the most live grants an audit has seen.
        grant_ranges_.push_back({g.owner, g.borrower, w.out, g.pages * arch::kPageSize});
    }
    if (full) return;
    // The grants in the longest common head and tail of the two lists are
    // unchanged; those between, on either side, came, went or moved.
    const std::vector<GrantRange>& was = audited_grant_ranges_;
    const auto [was_at, is_at] =
        std::mismatch(was.begin(), was.end(), grant_ranges_.begin(), grant_ranges_.end());
    const auto [was_end, is_end] =
        std::mismatch(was.rbegin(), std::make_reverse_iterator(was_at),
                      grant_ranges_.rbegin(), std::make_reverse_iterator(is_at));
    for (auto it = was_at; it != was_end.base(); ++it) mark(it->pa, it->pa + it->size);
    for (auto it = is_at; it != is_end.base(); ++it) mark(it->pa, it->pa + it->size);
}

void Auditor::check_piece(const PaMapping& m) {
    const hafnium::Vm& vm = spm_->vm(m.vm);
    const arch::MemRegion* region = m.region;
    const arch::PhysAddr end = m.pa + m.size;
    if (region == nullptr) {
        record_at(m.pa, end,
                  {Rule::kStage2Ownership, vm.id(), -1,
                   "maps unbacked PA " + hex(m.pa) + " (" + std::to_string(m.size) +
                       " bytes)"});
        return;
    }
    if (region->kind == arch::RegionKind::kMmio) {
        if (vm.role() == hafnium::VmRole::kSecondary) {
            record_at(m.pa, end,
                      {Rule::kStage2Ownership, vm.id(), -1,
                       "secondary maps MMIO region '" + region->name + "'"});
        }
        return;  // device windows are exempt from RAM rules
    }

    // TrustZone: the NS bit must match the frame's world, and a normal-world
    // VM must never reach secure RAM.
    const bool frame_secure = region->world == arch::World::kSecure;
    if (m.secure != frame_secure) {
        record_at(m.pa, end,
                  {Rule::kTrustZone, vm.id(), -1,
                   std::string("stage-2 secure attribute ") +
                       (m.secure ? "set" : "clear") + " but frame world is " +
                       (frame_secure ? "secure" : "non-secure")});
    }
    if (vm.world() == arch::World::kNonSecure && frame_secure) {
        record_at(m.pa, end,
                  {Rule::kTrustZone, vm.id(), -1,
                   "normal-world VM maps secure RAM at PA " + hex(m.pa)});
    }

    // Ownership, exactly: every run of frames the VM does not own must be
    // covered by grants that name it as borrower.
    // Each run of one owner is one unit, re-checked whole when it meets the
    // dirty set.
    spm_->platform().mem().for_each_owner_run(
        m.pa, m.size,
        [this, &vm](arch::PhysAddr pa, std::uint64_t frames,
                    const arch::FrameOwner& owner) {
            if (owner.allocated && owner.vm == vm.id()) return;
            const arch::PhysAddr run_end = pa + frames * arch::kPageSize;
            if (!dirty(pa, run_end)) return;
            const arch::PhysAddr bad = first_ungranted(
                grant_ranges_, pa, run_end,
                [&vm](const GrantRange& gr) { return gr.borrower == vm.id(); });
            if (bad == run_end) return;
            record_at(pa, run_end,
                      {Rule::kStage2Ownership, vm.id(), -1,
                       "maps PA " + hex(bad) + " owned by vm " +
                           std::to_string(owner.vm) + " without a grant"});
        });
}

void Auditor::check_stage2() {
    // Only a scan that ran to its end leaves verdicts to build on.
    bool full = !synced_;
    synced_ = false;
    dirty_.clear();

    // Ownership changes since the last audit.
    const arch::MemoryMap& mem = spm_->platform().mem();
    full = full || !mem.owner_changes(mem_generation_, [this](arch::PhysAddr base,
                                                             std::uint64_t bytes) {
        mark(base, base + bytes);
    });
    mem_generation_ = mem.owner_generation();
    // Table changes, which also add and drop pieces, and grant changes.
    for (int id = 1; id <= spm_->vm_count(); ++id) {
        sync_stage2(spm_->vm(static_cast<arch::VmId>(id)), full);
    }
    resolve_grants(full);

    if (full) {
        ++full_scans_;
        pieces_.clear();
        for (int id = 1; id <= spm_->vm_count(); ++id) {
            const hafnium::Vm& vm = spm_->vm(static_cast<arch::VmId>(id));
            if (vm.destroyed) continue;
            for (const arch::PageTable::MappingView& run :
                 stage2_runs_[static_cast<std::size_t>(id - 1)].runs) {
                cut_run(vm.id(), run, [this](const PaMapping& m) {
                    // sca-suppress(hot-path-alloc): see reindex.
                    pieces_.push_back(m);
                });
            }
        }
        std::sort(pieces_.begin(), pieces_.end(), by_pa_order);
        dirty_.clear();
        mark(0, ~arch::PhysAddr{0});
    } else {
        // The units that failed at the last audit are re-checked too.
        // sca-suppress(hot-path-alloc): see mark.
        dirty_.insert(dirty_.end(), failed_.begin(), failed_.end());
        std::sort(dirty_.begin(), dirty_.end(),
                  [](const PaRange& a, const PaRange& b) { return a.lo < b.lo; });
    }
    failed_.clear();

    // The pieces that meet the dirty set, visited first in table order (VM,
    // then IPA), then in index order.
    visit_.clear();
    for (std::size_t i = 0; i < pieces_.size(); ++i) {
        if (dirty(pieces_[i].pa, pieces_[i].pa + pieces_[i].size)) {
            // sca-suppress(hot-path-alloc): cleared, not freed, per audit,
            // like dirty_.
            visit_.push_back(static_cast<std::uint32_t>(i));
        }
    }
    std::sort(visit_.begin(), visit_.end(), [this](std::uint32_t a, std::uint32_t b) {
        return std::tie(pieces_[a].vm, pieces_[a].ipa) <
               std::tie(pieces_[b].vm, pieces_[b].ipa);
    });
    for (const std::uint32_t i : visit_) check_piece(pieces_[i]);

    // Exclusivity sweep, in index order: writable RAM present in two
    // different VMs' tables must be covered, over the whole overlap, by
    // grants between exactly those VMs.
    std::sort(visit_.begin(), visit_.end());
    const auto writable_ram = [](const PaMapping& m) {
        return (m.perms & arch::kPermW) != 0 && m.region != nullptr &&
               m.region->kind == arch::RegionKind::kRam;
    };
    for (const std::uint32_t i : visit_) {
        const PaMapping& a = pieces_[i];
        if (!writable_ram(a)) continue;
        for (std::size_t j = i + 1; j < pieces_.size(); ++j) {
            const PaMapping& b = pieces_[j];
            if (b.pa >= a.pa + a.size) break;  // sorted: no further overlap
            if (b.vm == a.vm || !writable_ram(b)) continue;
            const arch::PhysAddr end = std::min(a.pa + a.size, b.pa + b.size);
            if (!dirty(b.pa, end)) continue;
            const arch::PhysAddr bad =
                first_ungranted(grant_ranges_, b.pa, end, [&a, &b](const GrantRange& gr) {
                    return (gr.owner == a.vm && gr.borrower == b.vm) ||
                           (gr.owner == b.vm && gr.borrower == a.vm);
                });
            if (bad == end) continue;
            record_at(b.pa, end,
                      {Rule::kStage2Exclusive, b.vm, -1,
                       "PA " + hex(bad) + " writable in vm " + std::to_string(a.vm) +
                           " and vm " + std::to_string(b.vm) + " without a grant"});
        }
    }
    synced_ = true;
}

// --------------------------------------------------------------------------
// Rule: core locality
// --------------------------------------------------------------------------

void Auditor::check_core_locality() {
    const int ncores = spm_->platform().ncores();
    // sca-suppress(hot-path-alloc): the core count never changes, so only
    // the first audit allocates.
    running_.assign(static_cast<std::size_t>(ncores), nullptr);
    for (int id = 1; id <= spm_->vm_count(); ++id) {
        hafnium::Vm& vm = spm_->vm(static_cast<arch::VmId>(id));
        for (int v = 0; v < vm.vcpu_count(); ++v) {
            const hafnium::Vcpu& vcpu = vm.vcpu(v);
            if (vcpu.assigned_core < -1 || vcpu.assigned_core >= ncores) {
                record({Rule::kCoreLocality, vm.id(), v,
                        "assigned_core " + std::to_string(vcpu.assigned_core) +
                            " out of range"});
            }
            if (vcpu.state() == hafnium::VcpuState::kRunning) {
                if (vcpu.running_core < 0 || vcpu.running_core >= ncores) {
                    record({Rule::kCoreLocality, vm.id(), v,
                            "running with running_core " +
                                std::to_string(vcpu.running_core)});
                    continue;
                }
                const auto slot = static_cast<std::size_t>(vcpu.running_core);
                if (running_[slot] != nullptr) {
                    record({Rule::kCoreLocality, vm.id(), v,
                            "two running VCPUs on core " +
                                std::to_string(vcpu.running_core)});
                } else {
                    running_[slot] = &vcpu;
                }
                if (spm_->running_vcpu(vcpu.running_core) != &vcpu) {
                    record({Rule::kCoreLocality, vm.id(), v,
                            "running_core " + std::to_string(vcpu.running_core) +
                                " disagrees with the SPM's per-core table"});
                }
            } else if (vcpu.running_core != -1) {
                record({Rule::kCoreLocality, vm.id(), v,
                        std::string("state ") + to_string(vcpu.state()) +
                            " but running_core " +
                            std::to_string(vcpu.running_core)});
            }
        }
    }
    for (int c = 0; c < ncores; ++c) {
        const hafnium::Vcpu* rv = spm_->running_vcpu(c);
        if (rv != nullptr && rv->state() != hafnium::VcpuState::kRunning) {
            record({Rule::kCoreLocality, rv->vm().id(), rv->index(),
                    std::string("per-core table lists a ") + to_string(rv->state()) +
                        " VCPU on core " + std::to_string(c)});
        }
    }
}

// --------------------------------------------------------------------------
// Rule: vGIC sanity
// --------------------------------------------------------------------------

void Auditor::check_vgic() {
    // Four word ANDs per set against the routed mask; ids are spelled out
    // only where a stray bit is set, ascending, pending before enabled.
    const auto flag_strays = [this](const arch::IrqBitset& set, const char* what,
                                    arch::VmId vm, int v) {
        for (int w = 0; w < arch::IrqBitset::kWords; ++w) {
            for (std::uint64_t stray = set.word(w) & ~routed_irqs_.word(w); stray != 0;
                 stray &= stray - 1) {
                record({Rule::kVgicSanity, vm, v,
                        std::string(what) + " virq " +
                            std::to_string(w * 64 + std::countr_zero(stray)) +
                            " is not a routed interrupt id"});
            }
        }
    };
    for (int id = 1; id <= spm_->vm_count(); ++id) {
        const hafnium::Vm& vm = spm_->vm(static_cast<arch::VmId>(id));
        if (vm.destroyed) continue;
        for (int v = 0; v < vm.vcpu_count(); ++v) {
            const hafnium::VGicState& vgic = vm.vcpu(v).vgic;
            std::uint64_t stray = 0;
            for (int w = 0; w < arch::IrqBitset::kWords; ++w) {
                stray |= (vgic.pending.word(w) | vgic.enabled.word(w)) &
                         ~routed_irqs_.word(w);
            }
            if (stray == 0) [[likely]] {
                continue;
            }
            flag_strays(vgic.pending, "pending", vm.id(), v);
            flag_strays(vgic.enabled, "enabled", vm.id(), v);
        }
    }
}

// --------------------------------------------------------------------------
// Rule: accounting cross-checks
// --------------------------------------------------------------------------

void Auditor::check_accounting() {
    const hafnium::Spm::Stats& s = spm_->stats();

    const std::uint64_t exits = s.exits_preempted + s.exits_blocked +
                                s.exits_yield + s.exits_aborted;
    if (s.vm_exits != exits) {
        record({Rule::kAccounting, 0, -1,
                "vm_exits " + std::to_string(s.vm_exits) +
                    " != preempted+blocked+yield+aborted " + std::to_string(exits)});
    }

    if (s.mem_grants < s.mem_revokes ||
        spm_->grants().size() != s.mem_grants - s.mem_revokes) {
        record({Rule::kAccounting, 0, -1,
                "live grants " + std::to_string(spm_->grants().size()) +
                    " != mem_grants " + std::to_string(s.mem_grants) +
                    " - mem_revokes " + std::to_string(s.mem_revokes)});
    }

    std::uint64_t runs = 0;
    for (int id = 1; id <= spm_->vm_count(); ++id) {
        hafnium::Vm& vm = spm_->vm(static_cast<arch::VmId>(id));
        for (int v = 0; v < vm.vcpu_count(); ++v) runs += vm.vcpu(v).runs;
    }
    if (s.vm_exits > runs) {
        record({Rule::kAccounting, 0, -1,
                "vm_exits " + std::to_string(s.vm_exits) + " exceeds VCPU entries " +
                    std::to_string(runs)});
    }

    // Reconcile against the published obs metrics: what publish_metrics
    // exports must match the live counters (the tools/sca rule
    // `stats-publish-coverage` separately proves every Stats field is
    // published at all).
    spm_->publish_metrics();
    auto& m = spm_->platform().metrics();
    const std::pair<const char*, std::uint64_t> reconciled[] = {
        {"hf.vm_exits", s.vm_exits},
        {"hf.exits_preempted", s.exits_preempted},
        {"hf.exits_blocked", s.exits_blocked},
        {"hf.exits_yield", s.exits_yield},
        {"hf.exits_aborted", s.exits_aborted},
        {"hf.mem_grants", s.mem_grants},
        {"hf.mem_revokes", s.mem_revokes},
        {"hf.bad_state_calls", s.bad_state_calls},
    };
    static_assert(std::size(reconciled) ==
                  std::tuple_size_v<decltype(reconciled_gauges_)>);
    if (!reconciled_gauges_found_) {
        for (std::size_t i = 0; i < std::size(reconciled); ++i) {
            // sca-suppress(hot-path-alloc): the first audit looks the gauges
            // up; later audits read the cached handles.
            reconciled_gauges_[i] = m.gauge(reconciled[i].first);
        }
        reconciled_gauges_found_ = true;
    }
    for (std::size_t i = 0; i < std::size(reconciled); ++i) {
        const auto& [name, value] = reconciled[i];
        const double g = m.gauge_value(reconciled_gauges_[i]);
        if (g != static_cast<double>(value)) {
            record({Rule::kAccounting, 0, -1,
                    std::string(name) + " gauge " + std::to_string(g) +
                        " != stats counter " + std::to_string(value)});
        }
    }
}

}  // namespace hpcsec::check
