// Isolation-invariant auditor for the SPM.
//
// The paper's argument rests on properties no single unit test states
// globally: stage-2 tables never leak one VM's frames to another, VCPUs
// only move through legal scheduling states, a physical core never hosts
// two running VCPUs, the para-virtual GIC only carries routed interrupt
// ids, and the SPM's own accounting stays internally consistent. The
// Auditor checks all of them continuously: transition hooks fire on every
// VCPU state change, and full scans run after hypercalls at a configurable
// cadence. When detached, every hook site in the SPM costs one predicted
// branch — the same discipline as the obs recorder.
//
// See docs/CHECKING.md for the rule catalog and how to add a rule.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "arch/irq_bitset.h"
#include "hafnium/spm.h"

namespace hpcsec::check {

/// Every invariant the auditor enforces. Keep to_string in check.cpp in
/// sync (the tools/sca rule `enum-string-coverage` fails the build
/// otherwise).
enum class Rule : std::uint8_t {
    kStage2Exclusive,  ///< writable frame in >1 VM without a covering grant
    kStage2Ownership,  ///< VM maps a frame it neither owns nor borrows
    kTrustZone,        ///< stage-2 secure attribute contradicts the frame's world
    kVcpuTransition,   ///< illegal VcpuState transition
    kCoreLocality,     ///< >1 running VCPU per core / incoherent core fields
    kVgicSanity,       ///< pending/enabled virq id is not a routed interrupt
    kAccounting,       ///< Spm::Stats identities / obs-metrics reconciliation
};

[[nodiscard]] const char* to_string(Rule r);

enum class Mode : std::uint8_t {
    kOff,      ///< hooks attached but inert (overhead measurement baseline)
    kSampled,  ///< audit every N hypercalls / sim events, report at the end
    kStrict,   ///< audit every hypercall, throw on the first violation
};

[[nodiscard]] const char* to_string(Mode m);

/// One violated invariant, with enough context to locate the culprit.
struct CheckFailure {
    Rule rule = Rule::kStage2Exclusive;
    arch::VmId vm = 0;   ///< 0 when the failure is not VM-specific
    int vcpu = -1;       ///< -1 when the failure is not VCPU-specific
    std::string description;

    [[nodiscard]] std::string format() const;
};

/// Thrown by strict mode at the point of detection.
class CheckViolation : public std::runtime_error {
public:
    explicit CheckViolation(CheckFailure f)
        : std::runtime_error("check violation: " + f.format()),
          failure(std::move(f)) {}

    const CheckFailure failure;
};

/// Attaches to an Spm and audits the isolation invariants. Construction
/// registers both hooks — the per-VCPU state-transition sink and a
/// Stage::kAudit interceptor on the hypercall chain; destruction detaches
/// them.
class Auditor final : public hafnium::HypercallInterceptor,
                      public hafnium::VcpuAuditSink {
public:
    struct Options {
        Mode mode = Mode::kSampled;
        /// Sampled mode: full scan every `period` observed hypercalls...
        int period = 64;
        /// ...or whenever this many sim-engine events elapsed since the
        /// last scan, whichever comes first. 0 disables the event cadence.
        std::uint64_t event_period = 100'000;
    };

    explicit Auditor(hafnium::Spm& spm);
    Auditor(hafnium::Spm& spm, Options options);
    ~Auditor() override;
    Auditor(const Auditor&) = delete;
    Auditor& operator=(const Auditor&) = delete;

    /// Run every scan rule now. Returns the number of *new* findings
    /// (repeats of an already-recorded failure are deduplicated). In
    /// strict mode the first new finding throws CheckViolation instead.
    std::size_t validate();

    [[nodiscard]] const std::vector<CheckFailure>& failures() const {
        return failures_;
    }
    [[nodiscard]] std::size_t count(Rule r) const;
    [[nodiscard]] std::uint64_t audits() const { return audits_; }
    /// Audits that re-checked every stage-2 unit rather than only those the
    /// changes since the last audit touched (docs/CHECKING.md).
    [[nodiscard]] std::uint64_t full_scans() const { return full_scans_; }
    [[nodiscard]] std::uint64_t transitions_checked() const { return transitions_; }
    [[nodiscard]] const Options& options() const { return options_; }
    void clear();

    /// Multi-line human-readable findings report ("" when clean).
    [[nodiscard]] std::string report() const;

    /// Gauges check.failures / check.audits / check.transitions.
    void publish_metrics();

    // --- SPM hook points ----------------------------------------------------
    /// VcpuAuditSink: every VCPU state transition.
    void on_vcpu_state(hafnium::Vcpu& vcpu, hafnium::VcpuState from,
                       hafnium::VcpuState to) override;
    /// HypercallInterceptor (Stage::kAudit): scan cadence after every call.
    /// Strict mode may throw CheckViolation from here.
    void after(const hafnium::HypercallSite& site,
               const hafnium::HfResult& result) override;

private:
    /// A share/lend grant resolved to the PA range it covers.
    struct GrantRange {
        arch::VmId owner = 0;
        arch::VmId borrower = 0;
        arch::PhysAddr pa = 0;
        std::uint64_t size = 0;

        bool operator==(const GrantRange&) const = default;
    };

    /// A PA range [lo, hi).
    struct PaRange {
        arch::PhysAddr lo = 0;
        arch::PhysAddr hi = 0;
    };

    /// A piece: a run of stage-2 terminal mappings, contiguous in IPA and PA
    /// with equal attributes and inside one region (or one unbacked
    /// stretch), tagged with its VM and that region (null when unbacked).
    struct PaMapping {
        arch::VmId vm = 0;
        arch::IpaAddr ipa = 0;
        arch::PhysAddr pa = 0;
        std::uint64_t size = 0;
        std::uint8_t perms = arch::kPermNone;
        bool secure = false;
        const arch::MemRegion* region = nullptr;
    };

    /// One VM's stage-2 maximal runs as for_each_mapping would report them
    /// from `table` at `generation`. `table` is only ever compared, never
    /// read.
    struct Stage2Runs {
        const arch::PageTable* table = nullptr;
        std::uint64_t generation = 0;
        std::vector<arch::PageTable::MappingView> runs;
    };
    /// The input ranges one refresh walks (PageTable::refresh_ranges).
    using ChangedRanges = std::array<arch::PageTable::Range, arch::PageTable::kChangeLog>;

    void record(CheckFailure f);  ///< dedup, retain, obs event, strict throw
    /// Record a finding of the stage-2 unit over PA [lo, hi), and keep that
    /// range for the next audit to re-check.
    void record_at(arch::PhysAddr lo, arch::PhysAddr hi, CheckFailure f);
    /// Add [lo, hi) to the dirty set.
    void mark(arch::PhysAddr lo, arch::PhysAddr hi);
    /// True when [lo, hi], closed, meets the dirty set: a unit there may
    /// have changed since the last audit, or failed at it.
    [[nodiscard]] bool dirty(arch::PhysAddr lo, arch::PhysAddr hi) const;

    /// Bring `vm`'s stage-2 runs up to date (PageTable::refresh_runs) when
    /// its table's generation moved; a table never read starts from an
    /// empty list at generation 0. Unless `full` is set, also mark dirty the
    /// PAs the refreshed ranges map before and after, and swap the pieces
    /// that meet those ranges in the index; set `full` when that cannot be
    /// done exactly. A destroyed VM leaves the index.
    void sync_stage2(const hafnium::Vm& vm, bool& full);
    /// The pieces cut from `runs` (old when `add` is false, new when true)
    /// that meet the first `n` of `changed`: mark the PAs those ranges map,
    /// and take the pieces out of the index or put them in.
    void reindex(arch::VmId vm, const std::vector<arch::PageTable::MappingView>& runs,
                 const ChangedRanges& changed, std::size_t n, bool add);
    /// Resolve every live grant, and unless `full` is set, mark dirty the
    /// ranges of the grants that came, went or moved since the last audit.
    void resolve_grants(bool full);
    /// Cut `run` where its PA crosses into another region or out of the
    /// unbacked stretch between two: fn(piece) per piece, in PA order.
    template <typename Fn>
    void cut_run(arch::VmId vm, const arch::PageTable::MappingView& run,
                 const Fn& fn) const;
    /// The rules on one piece: unbacked, MMIO and TrustZone, then ownership
    /// over each run of one owner that meets the dirty set.
    void check_piece(const PaMapping& m);

    // Scan rules (each may record any number of failures).
    void check_stage2();
    void check_core_locality();
    void check_vgic();
    void check_accounting();

    hafnium::Spm* spm_;
    Options options_;
    std::vector<CheckFailure> failures_;
    std::unordered_set<std::string> seen_;
    std::uint64_t audits_ = 0;
    std::uint64_t full_scans_ = 0;
    std::uint64_t transitions_ = 0;
    std::uint64_t calls_since_scan_ = 0;
    std::uint64_t events_at_last_scan_ = 0;

    // Kept across audits, so an audit after warm-up allocates nothing.
    /// False until a stage-2 scan runs to its end: only then do the state
    /// below and failed_ describe the last audit.
    bool synced_ = false;
    std::uint64_t mem_generation_ = 0;  ///< MemoryMap::owner_generation audited
    std::vector<Stage2Runs> stage2_runs_;  ///< index = VM id - 1
    /// This audit's grants and the last audit's, in Spm::grants() order.
    std::vector<GrantRange> grant_ranges_;
    std::vector<GrantRange> audited_grant_ranges_;
    /// Every piece of every live VM, sorted by (pa, vm, ipa).
    std::vector<PaMapping> pieces_;
    /// PAs a unit must meet to be re-checked, sorted by their start.
    std::vector<PaRange> dirty_;
    /// Ranges of the units that failed, for the next audit's dirty set.
    std::vector<PaRange> failed_;
    /// Indices into pieces_ of the pieces that meet the dirty set.
    std::vector<std::uint32_t> visit_;
    arch::IrqBitset routed_irqs_;  ///< the ids check_vgic accepts
    std::vector<const hafnium::Vcpu*> running_;  ///< per core
    /// The gauges check_accounting reconciles, looked up on its first call.
    std::array<obs::MetricsRegistry::Handle, 8> reconciled_gauges_{};
    bool reconciled_gauges_found_ = false;
};

}  // namespace hpcsec::check
