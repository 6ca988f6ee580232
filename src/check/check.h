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
    };

    /// A run of stage-2 terminal mappings, contiguous in IPA and PA with
    /// equal attributes and inside one region (or one unbacked stretch),
    /// tagged with its VM.
    struct PaMapping {
        arch::VmId vm = 0;
        arch::IpaAddr ipa = 0;
        arch::PhysAddr pa = 0;
        std::uint64_t size = 0;
        std::uint8_t perms = arch::kPermNone;
        bool secure = false;
    };

    /// One VM's stage-2 maximal runs as for_each_mapping reported them from
    /// `table` at `generation`. `table` is only ever compared, never read.
    struct Stage2Runs {
        const arch::PageTable* table = nullptr;
        std::uint64_t generation = 0;
        std::vector<arch::PageTable::MappingView> runs;
    };

    void record(CheckFailure f);  ///< dedup, retain, obs event, strict throw

    /// `vm`'s stage-2 runs, re-walked only when its table's address or
    /// generation changed since the last walk. Runs, never verdicts: every
    /// audit checks each run against the live memory map and grants.
    const std::vector<arch::PageTable::MappingView>& stage2_runs(const hafnium::Vm& vm);

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
    std::uint64_t transitions_ = 0;
    std::uint64_t calls_since_scan_ = 0;
    std::uint64_t events_at_last_scan_ = 0;

    // Kept across audits, so an audit of an unchanged node allocates nothing.
    std::vector<Stage2Runs> stage2_runs_;  ///< index = VM id - 1
    std::vector<GrantRange> grant_ranges_;
    std::vector<PaMapping> ram_maps_;
    std::vector<const hafnium::Vcpu*> running_;  ///< per core
    /// The gauges check_accounting reconciles, looked up on its first call.
    std::array<obs::MetricsRegistry::Handle, 8> reconciled_gauges_{};
    bool reconciled_gauges_found_ = false;
};

}  // namespace hpcsec::check
