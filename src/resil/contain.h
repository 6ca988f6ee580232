// ContainmentEngine — the contain → recover half of the memory-integrity
// pipeline (the detect half is hafnium::Spm's tag check on stage-2 access).
//
// HDFI-style one-bit tags turn a corrupting access into a TagViolation the
// moment it happens; this engine decides what the node does next. The
// sequence mirrors the watchdog's quarantine path so both failure classes
// (crash/hang and active attack) share one recovery vocabulary:
//
//  * dump    — flight-recorder rings are flushed first, so the lead-up to
//              the violation is captured before recovery events overwrite it.
//  * contain — the offending partition is retired via the same quarantine
//              primitive the restart-budget machinery uses (core::Node::
//              retire_vm): VCPUs reaped, stage-2 reclaimed, grants revoked.
//              Retirement is deferred by one short engine event — a VM is
//              never torn down in the middle of its own hypercall.
//  * recover — the tagged frame is re-measured against the hash taken when
//              the tag was set. A match proves the check fired before any
//              byte changed and the region is safe to keep serving; a
//              mismatch embargoes the frames forever (never reused).
//
// The node keeps serving the remaining partitions throughout — graceful
// degradation, never node death. Every step lands in a deterministic
// action log so a seed reproduces the exact containment timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/node.h"

namespace hpcsec::resil {

/// One step of the detect → contain → recover pipeline, in the order the
/// engine performs them. Also the a0 payload of kContainAction events.
enum class ContainmentPolicy : std::uint8_t {
    kDetected,     ///< tag violation delivered by the SPM hook
    kDumped,       ///< flight-recorder rings flushed
    kQuarantined,  ///< offender retired; node keeps serving the rest
    kReverified,   ///< tagged frames re-measured clean: safe for reuse
    kEmbargoed,    ///< re-measurement failed: frames withheld forever
};

[[nodiscard]] const char* to_string(ContainmentPolicy p);

struct ContainmentConfig {
    /// Retire the offending VM. false = alarm-only mode: detect, dump and
    /// re-verify but leave the partition running (forensics setups).
    bool quarantine = true;
    /// Delay before the deferred containment step runs. Must be > 0: the
    /// violation hook fires mid-hypercall and teardown cannot happen there.
    double defer_s = 0.0005;
};

class ContainmentEngine {
public:
    explicit ContainmentEngine(core::Node& node, ContainmentConfig config = {});
    ~ContainmentEngine();
    ContainmentEngine(const ContainmentEngine&) = delete;
    ContainmentEngine& operator=(const ContainmentEngine&) = delete;

    /// Install the SPM tag-violation hook (idempotent). Requires the node's
    /// critical state to be protected (Spm::protect_critical_state).
    void arm();
    /// Detach the hook and cancel any deferred containment.
    void disarm();
    [[nodiscard]] bool armed() const { return armed_; }

    /// One recorded pipeline step. The log is a pure function of the seed
    /// and config — determinism tests compare it byte for byte.
    struct Action {
        ContainmentPolicy step = ContainmentPolicy::kDetected;
        arch::VmId vm = 0;
        std::string region;  ///< critical region hit ("" when unknown)
    };
    [[nodiscard]] const std::vector<Action>& action_log() const {
        return action_log_;
    }

    struct Stats {
        std::uint64_t violations = 0;   ///< hook deliveries
        std::uint64_t dumps = 0;        ///< flight dumps triggered
        std::uint64_t quarantines = 0;  ///< offenders retired
        std::uint64_t reverified = 0;   ///< regions re-measured clean
        std::uint64_t embargoes = 0;    ///< regions poisoned + withheld
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

    /// Push Stats into the platform's metrics registry as "contain.*" gauges.
    void publish_metrics();

private:
    void on_violation(const hafnium::Spm::TagViolation& v);
    void contain(arch::VmId offender, const std::string& region);
    void record(ContainmentPolicy step, arch::VmId vm, const std::string& region);

    core::Node* node_;
    ContainmentConfig config_;
    bool armed_ = false;
    std::vector<arch::VmId> handled_;  ///< offenders already being contained
    std::vector<sim::EventId> pending_;
    std::vector<Action> action_log_;
    Stats stats_;
};

}  // namespace hpcsec::resil
