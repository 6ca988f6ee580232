// Composable hypercall interceptor chain.
//
// PRs 1-3 each grew a bespoke hook on the hypercall path: the obs recorder
// instant was hard-coded in Spm::hypercall_impl, the check auditor hung off
// an AuditItf pointer, and chaos injection worked around the gate entirely.
// This file unifies them: an interceptor registers at a fixed Stage and the
// gate runs the chain around every call. The empty chain costs one
// predicted branch in Spm::hypercall — the same discipline as the recorder.
//
// Ordering contract (documented in docs/ABI.md):
//   before() hooks run in ascending Stage order *before* dispatch;
//   after() hooks run in descending Stage order *after* dispatch (onion).
// A before() hook may short-circuit by returning a result: the handler and
// any later before() hooks are skipped, but every after() hook still runs
// and sees the injected result.
//
// Interceptors must not charge modeled cycles: observation and fault
// injection are control-plane concerns, and figure benches must produce
// bit-identical results with any observation chain attached.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/types.h"
#include "hafnium/hypercall.h"
#include "obs/metrics.h"

namespace hpcsec::arch {
class Platform;
}  // namespace hpcsec::arch

namespace hpcsec::hafnium {

/// Everything an interceptor can see about one hypercall.
struct HypercallSite {
    arch::CoreId core;
    arch::VmId caller;
    Call call;
    const HfArgs& args;
};

class HypercallInterceptor {
public:
    /// Fixed chain positions. Attaching sorts by stage; two interceptors at
    /// the same stage keep their attach order.
    enum class Stage : std::uint8_t {
        kTelemetry = 0,  ///< obs trace events (first in, last out)
        kMetrics = 1,    ///< per-call counters
        kAudit = 2,      ///< invariant checking (check::Auditor)
        kChaos = 3,      ///< fault injection (resil::CallFaultInjector)
        kReplay = 4,     ///< record/replay log (innermost: sees what the
                         ///< handler actually saw, including injected faults)
    };

    explicit HypercallInterceptor(Stage stage) : stage_(stage) {}
    virtual ~HypercallInterceptor() = default;

    [[nodiscard]] Stage stage() const { return stage_; }

    /// Runs before dispatch. Returning a result short-circuits the call.
    virtual std::optional<HfResult> before(const HypercallSite&) {
        return std::nullopt;
    }
    /// Runs after dispatch (or after a short-circuit) with the final result.
    virtual void after(const HypercallSite&, const HfResult&) {}

private:
    Stage stage_;
};

/// Stage kTelemetry: emits the obs kHypercall instant for every call (the
/// event Spm::hypercall_impl used to emit inline). core::Node attaches one
/// at boot, so CLI traces are unchanged; a bare Spm has no chain and pays
/// nothing.
class TelemetryInterceptor final : public HypercallInterceptor {
public:
    explicit TelemetryInterceptor(arch::Platform& platform);
    std::optional<HfResult> before(const HypercallSite& site) override;

private:
    arch::Platform* platform_;
};

/// Stage kMetrics: per-call invocation and error counters, registered as
/// "hf.call.<NAME>" / "hf.call_err.<NAME>". Opt-in (NodeConfig::call_metrics)
/// because 2 x kCallCount counters per node is snapshot noise most runs
/// don't want.
class CallMetricsInterceptor final : public HypercallInterceptor {
public:
    explicit CallMetricsInterceptor(obs::MetricsRegistry& metrics);
    void after(const HypercallSite& site, const HfResult& result) override;

private:
    struct PerCall {
        obs::MetricsRegistry::Handle calls = 0;
        obs::MetricsRegistry::Handle errors = 0;
    };
    obs::MetricsRegistry* metrics_;
    std::vector<PerCall> by_number_;  ///< indexed by raw call number
};

/// Stage kMetrics: counts each call by number in the cycle profiler. The
/// cycles a call costs reach the profiler through its handler's own
/// Executor::charge, under that charge's path. Per the interceptor
/// contract this never charges the Executor, so attaching it cannot
/// perturb modeled results. core::Node attaches one when the platform
/// profiler is enabled.
class ProfilingInterceptor final : public HypercallInterceptor {
public:
    explicit ProfilingInterceptor(arch::Platform& platform);
    void after(const HypercallSite& site, const HfResult& result) override;

private:
    arch::Platform* platform_;
};

/// Stage kReplay: records the complete hypercall sequence, or verifies a
/// live run against a previously recorded tape. Sits innermost so it sees
/// exactly what the guest saw — including faults injected by outer stages.
/// Divergence is counted, never thrown: replay is a diagnosis tool.
class HypercallLog final : public HypercallInterceptor {
public:
    struct Entry {
        arch::CoreId core = 0;
        arch::VmId caller = 0;
        Call call = Call::kVersion;
        HfArgs args;
        HfResult result;
    };

    HypercallLog() : HypercallInterceptor(Stage::kReplay) {}

    /// Start recording into an internal tape (clears any previous state).
    void start_record();
    /// Verify subsequent calls against `tape`, in order.
    void start_verify(std::vector<Entry> tape);

    [[nodiscard]] const std::vector<Entry>& tape() const { return tape_; }
    [[nodiscard]] std::size_t cursor() const { return cursor_; }
    [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
    /// Human-readable description of the first divergence ("" when clean).
    [[nodiscard]] const std::string& first_divergence() const {
        return first_divergence_;
    }
    /// True after a verify pass consumed the whole tape without divergence.
    [[nodiscard]] bool verified() const {
        return mode_ == Mode::kVerify && mismatches_ == 0 &&
               cursor_ == tape_.size();
    }

    void after(const HypercallSite& site, const HfResult& result) override;

private:
    enum class Mode : std::uint8_t { kIdle, kRecord, kVerify };

    Mode mode_ = Mode::kIdle;
    std::vector<Entry> tape_;
    std::size_t cursor_ = 0;
    std::uint64_t mismatches_ = 0;
    std::string first_divergence_;
};

}  // namespace hpcsec::hafnium
