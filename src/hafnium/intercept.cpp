#include "hafnium/intercept.h"

#include "arch/platform.h"
#include "hafnium/spm.h"

namespace hpcsec::hafnium {

// --------------------------------------------------------------------------
// TelemetryInterceptor
// --------------------------------------------------------------------------

TelemetryInterceptor::TelemetryInterceptor(arch::Platform& platform)
    : HypercallInterceptor(Stage::kTelemetry), platform_(&platform) {}

std::optional<HfResult> TelemetryInterceptor::before(const HypercallSite& site) {
    platform_->recorder().instant(platform_->engine().now(),
                                  obs::EventType::kHypercall, site.core,
                                  static_cast<std::int64_t>(site.call),
                                  site.caller);
    return std::nullopt;
}

// --------------------------------------------------------------------------
// CallMetricsInterceptor
// --------------------------------------------------------------------------

CallMetricsInterceptor::CallMetricsInterceptor(obs::MetricsRegistry& metrics)
    : HypercallInterceptor(Stage::kMetrics), metrics_(&metrics) {
    by_number_.resize(kCallNumberSpace);
    for (const auto& row : Spm::call_table()) {
        const auto n = static_cast<std::size_t>(row.call);
        by_number_[n].calls = metrics.counter("hf.call." + to_string(row.call));
        by_number_[n].errors =
            metrics.counter("hf.call_err." + to_string(row.call));
    }
}

void CallMetricsInterceptor::after(const HypercallSite& site,
                                   const HfResult& result) {
    const auto n = static_cast<std::size_t>(site.call);
    if (n >= by_number_.size()) return;  // unknown call number: no counter
    metrics_->add(by_number_[n].calls, 1);
    if (!result.ok()) metrics_->add(by_number_[n].errors, 1);
}

// --------------------------------------------------------------------------
// ProfilingInterceptor
// --------------------------------------------------------------------------

ProfilingInterceptor::ProfilingInterceptor(arch::Platform& platform)
    : HypercallInterceptor(Stage::kMetrics), platform_(&platform) {}

void ProfilingInterceptor::after(const HypercallSite& site, const HfResult&) {
    platform_->profiler().count_call(site.core, static_cast<unsigned>(site.call));
}

// --------------------------------------------------------------------------
// HypercallLog
// --------------------------------------------------------------------------

void HypercallLog::start_record() {
    mode_ = Mode::kRecord;
    tape_.clear();
    cursor_ = 0;
    mismatches_ = 0;
    first_divergence_.clear();
}

void HypercallLog::start_verify(std::vector<Entry> tape) {
    mode_ = Mode::kVerify;
    tape_ = std::move(tape);
    cursor_ = 0;
    mismatches_ = 0;
    first_divergence_.clear();
}

namespace {

bool entries_equal(const HypercallLog::Entry& e, const HypercallSite& site,
                   const HfResult& result) {
    return e.core == site.core && e.caller == site.caller &&
           e.call == site.call && e.args.a0 == site.args.a0 &&
           e.args.a1 == site.args.a1 && e.args.a2 == site.args.a2 &&
           e.args.a3 == site.args.a3 && e.result.error == result.error &&
           e.result.value == result.value;
}

}  // namespace

void HypercallLog::after(const HypercallSite& site, const HfResult& result) {
    switch (mode_) {
        case Mode::kIdle:
            return;
        case Mode::kRecord:
            tape_.push_back({site.core, site.caller, site.call, site.args, result});
            return;
        case Mode::kVerify: {
            if (cursor_ >= tape_.size()) {
                ++mismatches_;
                if (first_divergence_.empty()) {
                    first_divergence_ = "call #" + std::to_string(cursor_) +
                                        " past end of tape: " +
                                        to_string(site.call);
                }
                ++cursor_;
                return;
            }
            const Entry& expect = tape_[cursor_];
            if (!entries_equal(expect, site, result)) {
                ++mismatches_;
                if (first_divergence_.empty()) {
                    first_divergence_ =
                        "call #" + std::to_string(cursor_) + ": expected " +
                        to_string(expect.call) + " from vm " +
                        std::to_string(expect.caller) + " -> " +
                        to_string(expect.result.error) + ", observed " +
                        to_string(site.call) + " from vm " +
                        std::to_string(site.caller) + " -> " +
                        to_string(result.error);
                }
            }
            ++cursor_;
            return;
        }
    }
}

}  // namespace hpcsec::hafnium
