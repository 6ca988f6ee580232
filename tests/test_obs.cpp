// Observability stack: metrics registry semantics, structured recorder
// filtering, metrics snapshots from a scripted hafnium run, the
// cycle-attribution profiler and its conservation against core
// accounting, the always-on flight recorder, windowed metric aggregation,
// and the Chrome trace-event JSON exporter (including a DOM-level Perfetto
// round trip).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/corrupt.h"
#include "core/harness.h"
#include "core/node.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"

namespace hpcsec {
namespace {

// --- minimal JSON parser (validity only) ------------------------------------

class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;  // closing '"'
        return true;
    }
    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }
    bool literal(const char* lit) {
        const std::string l(lit);
        if (s_.compare(pos_, l.size(), l) != 0) return false;
        pos_ += l.size();
        return true;
    }
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
            ++pos_;
        }
    }
    [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string& s_;
    std::size_t pos_ = 0;
};

/// Extract the numeric value following `"key":` in a single JSON line, or
/// -1 when the key is absent.
double field_of(const std::string& line, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return -1.0;
    return std::atof(line.c_str() + at + needle.size());
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
    obs::MetricsRegistry reg;
    const auto c = reg.counter("hyp.calls");
    const auto g = reg.gauge("engine.events");
    const auto h = reg.histogram("lat.us", 1.0, 2.0, 16);

    reg.add(c);
    reg.add(c, 4);
    reg.set(g, 123.5);
    reg.observe(h, 3.0);
    reg.observe(h, 5.0);

    const auto snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.value_of("hyp.calls"), 5.0);
    EXPECT_DOUBLE_EQ(snap.value_of("engine.events"), 123.5);
    const auto* hist = snap.find("lat.us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->kind, obs::MetricKind::kHistogram);
    EXPECT_EQ(hist->stats.count(), 2u);
    EXPECT_DOUBLE_EQ(hist->stats.mean(), 4.0);
    EXPECT_FALSE(hist->buckets.empty());
}

TEST(Metrics, ReRegistrationReturnsSameHandle) {
    obs::MetricsRegistry reg;
    const auto a = reg.counter("x");
    const auto b = reg.counter("x");
    EXPECT_EQ(a, b);
    reg.add(a);
    reg.add(b);
    EXPECT_EQ(reg.counter_value(a), 2u);
}

TEST(Metrics, KindMismatchThrows) {
    obs::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
}

TEST(Metrics, SnapshotWritesParsableJsonAndCsv) {
    obs::MetricsRegistry reg;
    reg.add(reg.counter("a"));
    reg.set(reg.gauge("b\"quoted"), 2.0);
    reg.observe(reg.histogram("c"), 7.0);

    std::ostringstream json;
    reg.snapshot().write_json(json);
    EXPECT_TRUE(JsonChecker(json.str()).valid()) << json.str();

    std::ostringstream csv;
    reg.snapshot().write_csv(csv);
    EXPECT_NE(csv.str().find("name,kind,value"), std::string::npos);
    EXPECT_NE(csv.str().find("a,counter,1"), std::string::npos);
}

TEST(Metrics, AggregateAcrossSnapshots) {
    obs::MetricsRegistry reg;
    const auto g = reg.gauge("v");
    obs::MetricsAggregate agg;
    reg.set(g, 1.0);
    agg.add(reg.snapshot());
    reg.set(g, 3.0);
    agg.add(reg.snapshot());

    ASSERT_EQ(agg.rows().size(), 1u);
    EXPECT_EQ(agg.rows()[0].name, "v");
    EXPECT_DOUBLE_EQ(agg.rows()[0].stats.mean(), 2.0);
    EXPECT_EQ(agg.rows()[0].stats.count(), 2u);

    std::ostringstream os;
    agg.write_json(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// --- SpanRecorder ------------------------------------------------------------

TEST(Recorder, DisabledRecordsNothing) {
    obs::SpanRecorder rec;  // default mask 0
    rec.instant(10, obs::EventType::kVmExit, 0, 1, 0, 0);
    rec.span(10, 20, obs::EventType::kVmRun, 0);
    EXPECT_TRUE(rec.events().empty());
}

TEST(Recorder, CategoryMaskFilters) {
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kIrq));
    rec.instant(1, obs::EventType::kVmExit, 0);      // kVm: filtered
    rec.instant(2, obs::EventType::kIrqDeliver, 0);  // kIrq: recorded
    ASSERT_EQ(rec.events().size(), 1u);
    EXPECT_EQ(rec.events()[0].type, obs::EventType::kIrqDeliver);
    EXPECT_EQ(rec.count(obs::EventType::kVmExit), 0u);
    EXPECT_EQ(rec.count(obs::EventType::kIrqDeliver), 1u);
}

TEST(Recorder, SpanCarriesIntervalAndArgs) {
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kAll));
    rec.span(100, 250, obs::EventType::kVmRun, 2, 1, 3, 0);
    ASSERT_EQ(rec.events().size(), 1u);
    const auto& e = rec.events()[0];
    EXPECT_TRUE(e.is_span());
    EXPECT_EQ(e.start, 100u);
    EXPECT_EQ(e.end, 250u);
    EXPECT_EQ(e.core, 2);
    EXPECT_EQ(e.a0, 1);
    EXPECT_EQ(e.a1, 3);
}

// --- scripted hafnium run ----------------------------------------------------

core::NodeConfig observed_config(core::SchedulerKind kind) {
    core::NodeConfig cfg = core::Harness::default_config(kind, 7);
    cfg.platform.obs_mask = obs::to_mask(obs::Category::kAll);
    return cfg;
}

/// Small compute-bound workload: enough ticks to force VM exits.
void run_tiny_workload(core::Node& node) {
    wl::WorkloadSpec s;
    s.name = "tiny";
    s.nthreads = 4;
    s.supersteps = 4;
    s.units_per_thread_step = 50000;
    s.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(s);
    node.run_workload(w, 60.0);
}

TEST(ObsIntegration, ExitReasonCountersMatchSpmStats) {
    core::Node node(observed_config(core::SchedulerKind::kKittenPrimary));
    node.boot();
    run_tiny_workload(node);

    const auto& stats = node.spm()->stats();
    ASSERT_GT(stats.vm_exits, 0u);

    const auto& events = node.platform().recorder().events();
    std::uint64_t by_reason[4] = {0, 0, 0, 0};
    std::uint64_t runs = 0;
    for (const auto& e : events) {
        if (e.type == obs::EventType::kVmExit) ++by_reason[e.a2];
        if (e.type == obs::EventType::kVmRun) ++runs;
    }
    EXPECT_EQ(by_reason[0], stats.exits_preempted);
    EXPECT_EQ(by_reason[1], stats.exits_yield);
    EXPECT_EQ(by_reason[2], stats.exits_blocked);
    EXPECT_EQ(by_reason[0] + by_reason[1] + by_reason[2] + by_reason[3],
              stats.vm_exits);
    // Every exit closes exactly one vm-run span.
    EXPECT_EQ(runs, stats.vm_exits);
}

// Virtual-timer VIRQs are injected on three paths in the SPM (inline while
// the vcpu is running, super-secondary direct routing, and the entry-time
// drain); every one of them must record a kVirqInject instant. Needs a run
// long enough for the guest's 10 Hz vtimer to actually fire.
TEST(ObsIntegration, VirqInjectEventsMatchSpmStat) {
    core::Node node(observed_config(core::SchedulerKind::kKittenPrimary));
    node.boot();
    wl::WorkloadSpec s;
    s.name = "tiny-long";
    s.nthreads = 4;
    s.supersteps = 4;
    s.units_per_thread_step = 8000000;
    s.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(s);
    node.run_workload(w, 60.0);

    const auto& stats = node.spm()->stats();
    ASSERT_GT(stats.virq_injections, 0u);
    EXPECT_EQ(node.platform().recorder().count(obs::EventType::kVirqInject),
              stats.virq_injections);
    // Each vtimer injection drives the guest's tick handler.
    EXPECT_EQ(node.platform().recorder().count(obs::EventType::kGuestTick),
              stats.virq_injections);
}

TEST(ObsIntegration, PublishedMetricsMatchComponentStats) {
    core::Node node(observed_config(core::SchedulerKind::kKittenPrimary));
    node.boot();
    run_tiny_workload(node);

    const auto snap = node.publish_metrics();
    const auto& stats = node.spm()->stats();
    EXPECT_DOUBLE_EQ(snap.value_of("hf.vm_exits"),
                     static_cast<double>(stats.vm_exits));
    EXPECT_DOUBLE_EQ(snap.value_of("hf.hypercalls"),
                     static_cast<double>(stats.hypercalls));
    EXPECT_DOUBLE_EQ(snap.value_of("kitten.ticks"),
                     static_cast<double>(node.kitten()->stats().ticks));
    EXPECT_GT(snap.value_of("engine.events"), 0.0);
    const auto* hist = snap.find("hf.vcpu_run_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->stats.count(), stats.vm_exits);
}

TEST(ObsIntegration, DisabledMaskRecordsNoEventsButMetricsStillWork) {
    core::NodeConfig cfg = core::Harness::default_config(
        core::SchedulerKind::kKittenPrimary, 7);  // obs_mask defaults to 0
    core::Node node(cfg);
    node.boot();
    run_tiny_workload(node);

    EXPECT_TRUE(node.platform().recorder().events().empty());
    const auto snap = node.publish_metrics();
    EXPECT_GT(snap.value_of("hf.vm_exits"), 0.0);
}

// --- trace export ------------------------------------------------------------

TEST(TraceExport, WritesParsableJsonWithMonotonicTsPerCore) {
    core::Node node(observed_config(core::SchedulerKind::kLinuxPrimary));
    node.boot();
    run_tiny_workload(node);

    obs::TraceExporter exporter(node.platform().engine().clock());
    exporter.add_process(0, "linux", node.platform().ncores(),
                         node.platform().recorder().events());
    std::ostringstream os;
    exporter.write(os);
    const std::string text = os.str();

    EXPECT_TRUE(JsonChecker(text).valid());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"vm-run\""), std::string::npos);
    EXPECT_NE(text.find("vm_exits"), std::string::npos);   // counter track
    EXPECT_NE(text.find("preempted"), std::string::npos);  // exit-reason name
    EXPECT_NE(text.find("\"path\":\"world-switch\""), std::string::npos);
    EXPECT_NE(text.find("\"refill\":"), std::string::npos);  // work-chunk arg

    // Non-metadata events are sorted by (tid, ts) within the process.
    std::istringstream lines(text);
    std::string line;
    double last_ts[64];
    for (double& t : last_ts) t = -1.0;
    std::size_t nevents = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\":\"M\"") != std::string::npos) continue;
        const double ts = field_of(line, "ts");
        const double tid = field_of(line, "tid");
        if (ts < 0.0 || tid < 0.0 || tid >= 64.0) continue;
        const auto t = static_cast<std::size_t>(tid);
        EXPECT_GE(ts, last_ts[t]) << line;
        last_ts[t] = ts;
        ++nevents;
    }
    EXPECT_GT(nevents, 10u);
}

// --- trace-mask parsing ------------------------------------------------------

TEST(Recorder, ParseCategoryListSymbolicNames) {
    std::uint32_t mask = 0;
    std::string error;
    ASSERT_TRUE(obs::parse_category_list("irq,hyp", mask, error)) << error;
    EXPECT_EQ(mask, obs::to_mask(obs::Category::kIrq) |
                        obs::to_mask(obs::Category::kHyp));
    EXPECT_TRUE(error.empty());

    ASSERT_TRUE(obs::parse_category_list("all", mask, error));
    EXPECT_EQ(mask, obs::to_mask(obs::Category::kAll));
}

TEST(Recorder, ParseCategoryListNumericMasks) {
    std::uint32_t mask = 0;
    std::string error;
    ASSERT_TRUE(obs::parse_category_list("0x305", mask, error)) << error;
    EXPECT_EQ(mask, 0x305u);
    ASSERT_TRUE(obs::parse_category_list("12", mask, error)) << error;
    EXPECT_EQ(mask, 12u);
}

TEST(Recorder, ParseCategoryListMixesNamesAndNumbers) {
    std::uint32_t mask = 0;
    std::string error;
    ASSERT_TRUE(obs::parse_category_list("irq,0x300", mask, error)) << error;
    EXPECT_EQ(mask, obs::to_mask(obs::Category::kIrq) | 0x300u);
}

TEST(Recorder, ParseCategoryListRejectsUnknownTokenWithValidNames) {
    std::uint32_t mask = 0xdead;
    std::string error;
    EXPECT_FALSE(obs::parse_category_list("irq,bogus", mask, error));
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;
    // The error teaches the valid vocabulary.
    EXPECT_NE(error.find("irq"), std::string::npos) << error;
    EXPECT_NE(error.find("sched"), std::string::npos) << error;
    EXPECT_NE(error.find("all"), std::string::npos) << error;
}

// --- histogram bucket bounds -------------------------------------------------

TEST(Metrics, HistogramBucketsCarryExplicitBounds) {
    obs::MetricsRegistry reg;
    const auto h = reg.histogram("lat.us", 1.0, 2.0, 8);
    reg.observe(h, 1.5);
    reg.observe(h, 3.0);
    reg.observe(h, 3.5);

    const auto snap = reg.snapshot();
    const auto* m = snap.find("lat.us");
    ASSERT_NE(m, nullptr);
    ASSERT_FALSE(m->buckets.empty());

    std::uint64_t total = 0;
    for (const auto& b : m->buckets) {
        total += b.count;
        // Every bucket states its own interval; hi < 0 marks the open top.
        EXPECT_TRUE(b.hi < 0.0 || b.hi > b.lo)
            << "bucket [" << b.lo << "," << b.hi << ")";
    }
    EXPECT_EQ(total, m->stats.count());

    // Each observation lands in a bucket whose bounds cover it.
    for (const double v : {1.5, 3.0, 3.5}) {
        bool covered = false;
        for (const auto& b : m->buckets) {
            if (v >= b.lo && (b.hi < 0.0 || v < b.hi)) covered = true;
        }
        EXPECT_TRUE(covered) << "no bucket covers " << v;
    }

    // Bounds travel through the JSON as [lo,hi,count] triples.
    std::ostringstream os;
    snap.write_json(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
    EXPECT_NE(os.str().find("\"buckets\":[["), std::string::npos) << os.str();
}

TEST(Metrics, ResetKeepsEachHistogramsShape) {
    obs::MetricsRegistry reg;
    const auto h = reg.histogram("lat.us", 1.0, 4.0, 6);
    reg.observe(h, 5.0);
    reg.reset();
    reg.observe(h, 5.0);
    reg.observe(h, 20.0);

    const auto snap = reg.snapshot();
    const auto* m = snap.find("lat.us");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, 2.0);  // the observation before the reset is gone
    // Base-4 edges survive the reset: 5 falls in [4, 16), 20 in [16, 64).
    ASSERT_EQ(m->buckets.size(), 2u);
    EXPECT_EQ(m->buckets[0].lo, 4.0);
    EXPECT_EQ(m->buckets[0].hi, 16.0);
    EXPECT_EQ(m->buckets[0].count, 1u);
    EXPECT_EQ(m->buckets[1].lo, 16.0);
    EXPECT_EQ(m->buckets[1].hi, 64.0);
    EXPECT_EQ(m->buckets[1].count, 1u);
}

TEST(Metrics, AggregateMergesBucketsByBounds) {
    obs::MetricsRegistry reg;
    const auto h = reg.histogram("lat", 1.0, 2.0, 8);
    obs::MetricsAggregate agg;
    reg.observe(h, 3.0);
    agg.add(reg.snapshot());
    reg.observe(h, 3.0);  // same bucket again in the next snapshot
    agg.add(reg.snapshot());

    ASSERT_EQ(agg.rows().size(), 1u);
    const auto& row = agg.rows()[0];
    std::uint64_t total = 0;
    for (const auto& b : row.buckets) total += b.count;
    EXPECT_EQ(total, 3u);  // 1 from the first snapshot + 2 from the second
}

// --- windowed aggregation ----------------------------------------------------

TEST(Metrics, WindowedAggregateClosesEveryNTrials) {
    obs::MetricsRegistry reg;
    const auto g = reg.gauge("v");
    obs::MetricsAggregate agg;
    agg.set_window(2);
    for (int t = 1; t <= 5; ++t) {
        reg.set(g, static_cast<double>(t));
        agg.add(reg.snapshot());
    }

    EXPECT_EQ(agg.trials(), 5u);
    EXPECT_EQ(agg.window_size(), 2u);
    ASSERT_EQ(agg.windows().size(), 2u);  // trial 5 is still in flight

    const auto& w0 = agg.windows()[0];
    EXPECT_EQ(w0.index, 0u);
    EXPECT_EQ(w0.first_trial, 0u);
    EXPECT_EQ(w0.trials, 2u);
    ASSERT_EQ(w0.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(w0.rows[0].stats.mean(), 1.5);

    const auto& w1 = agg.windows()[1];
    EXPECT_EQ(w1.index, 1u);
    EXPECT_EQ(w1.first_trial, 2u);
    EXPECT_DOUBLE_EQ(w1.rows[0].stats.mean(), 3.5);

    // Totals still cover every trial, not just closed windows.
    ASSERT_EQ(agg.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(agg.rows()[0].stats.mean(), 3.0);

    std::ostringstream os;
    agg.write_json(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
    EXPECT_NE(os.str().find("\"windows\""), std::string::npos);
}

TEST(Metrics, WindowRetainKeepsOnlyTheLastK) {
    obs::MetricsRegistry reg;
    const auto g = reg.gauge("v");
    obs::MetricsAggregate agg;
    agg.set_window(1, /*retain=*/2);
    for (int t = 0; t < 5; ++t) {
        reg.set(g, static_cast<double>(t));
        agg.add(reg.snapshot());
    }
    // 5 closed windows, bounded memory: only the newest two survive.
    ASSERT_EQ(agg.windows().size(), 2u);
    EXPECT_EQ(agg.windows()[0].index, 3u);
    EXPECT_EQ(agg.windows()[1].index, 4u);
    EXPECT_EQ(agg.windows()[1].first_trial, 4u);
}

// --- cycle-attribution profiler ----------------------------------------------

TEST(Profiler, DisabledHooksAreNoOps) {
    obs::CycleProfiler prof;
    EXPECT_FALSE(prof.enabled());
    prof.set_context(0, 1);
    prof.charge(0, obs::ProfPath::kWorldSwitch, 100);
    prof.count_call(0, 5);
    prof.on_dispatch(10, 0);
    EXPECT_EQ(prof.total_cycles(), 0u);
    EXPECT_TRUE(prof.slots().empty());
    EXPECT_TRUE(prof.samples().empty());
}

TEST(Profiler, AttributesChargesToVmCorePath) {
    obs::CycleProfiler prof;
    prof.enable(2);
    prof.set_context(0, 3);
    prof.charge(0, obs::ProfPath::kWorldSwitch, 100);
    prof.charge(0, obs::ProfPath::kWorldSwitch, 50);
    prof.count_call(0, 5);
    prof.set_context(1, 4);
    prof.charge(1, obs::ProfPath::kTimerTick, 10);

    EXPECT_EQ(prof.total(obs::ProfPath::kWorldSwitch), 150u);
    EXPECT_EQ(prof.total(obs::ProfPath::kTimerTick), 10u);
    EXPECT_EQ(prof.total(obs::ProfPath::kHypercall), 0u);  // counts only
    EXPECT_EQ(prof.total_cycles(), 160u);
    EXPECT_EQ(prof.call_total(5).cycles, 0u);
    EXPECT_EQ(prof.call_total(5).count, 1u);
    EXPECT_EQ(prof.call_total(6).count, 0u);

    bool found = false;
    for (const auto& s : prof.slots()) {
        if (s.vm == 3 && s.core == 0) {
            found = true;
            EXPECT_EQ(
                s.paths[static_cast<std::size_t>(obs::ProfPath::kWorldSwitch)]
                    .cycles,
                150u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Profiler, CollapsedStackUsesFlamegraphFormat) {
    obs::CycleProfiler prof;
    prof.enable(1);
    prof.set_context(0, 3);
    prof.charge(0, obs::ProfPath::kWorldSwitch, 150);
    prof.count_call(0, 5);

    std::ostringstream os;
    prof.write_collapsed(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("vm3;core0;world-switch 150"), std::string::npos)
        << text;
    // No namer installed: numbered fallback leaf, which carries no cycles.
    EXPECT_NE(text.find("vm3;core0;hypercall;call_5 0"), std::string::npos)
        << text;

    prof.set_call_namer([](unsigned n) {
        return n == 5 ? std::string("HF_VM_GET_INFO") : std::string();
    });
    std::ostringstream named;
    prof.write_collapsed(named);
    EXPECT_NE(named.str().find("hypercall;HF_VM_GET_INFO 0"),
              std::string::npos)
        << named.str();

    const std::string top = prof.perf_top(sim::ClockSpec{1'000'000'000});
    EXPECT_NE(top.find("vm3/core0/world-switch"), std::string::npos) << top;
    EXPECT_NE(top.find("vm3/core0/hypercall/HF_VM_GET_INFO"), std::string::npos)
        << top;
}

TEST(Profiler, MergeCombinesSlotsAndCalls) {
    obs::CycleProfiler a;
    a.enable(1);
    a.set_context(0, 2);
    a.charge(0, obs::ProfPath::kStage2Walk, 40);
    a.count_call(0, 7);

    obs::CycleProfiler b;
    b.enable(1);
    b.set_context(0, 2);
    b.charge(0, obs::ProfPath::kStage2Walk, 60);
    b.count_call(0, 7);

    obs::CycleProfiler merged;  // merge() enables an empty target
    merged.merge(a);
    merged.merge(b);
    EXPECT_TRUE(merged.enabled());
    EXPECT_EQ(merged.total(obs::ProfPath::kStage2Walk), 100u);
    EXPECT_EQ(merged.call_total(7).count, 2u);
}

TEST(Profiler, DispatchSamplingHonoursPeriod) {
    obs::CycleProfiler prof;
    prof.enable(1);
    prof.set_sample_period(2);
    prof.set_context(0, 1);
    for (sim::SimTime t = 1; t <= 5; ++t) {
        prof.charge(0, obs::ProfPath::kTimerTick, 10);
        prof.on_dispatch(t * 100, 0);
    }
    // 5 dispatches, period 2: samples at the 2nd and 4th.
    ASSERT_EQ(prof.samples().size(), 2u);
    EXPECT_EQ(prof.samples()[0].when, 200u);
    EXPECT_EQ(prof.samples()[1].when, 400u);
    // Counter samples are cumulative per path.
    const auto tick = static_cast<std::size_t>(obs::ProfPath::kTimerTick);
    EXPECT_EQ(prof.samples()[0].cycles[tick], 20u);
    EXPECT_EQ(prof.samples()[1].cycles[tick], 40u);
}

// Conservation: a core spends kernel and hypervisor cycles only through
// Executor::charge, which also attributes and records them, so on every
// core the paths summed over VM slots, and the recorded overhead spans,
// equal CoreUsage::overhead exactly. Stage-2 walk cycles are outside the
// identity: they include the nested-walk share of steady-state chunk
// cycles, which CoreUsage counts as work. Hypercalls are counts only;
// their cycles land on the handlers' paths. Sized so the guests' 10 Hz
// virtual timers fire.
class ProfilerConservation
    : public ::testing::TestWithParam<std::tuple<core::SchedulerKind, arch::Isa>> {};

TEST_P(ProfilerConservation, PathsSumToCoreOverhead) {
    const auto [kind, isa] = GetParam();
    core::NodeConfig cfg = core::Harness::default_config(kind, 7);
    cfg.platform.isa = isa;
    cfg.platform.profile = true;
    cfg.platform.obs_mask = obs::to_mask(obs::Category::kWorkload);
    core::Node node(cfg);
    node.boot();
    wl::WorkloadSpec s;
    s.name = "conservation";
    s.nthreads = 4;
    s.supersteps = 4;
    s.units_per_thread_step = 8000000;
    s.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(s);
    node.run_workload(w, 60.0);
    if (node.spm() != nullptr) {
        ASSERT_GT(node.spm()->stats().vtimer_fires, 0u);
    }

    arch::Platform& platform = node.platform();
    const obs::CycleProfiler& prof = platform.profiler();
    EXPECT_EQ(prof.total(obs::ProfPath::kHypercall), 0u);
    for (int c = 0; c < platform.ncores(); ++c) {
        std::uint64_t attributed = 0;
        for (const auto& slot : prof.slots()) {
            if (slot.core != c) continue;
            for (std::size_t p = 0; p < obs::kProfPathCount; ++p) {
                if (static_cast<obs::ProfPath>(p) == obs::ProfPath::kStage2Walk) {
                    continue;
                }
                attributed += slot.paths[p].cycles;
            }
        }
        std::uint64_t recorded = 0;
        for (const obs::Event& e : platform.recorder().events()) {
            if (e.type == obs::EventType::kOverhead && e.core == c) {
                recorded += e.end - e.start;
            }
        }
        const sim::Cycles overhead = platform.core(c).exec().usage().overhead;
        EXPECT_EQ(attributed, overhead) << "core " << c;
        EXPECT_EQ(recorded, overhead) << "core " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ProfilerConservation,
    ::testing::Combine(::testing::Values(core::SchedulerKind::kNativeKitten,
                                         core::SchedulerKind::kKittenPrimary,
                                         core::SchedulerKind::kLinuxPrimary),
                       ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv)),
    [](const auto& info) {
        std::string name = core::to_string(std::get<0>(info.param)) + "_" +
                           arch::IsaOps::get(std::get<1>(info.param)).name;
        for (char& ch : name) {
            if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
        }
        return name;
    });

// --- flight recorder ---------------------------------------------------------

obs::Event instant_at(sim::SimTime t, int core) {
    obs::Event e;
    e.start = e.end = t;
    e.type = obs::EventType::kHypercall;
    e.core = core;
    return e;
}

TEST(Flight, DisarmedPushAndDumpAreNoOps) {
    obs::FlightRecorder flight;
    EXPECT_FALSE(flight.armed());
    flight.push(instant_at(1, 0));
    EXPECT_EQ(flight.total_recorded(), 0u);
    EXPECT_EQ(flight.dump("nothing"), 0u);
    EXPECT_EQ(flight.info().dumps, 0u);
}

TEST(Flight, RingKeepsOnlyTheLastDepthEventsPerCore) {
    obs::FlightRecorder flight;
    flight.arm(/*ncores=*/1, /*depth=*/4);
    for (sim::SimTime t = 0; t < 10; ++t) flight.push(instant_at(t, 0));

    EXPECT_EQ(flight.total_recorded(), 10u);
    const auto snap = flight.snapshot();
    ASSERT_EQ(snap.size(), 4u);  // overwrite, not growth
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].start, 6u + i);  // the newest 4, time-ordered
    }
}

TEST(Flight, SnapshotMergesCoresInTimeOrder) {
    obs::FlightRecorder flight;
    flight.arm(/*ncores=*/2, /*depth=*/8);
    flight.push(instant_at(30, 1));
    flight.push(instant_at(10, 0));
    flight.push(instant_at(20, 1));
    flight.push(instant_at(5, -1));  // sourceless (check) ring

    const auto snap = flight.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_GE(snap[i].start, snap[i - 1].start);
    }
    EXPECT_EQ(snap.front().core, -1);
}

TEST(Flight, DumpWritesFlatJsonAndPerfettoTrace) {
    obs::FlightRecorder flight;
    flight.arm(/*ncores=*/2, /*depth=*/8);
    flight.set_dump_sink(sim::ClockSpec{1'000'000'000},
                         ::testing::TempDir() + "obs-flight");
    for (sim::SimTime t = 0; t < 5; ++t) flight.push(instant_at(t, 0));

    EXPECT_EQ(flight.dump("unit-test"), 5u);
    const auto& info = flight.info();
    EXPECT_EQ(info.dumps, 1u);
    EXPECT_EQ(info.last_reason, "unit-test");
    EXPECT_EQ(info.last_events, 5u);
    EXPECT_EQ(info.last_snapshot.size(), 5u);
    ASSERT_FALSE(info.last_path.empty());

    std::ifstream flat(info.last_path);
    ASSERT_TRUE(flat.is_open()) << info.last_path;
    std::stringstream buf;
    buf << flat.rdbuf();
    EXPECT_TRUE(JsonChecker(buf.str()).valid()) << buf.str();
    EXPECT_NE(buf.str().find("\"reason\":\"unit-test\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"total_recorded\":5"), std::string::npos);

    const std::string trace_path =
        info.last_path.substr(0, info.last_path.size() - 5) + ".trace.json";
    std::ifstream trace(trace_path);
    ASSERT_TRUE(trace.is_open()) << trace_path;
    std::stringstream tbuf;
    tbuf << trace.rdbuf();
    EXPECT_TRUE(JsonChecker(tbuf.str()).valid());
    EXPECT_NE(tbuf.str().find("flight-unit-test"), std::string::npos);

    std::remove(info.last_path.c_str());
    std::remove(trace_path.c_str());
}

// ISSUE 6 acceptance: a strict-audit violation auto-dumps the flight
// recorder before the CheckViolation propagates, so the post-mortem
// context exists even though the run is about to die.
TEST(ObsIntegration, StrictViolationDumpsFlightRecorder) {
    core::NodeConfig cfg =
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 11);
    cfg.check_mode = check::Mode::kStrict;
    cfg.platform.flight_depth = 64;
    cfg.platform.flight_dump_prefix = ::testing::TempDir() + "obs-violation";
    core::Node node(std::move(cfg));
    node.boot();
    node.run_for(0.05);
    ASSERT_NE(node.auditor(), nullptr);
    ASSERT_TRUE(node.platform().flight().armed());

    check::inject_corruption(*node.spm(),
                             check::CorruptionKind::kRogueStage2Map);
    EXPECT_THROW(node.auditor()->validate(), check::CheckViolation);

    const auto& info = node.platform().flight().info();
    EXPECT_GE(info.dumps, 1u);
    EXPECT_EQ(info.last_reason, "check-violation");
    EXPECT_GT(info.last_events, 0u);
    ASSERT_FALSE(info.last_path.empty());

    std::ifstream flat(info.last_path);
    ASSERT_TRUE(flat.is_open()) << info.last_path;
    std::stringstream buf;
    buf << flat.rdbuf();
    EXPECT_TRUE(JsonChecker(buf.str()).valid());
    EXPECT_NE(buf.str().find("\"reason\":\"check-violation\""),
              std::string::npos);

    std::remove(info.last_path.c_str());
    const std::string trace_path =
        info.last_path.substr(0, info.last_path.size() - 5) + ".trace.json";
    std::remove(trace_path.c_str());
}

TEST(TraceExport, MultiProcessDistinctPids) {
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kAll));
    rec.span(0, 100, obs::EventType::kVmRun, 0, 1, 0, 0);

    obs::TraceExporter exporter(sim::ClockSpec{1'000'000'000});
    exporter.add_process(0, "native", 1, rec.events());
    exporter.add_process(1, "kitten", 1, rec.events());
    std::ostringstream os;
    exporter.write(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
    EXPECT_NE(os.str().find("\"pid\":0"), std::string::npos);
    EXPECT_NE(os.str().find("\"pid\":1"), std::string::npos);
}

// --- Perfetto round trip through a DOM parse ---------------------------------

/// Tiny DOM JSON value: enough structure to round-trip the exporter's
/// output and assert on it, rather than grepping substrings.
struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;  ///< source order

    [[nodiscard]] const JsonValue* get(const std::string& key) const {
        for (const auto& [k, v] : fields) {
            if (k == key) return &v;
        }
        return nullptr;
    }
    [[nodiscard]] double num(const std::string& key, double fallback) const {
        const JsonValue* v = get(key);
        return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
    }
    [[nodiscard]] std::string str(const std::string& key) const {
        const JsonValue* v = get(key);
        return v != nullptr && v->kind == Kind::kString ? v->text : "";
    }
};

class JsonDom {
public:
    explicit JsonDom(const std::string& text) : s_(text) {}

    bool parse(JsonValue& out) {
        skip_ws();
        if (!value(out)) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value(JsonValue& out) {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object(out);
            case '[': return array(out);
            case '"': out.kind = JsonValue::Kind::kString; return string(out.text);
            case 't': out.kind = JsonValue::Kind::kBool; out.boolean = true;
                      return literal("true");
            case 'f': out.kind = JsonValue::Kind::kBool; return literal("false");
            case 'n': return literal("null");
            default: return number(out);
        }
    }
    bool object(JsonValue& out) {
        out.kind = JsonValue::Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skip_ws();
            std::string key;
            if (!string(key)) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            JsonValue v;
            if (!value(v)) return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array(JsonValue& out) {
        out.kind = JsonValue::Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skip_ws();
            JsonValue v;
            if (!value(v)) return false;
            out.items.push_back(std::move(v));
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string(std::string& out) {
        if (peek() != '"') return false;
        ++pos_;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
            out.push_back(s_[pos_++]);
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;
        return true;
    }
    bool number(JsonValue& out) {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) return false;
        out.kind = JsonValue::Kind::kNumber;
        out.number = std::atof(s_.c_str() + start);
        return true;
    }
    bool literal(const char* lit) {
        const std::string l(lit);
        if (s_.compare(pos_, l.size(), l) != 0) return false;
        pos_ += l.size();
        return true;
    }
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
            ++pos_;
        }
    }
    [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string& s_;
    std::size_t pos_ = 0;
};

// Satellite 3: full DOM round trip. The exported trace must carry the
// process/thread/track structure Perfetto's importer keys on — process_name
// and per-core thread_name metadata, counter tracks with numeric values,
// and non-decreasing timestamps within every (pid, tid) lane.
TEST(TraceExport, PerfettoRoundTripPreservesStructureAndOrder) {
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kAll));
    rec.span(100, 250, obs::EventType::kVmRun, 0, 1, 0, 0);
    rec.instant(300, obs::EventType::kHypercall, 0, 4, 1);
    rec.span(120, 200, obs::EventType::kVmRun, 1, 2, 0, 1);
    rec.instant(400, obs::EventType::kIrqDeliver, 1, 27);

    obs::TraceExporter exporter(sim::ClockSpec{1'000'000'000});
    exporter.add_process(0, "kitten-node", 2, rec.events());
    exporter.add_counter_tracks(
        0, {{"prof.world-switch", {{100, 2600.0}, {300, 5200.0}}}});

    std::ostringstream os;
    exporter.write(os);

    JsonValue root;
    ASSERT_TRUE(JsonDom(os.str()).parse(root)) << os.str();
    const JsonValue* events = root.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

    std::string process_name;
    std::map<int, std::string> thread_names;
    std::map<std::pair<int, int>, double> last_ts;  // (pid, tid) lanes
    std::vector<double> counter_values;
    std::size_t spans = 0;
    std::size_t instants = 0;

    for (const JsonValue& e : events->items) {
        ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
        const std::string ph = e.str("ph");
        ASSERT_FALSE(ph.empty());
        if (ph == "M") {
            if (e.str("name") == "process_name") {
                const JsonValue* args = e.get("args");
                ASSERT_NE(args, nullptr);
                process_name = args->str("name");
            }
            if (e.str("name") == "thread_name") {
                const JsonValue* args = e.get("args");
                ASSERT_NE(args, nullptr);
                thread_names[static_cast<int>(e.num("tid", -1))] =
                    args->str("name");
            }
            continue;
        }
        if (ph == "C") {
            const JsonValue* args = e.get("args");
            ASSERT_NE(args, nullptr);
            if (e.str("name") == "prof.world-switch") {
                const JsonValue* v = args->get("value");
                ASSERT_NE(v, nullptr);
                ASSERT_EQ(v->kind, JsonValue::Kind::kNumber);
                counter_values.push_back(v->number);
            }
            continue;
        }
        // Span/instant lanes: ts never goes backwards within a lane.
        const auto pid = static_cast<int>(e.num("pid", -1));
        const auto tid = static_cast<int>(e.num("tid", -1));
        const double ts = e.num("ts", -1.0);
        ASSERT_GE(pid, 0);
        ASSERT_GE(tid, 0);
        ASSERT_GE(ts, 0.0);
        const auto lane = std::make_pair(pid, tid);
        if (last_ts.count(lane) != 0) {
            EXPECT_GE(ts, last_ts[lane]);
        }
        last_ts[lane] = ts;
        if (ph == "X") {
            ++spans;
            EXPECT_GE(e.num("dur", -1.0), 0.0);
        } else if (ph == "i") {
            ++instants;
        }
    }

    EXPECT_EQ(process_name, "kitten-node");
    ASSERT_EQ(thread_names.size(), 2u);
    EXPECT_EQ(thread_names[0], "core 0");
    EXPECT_EQ(thread_names[1], "core 1");
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(instants, 2u);
    ASSERT_EQ(counter_values.size(), 2u);
    EXPECT_DOUBLE_EQ(counter_values[0], 2600.0);
    EXPECT_DOUBLE_EQ(counter_values[1], 5200.0);
    // Both counter samples and both cores produced lanes under pid 0.
    EXPECT_GE(last_ts.size(), 2u);
}

// The profiler's sampled counter tracks survive a node-level export: run a
// profiled workload, attach "prof.<path>" tracks from the samples, and
// confirm the DOM sees them as numeric counter events.
TEST(TraceExport, ProfilerCounterTracksExportAsCounters) {
    core::NodeConfig cfg = observed_config(core::SchedulerKind::kKittenPrimary);
    cfg.platform.profile = true;
    core::Node node(std::move(cfg));
    node.boot();  // boot creates the platform (and with it the profiler)
    node.platform().profiler().set_sample_period(16);  // tiny run: sample often
    run_tiny_workload(node);

    const obs::CycleProfiler& prof = node.platform().profiler();
    ASSERT_TRUE(prof.enabled());
    ASSERT_GT(prof.total_cycles(), 0u);
    ASSERT_FALSE(prof.samples().empty());

    std::vector<obs::TraceExporter::CounterTrack> tracks;
    for (std::size_t p = 0; p < obs::kProfPathCount; ++p) {
        obs::TraceExporter::CounterTrack track;
        track.name = std::string("prof.") +
                     obs::to_string(static_cast<obs::ProfPath>(p));
        for (const auto& s : prof.samples()) {
            track.samples.emplace_back(s.when,
                                       static_cast<double>(s.cycles[p]));
        }
        tracks.push_back(std::move(track));
    }

    obs::TraceExporter exporter(node.platform().engine().clock());
    exporter.add_process(0, "kitten", node.platform().ncores(),
                         node.platform().recorder().events());
    exporter.add_counter_tracks(0, std::move(tracks));
    std::ostringstream os;
    exporter.write(os);

    JsonValue root;
    ASSERT_TRUE(JsonDom(os.str()).parse(root));
    std::size_t prof_counters = 0;
    for (const JsonValue& e : root.get("traceEvents")->items) {
        if (e.str("ph") != "C") continue;
        if (e.str("name").rfind("prof.", 0) != 0) continue;
        const JsonValue* args = e.get("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->get("value"), nullptr);
        EXPECT_EQ(args->get("value")->kind, JsonValue::Kind::kNumber);
        ++prof_counters;
    }
    EXPECT_EQ(prof_counters,
              prof.samples().size() * obs::kProfPathCount);
}

}  // namespace
}  // namespace hpcsec
