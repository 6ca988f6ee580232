// Timeline view tests: span accounting, window clamping, rendering,
// executor integration through the span recorder, and the
// no-observer-effect guarantee.
#include <gtest/gtest.h>

#include <vector>

#include "core/harness.h"
#include "core/node.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "workloads/nas.h"

namespace hpcsec {
namespace {

obs::Event span(int core, sim::SimTime start, sim::SimTime end,
                obs::EventType type, std::int64_t a0 = 0) {
    obs::Event e;
    e.start = start;
    e.end = end;
    e.type = type;
    e.core = static_cast<std::int16_t>(core);
    e.a0 = a0;
    return e;
}

obs::Event chunk(int core, sim::SimTime start, sim::SimTime end,
                 sim::Cycles refill = 0) {
    return span(core, start, end, obs::EventType::kWorkChunk,
                static_cast<std::int64_t>(refill));
}

obs::Event overhead(int core, sim::SimTime start, sim::SimTime end) {
    return span(core, start, end, obs::EventType::kOverhead,
                static_cast<std::int64_t>(obs::ProfPath::kTimerTick));
}

TEST(Timeline, RecordsAndTotals) {
    const std::vector<obs::Event> ev{chunk(0, 100, 200), overhead(0, 200, 230),
                                     chunk(1, 0, 50)};
    EXPECT_EQ(obs::timeline_total(ev, 'W'), 150u);
    EXPECT_EQ(obs::timeline_total(ev, 'W', 0), 100u);
    EXPECT_EQ(obs::timeline_total(ev, 'O'), 30u);
}

TEST(Timeline, TotalClampsToWindow) {
    const std::vector<obs::Event> ev{chunk(0, 100, 300)};
    EXPECT_EQ(obs::timeline_total(ev, 'W', 0, 150, 250), 100u);
    EXPECT_EQ(obs::timeline_total(ev, 'W', 0, 0, 100), 0u);
    EXPECT_EQ(obs::timeline_total(ev, 'W', 0, 300, 400), 0u);
}

TEST(Timeline, SplitsChunksAtTheirRefill) {
    const std::vector<obs::Event> ev{chunk(0, 0, 100, 30)};
    EXPECT_EQ(obs::timeline_total(ev, 'T'), 30u);
    EXPECT_EQ(obs::timeline_total(ev, 'W'), 70u);
}

TEST(Timeline, IgnoresInstantsAndOtherSpans) {
    const std::vector<obs::Event> ev{
        chunk(0, 10, 10), span(0, 0, 100, obs::EventType::kVmRun),
        span(0, 0, 100, obs::EventType::kDetour)};
    EXPECT_EQ(obs::timeline_total(ev, 'W'), 0u);
    EXPECT_EQ(obs::timeline_total(ev, 'O'), 0u);
    EXPECT_EQ(obs::render_timeline(ev, 0, 100, 1, 4), "core0 |....|\n");
}

TEST(Timeline, RenderShowsBusyAndIdle) {
    const std::vector<obs::Event> ev{chunk(0, 0, 500)};  // first half busy
    const std::string s = obs::render_timeline(ev, 0, 1000, 1, 10);
    EXPECT_NE(s.find("#####....."), std::string::npos);
}

TEST(Timeline, RenderHighlightsOverheadSlivers) {
    // 8% of the strip, 80% of its bucket.
    const std::vector<obs::Event> ev{chunk(0, 0, 1000), overhead(0, 400, 480)};
    const std::string s = obs::render_timeline(ev, 0, 1000, 1, 10);
    EXPECT_NE(s.find('o'), std::string::npos);
}

TEST(Timeline, RenderTlbGlyph) {
    const std::vector<obs::Event> ev{chunk(0, 0, 100, 100)};
    const std::string s = obs::render_timeline(ev, 0, 100, 1, 4);
    EXPECT_NE(s.find('t'), std::string::npos);
}

struct FiniteWork : arch::Runnable {
    double rem = 1000;
    std::string_view label() const override { return "w"; }
    double remaining_units() const override { return rem; }
    void advance(double u, sim::SimTime) override { rem = u >= rem ? 0 : rem - u; }
    const arch::WorkProfile& profile() const override { return prof; }
    arch::TranslationMode mode() const override {
        return arch::TranslationMode::kNative;
    }
    arch::WorkProfile prof{1.0, 0.0, 0.0, 64.0};
};

TEST(Timeline, ExecutorEmitsWorkOverheadAndTransient) {
    sim::Engine engine;
    arch::PerfModel perf;
    arch::Executor ex(engine, perf, 0);
    obs::SpanRecorder rec;
    rec.enable(obs::Category::kWorkload);
    ex.set_recorder(&rec);
    FiniteWork w;

    ex.charge(100, obs::ProfPath::kSchedule);
    ex.add_transient(50);
    ex.begin(&w);
    engine.run();
    const auto& ev = rec.events();
    EXPECT_EQ(obs::timeline_total(ev, 'O'), 100u);
    EXPECT_EQ(obs::timeline_total(ev, 'T'), 50u);
    EXPECT_EQ(obs::timeline_total(ev, 'W'), 1000u);
    ASSERT_EQ(rec.count(obs::EventType::kOverhead), 1u);
    EXPECT_EQ(ev[0].a0, static_cast<std::int64_t>(obs::ProfPath::kSchedule));
    EXPECT_EQ(rec.count(obs::EventType::kWorkChunk), 1u);
}

// A chunk preempted before its refill finished is all transient: one
// kWorkChunk span whose refill covers it, no workload time.
TEST(Timeline, RefillOnlyChunkIsAllTransient) {
    sim::Engine engine;
    arch::PerfModel perf;
    arch::Executor ex(engine, perf, 0);
    obs::SpanRecorder rec;
    rec.enable(obs::Category::kWorkload);
    ex.set_recorder(&rec);
    FiniteWork w;

    ex.add_transient(500);
    ex.begin(&w);
    engine.after(200, [&] { ex.preempt(); });
    engine.run();
    const auto& ev = rec.events();
    ASSERT_EQ(rec.count(obs::EventType::kWorkChunk), 1u);
    EXPECT_EQ(obs::timeline_total(ev, 'T'), 200u);
    EXPECT_EQ(obs::timeline_total(ev, 'W'), 0u);
    EXPECT_EQ(obs::render_timeline(ev, 0, 200, 1, 4), "core0 |tttt|\n");
}

// Recording, profiling and the flight rings are observers: a run with all
// of them on must match a run with everything off, to the cycle.
TEST(Timeline, ObservationNeverChangesTiming) {
    wl::WorkloadSpec spec = wl::nas_cg_spec();
    spec.units_per_thread_step /= 16;

    struct Outcome {
        double seconds = 0.0;
        std::vector<arch::CoreUsage> usage;
    };
    auto run = [&](std::uint32_t obs_mask, bool profile, std::size_t flight_depth) {
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kLinuxPrimary, 44);
        cfg.platform.obs_mask = obs_mask;
        cfg.platform.profile = profile;
        cfg.platform.flight_depth = flight_depth;
        core::Node node(cfg);
        node.boot();
        wl::ParallelWorkload w(spec);
        Outcome out;
        out.seconds = node.run_workload(w, 60.0);
        for (int c = 0; c < node.platform().ncores(); ++c) {
            out.usage.push_back(node.platform().core(c).exec().usage());
        }
        return out;
    };
    const Outcome off = run(0, false, 0);
    const Outcome timeline = run(obs::to_mask(obs::Category::kWorkload), false, 0);
    const Outcome all = run(obs::to_mask(obs::Category::kAll), true, 64);
    for (const Outcome* observed : {&timeline, &all}) {
        EXPECT_EQ(off.seconds, observed->seconds);
        ASSERT_EQ(off.usage.size(), observed->usage.size());
        for (std::size_t c = 0; c < off.usage.size(); ++c) {
            EXPECT_EQ(off.usage[c].work, observed->usage[c].work) << "core " << c;
            EXPECT_EQ(off.usage[c].transient, observed->usage[c].transient)
                << "core " << c;
            EXPECT_EQ(off.usage[c].overhead, observed->usage[c].overhead)
                << "core " << c;
        }
    }
}

}  // namespace
}  // namespace hpcsec
