// Unit tests for the discrete-event substrate: time, RNG, stats, events.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace hpcsec::sim {
namespace {

// --- ClockSpec --------------------------------------------------------------

TEST(ClockSpec, ConvertsSecondsRoundTrip) {
    ClockSpec clk{1'100'000'000};
    EXPECT_EQ(clk.from_seconds(1.0), 1'100'000'000u);
    EXPECT_DOUBLE_EQ(clk.to_seconds(1'100'000'000u), 1.0);
}

TEST(ClockSpec, MicrosAndMillis) {
    ClockSpec clk{1'000'000'000};
    EXPECT_EQ(clk.from_micros(1.0), 1000u);
    EXPECT_EQ(clk.from_millis(1.0), 1'000'000u);
    EXPECT_DOUBLE_EQ(clk.to_micros(1000), 1.0);
}

TEST(ClockSpec, PeriodOfHz) {
    ClockSpec clk{1'000'000'000};
    EXPECT_EQ(clk.period_of_hz(250.0), 4'000'000u);
    EXPECT_EQ(clk.period_of_hz(10.0), 100'000'000u);
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowZeroAndOne) {
    Rng r(7);
    EXPECT_EQ(r.next_below(0), 0u);
    EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, UniformMeanConverges) {
    Rng r(42);
    double sum = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) sum += r.uniform(10.0, 20.0);
    EXPECT_NEAR(sum / kN, 15.0, 0.1);
}

TEST(Rng, ExponentialMeanConverges) {
    Rng r(42);
    double sum = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) sum += r.exponential(3.0);
    EXPECT_NEAR(sum / kN, 3.0, 0.15);
}

TEST(Rng, NormalMomentsConverge) {
    Rng r(42);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
    Rng a(5);
    Rng c1 = a.split();
    Rng a2(5);
    Rng c2 = a2.split();
    for (int i = 0; i < 50; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

// --- RunningStats -------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeMatchesSequential) {
    RunningStats all, a, b;
    Rng r(3);
    for (int i = 0; i < 100; ++i) {
        const double v = r.uniform(0, 100);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// --- Sample / percentiles -------------------------------------------------------

TEST(Sample, PercentilesOnKnownData) {
    Sample s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
}

TEST(Sample, SingleValue) {
    Sample s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.median(), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

TEST(Sample, EmptySampleYieldsZero) {
    const Sample s;
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

TEST(Sample, PercentileClampsOutOfRangeP) {
    Sample s;
    s.add(1.0);
    s.add(2.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.percentile(-10.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(400.0), 3.0);
}

TEST(Sample, ConstPercentileDoesNotMutate) {
    Sample s;
    s.add(3.0);
    s.add(1.0);
    s.add(2.0);
    const Sample& cs = s;
    EXPECT_DOUBLE_EQ(cs.percentile(50), 2.0);
    // Insertion order preserved: the const overload sorted a copy.
    EXPECT_DOUBLE_EQ(cs.values()[0], 3.0);
    EXPECT_DOUBLE_EQ(cs.values()[1], 1.0);
    // The mutating overload sorts in place and agrees.
    EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
    EXPECT_DOUBLE_EQ(cs.values()[0], 1.0);
}

// --- LogHistogram ---------------------------------------------------------------

TEST(LogHistogram, BucketsValues) {
    LogHistogram h(1.0, 10.0, 5);  // [0,1), [1,10), [10,100), ...
    h.add(0.5);
    h.add(5.0);
    h.add(50.0);
    h.add(5000.0);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
}

// --- EventQueue -------------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, 0, [&] { order.push_back(3); });
    q.schedule(10, 0, [&] { order.push_back(1); });
    q.schedule(20, 0, [&] { order.push_back(2); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBrokenByPriorityThenSeq) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, 10, [&] { order.push_back(2); });
    q.schedule(5, 0, [&] { order.push_back(1); });
    q.schedule(5, 10, [&] { order.push_back(3); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(5, 0, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
    EventQueue q;
    const EventId id = q.schedule(5, 0, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterRunFails) {
    EventQueue q;
    const EventId id = q.schedule(5, 0, [] {});
    q.pop().fn();
    EXPECT_FALSE(q.cancel(id));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{}));
    EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
    EventQueue q;
    const EventId a = q.schedule(1, 0, [] {});
    q.schedule(2, 0, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.next_time(), 2u);
}

TEST(EventQueue, CancelOfHeadExposesNextEvent) {
    EventQueue q;
    const EventId a = q.schedule(1, 0, [] {});
    q.schedule(5, 0, [] {});
    q.cancel(a);
    EXPECT_EQ(q.next_time(), 5u);
}

// --- Engine --------------------------------------------------------------------

TEST(Engine, AdvancesTime) {
    Engine e;
    SimTime seen = 0;
    e.after(100, [&] { seen = e.now(); });
    e.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
    Engine e;
    int count = 0;
    // Self-rescheduling event every 10 cycles.
    std::function<void()> tick = [&] {
        ++count;
        e.after(10, tick);
    };
    e.after(10, tick);
    e.run_until(100);
    EXPECT_EQ(count, 10);
    EXPECT_EQ(e.now(), 100u);
    EXPECT_GT(e.pending_events(), 0u);
}

TEST(Engine, StopBreaksOutEarly) {
    Engine e;
    int count = 0;
    e.after(1, [&] { ++count; });
    e.after(2, [&] {
        ++count;
        e.stop();
    });
    e.after(3, [&] { ++count; });
    e.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, SchedulingInPastThrows) {
    Engine e;
    e.after(10, [] {});
    e.run();
    EXPECT_THROW(e.at(5, [] {}), std::logic_error);
}

TEST(Engine, EventsExecutedCounts) {
    Engine e;
    for (int i = 0; i < 7; ++i) e.after(static_cast<Cycles>(i + 1), [] {});
    e.run();
    EXPECT_EQ(e.events_executed(), 7u);
}

TEST(Engine, CancelledEventNotExecuted) {
    Engine e;
    bool ran = false;
    const EventId id = e.after(5, [&] { ran = true; });
    EXPECT_TRUE(e.cancel(id));
    e.run();
    EXPECT_FALSE(ran);
}

TEST(Engine, CancelPreventsDispatchAndRejectsStaleHandles) {
    Engine e;
    std::vector<int> fired;
    const EventId a = e.at(100, [&] { fired.push_back(1); });
    const EventId b = e.at(200, [&] { fired.push_back(2); });
    e.at(300, [&] { fired.push_back(3); });
    EXPECT_TRUE(e.cancel(a));
    EXPECT_FALSE(e.cancel(a));  // already cancelled
    // The next schedule takes a's freed slot; a's handle must not reach it.
    e.at(400, [&] { fired.push_back(4); });
    EXPECT_FALSE(e.cancel(a));
    EXPECT_EQ(e.pending_events(), 3u);
    e.run();
    EXPECT_EQ(fired, (std::vector<int>{2, 3, 4}));
    EXPECT_FALSE(e.cancel(b));  // already fired
}

// A handler runs after its event left the queue, so cancelling its own id
// is a no-op, also once a new event has taken over the slot.
TEST(Engine, HandlerCancellingItsOwnEventGetsFalse) {
    Engine e;
    std::vector<int> order;
    std::vector<bool> results;
    EventId self;
    self = e.at(10, [&] {
        order.push_back(1);
        results.push_back(e.cancel(self));
        e.at(15, [&] { order.push_back(2); });  // reuses the freed slot
        results.push_back(e.cancel(self));
    });
    e.at(20, [&] { order.push_back(3); });
    e.at(5, [&] { order.push_back(0); });
    e.run();
    EXPECT_EQ(results, (std::vector<bool>{false, false}));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunUntilAdvancesIdleTime) {
    Engine e;
    e.run_until(12345);
    EXPECT_EQ(e.now(), 12345u);
}

// --- TraceLog -------------------------------------------------------------------

TEST(TraceLog, DisabledByDefault) {
    TraceLog log;
    log.set_retain(true);
    log.log(1, TraceCat::kIrq, 0, "hello");
    EXPECT_TRUE(log.records().empty());
}

TEST(TraceLog, CategoryFiltering) {
    TraceLog log;
    log.set_retain(true);
    log.enable(TraceCat::kIrq);
    log.log(1, TraceCat::kIrq, 0, "irq event");
    log.log(2, TraceCat::kSched, 0, "sched event");
    EXPECT_EQ(log.records().size(), 1u);
    EXPECT_EQ(log.count_matching("irq"), 1u);
}

TEST(TraceLog, AllMaskCatchesEverything) {
    TraceLog log;
    log.set_retain(true);
    log.enable(TraceCat::kAll);
    log.log(1, TraceCat::kVm, 2, "a");
    log.log(2, TraceCat::kMmu, 3, "b");
    EXPECT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[1].core, 3);
}

}  // namespace
}  // namespace hpcsec::sim
