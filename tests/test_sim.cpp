// Unit tests for the discrete-event substrate: time, RNG, stats, events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

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

// The bucket LogHistogram defines: floor(log(x / lo) / log(base)) + 1 for
// x > lo, capped at the last bucket; 0 otherwise.
std::size_t formula_bucket(double lo, double base, std::size_t n, double x) {
    if (!(x > lo)) return 0;
    const auto i = static_cast<std::size_t>(std::log(x / lo) / std::log(base)) + 1;
    return std::min(i, n - 1);
}

/// The bucket add() put x in (h is reset first).
std::size_t added_bucket(LogHistogram& h, double x) {
    h.reset();
    h.add(x);
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
        if (h.bucket(i) != 0) return i;
    }
    return h.bucket_count();
}

struct HistShape {
    double lo;
    double base;
    std::size_t n;
};

// Base 2 takes the exponent path (the registry's shape, and lo = 3 off a
// power of two); bases 10 and 4 take the formula.
constexpr HistShape kShapes[] = {
    {1.0, 2.0, 24}, {0.5, 2.0, 8}, {3.0, 2.0, 24}, {1.0, 10.0, 5}, {1.0, 4.0, 8}};

TEST(LogHistogram, RandomValuesLandInTheFormulasBucket) {
    Rng rng(2024);
    for (const HistShape& s : kShapes) {
        LogHistogram h(s.lo, s.base, s.n);
        // log_base(x / lo) uniform over two buckets below lo to past the top.
        const double span = static_cast<double>(s.n) + 4.0;
        for (int i = 0; i < 100'000; ++i) {
            const double x = s.lo * std::pow(s.base, rng.next_double() * span - 2.0);
            ASSERT_EQ(added_bucket(h, x), formula_bucket(s.lo, s.base, s.n, x))
                << "lo " << s.lo << " base " << s.base << " x " << x;
        }
    }
}

TEST(LogHistogram, ValuesAroundEveryBucketEdgeLandInTheFormulasBucket) {
    constexpr int kUlps = 6000;
    for (const HistShape& s : kShapes) {
        LogHistogram h(s.lo, s.base, s.n);
        for (std::size_t k = 0; k <= s.n; ++k) {
            const double edge = s.lo * std::pow(s.base, static_cast<double>(k));
            for (const double toward : {0.0, HUGE_VAL}) {
                double x = edge;
                for (int u = 0; u <= kUlps; ++u, x = std::nextafter(x, toward)) {
                    ASSERT_EQ(added_bucket(h, x), formula_bucket(s.lo, s.base, s.n, x))
                        << "lo " << s.lo << " base " << s.base << " edge " << k
                        << " x " << x;
                }
            }
        }
    }
}

TEST(LogHistogram, LoBelowLoAndNanLandInBucketZero) {
    for (const HistShape& s : kShapes) {
        LogHistogram h(s.lo, s.base, s.n);
        for (const double x : {s.lo, std::nextafter(s.lo, 0.0), s.lo / 2, 0.0, -s.lo,
                               -HUGE_VAL, std::nan("")}) {
            EXPECT_EQ(added_bucket(h, x), 0u) << "lo " << s.lo << " x " << x;
        }
        // The first value past lo opens bucket 1; a huge one caps at the top.
        EXPECT_EQ(added_bucket(h, std::nextafter(s.lo, HUGE_VAL)), 1u);
        EXPECT_EQ(added_bucket(h, s.lo * 1e300), s.n - 1);
    }
}

TEST(LogHistogram, ResetZeroesCountsAndKeepsTheShape) {
    LogHistogram h(1.0, 4.0, 6);
    h.add(5.0);
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    for (std::size_t i = 0; i < h.bucket_count(); ++i) EXPECT_EQ(h.bucket(i), 0u);
    EXPECT_EQ(h.bucket_count(), 6u);
    EXPECT_EQ(h.bucket_lo(2), 4.0);
    h.add(5.0);
    EXPECT_EQ(h.bucket(2), 1u);
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

// --- Engine deadlines --------------------------------------------------------

// A deadline takes its order from the counter at() uses, so a tie on
// (when, priority) with a heap event breaks by who was armed or scheduled
// first, in either direction.
TEST(EngineDeadline, TieWithHeapEventDispatchesInArmScheduleOrder) {
    Engine e;
    std::vector<char> order;
    const DeadlineId d = e.add_deadline([&] { order.push_back('d'); });
    e.arm(d, 100, kPrioKernel);
    e.at(100, [&] { order.push_back('h'); }, kPrioKernel);
    e.run();
    e.at(200, [&] { order.push_back('h'); }, kPrioKernel);
    e.arm(d, 200, kPrioKernel);
    e.run();
    EXPECT_EQ(order, (std::vector<char>{'d', 'h', 'h', 'd'}));
}

TEST(EngineDeadline, TimeThenPriorityOrderAcrossBothSources) {
    Engine e;
    std::vector<int> order;
    const DeadlineId d1 = e.add_deadline([&] { order.push_back(1); });
    const DeadlineId d3 = e.add_deadline([&] { order.push_back(3); });
    e.arm(d3, 50, kPrioCompletion);
    e.at(50, [&] { order.push_back(2); }, kPrioKernel);
    e.arm(d1, 50, kPrioInterrupt);
    e.at(10, [&] { order.push_back(0); }, kPrioDefault);
    e.at(60, [&] { order.push_back(4); }, kPrioInterrupt);
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Re-arming is a cancel plus a fresh at(): the deadline goes behind an event
// that tied with it before.
TEST(EngineDeadline, RearmTakesAFreshOrder) {
    Engine e;
    std::vector<char> order;
    const DeadlineId d = e.add_deadline([&] { order.push_back('d'); });
    e.arm(d, 100, kPrioInterrupt);
    e.at(100, [&] { order.push_back('h'); }, kPrioInterrupt);
    e.arm(d, 100, kPrioInterrupt);
    e.run();
    EXPECT_EQ(order, (std::vector<char>{'h', 'd'}));
}

TEST(EngineDeadline, DisarmPreventsDispatch) {
    Engine e;
    int fired = 0;
    const DeadlineId d = e.add_deadline([&] { ++fired; });
    EXPECT_FALSE(e.armed(d));
    e.arm(d, 100, kPrioDefault);
    EXPECT_TRUE(e.armed(d));
    e.disarm(d);
    e.disarm(d);  // disarming a disarmed deadline is a no-op
    EXPECT_FALSE(e.armed(d));
    e.run_until(1000);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(e.events_executed(), 0u);
}

// A deadline is disarmed before its callback runs, so the callback can
// re-arm it; run_until leaves a deadline past its limit armed.
TEST(EngineDeadline, CallbackRearmsItselfAndRunUntilStopsAtLimit) {
    Engine e;
    std::vector<SimTime> at;
    DeadlineId d = 0;
    d = e.add_deadline([&] {
        at.push_back(e.now());
        EXPECT_FALSE(e.armed(d));
        e.arm(d, e.now() + 30, kPrioInterrupt);
    });
    e.arm(d, 10, kPrioInterrupt);
    e.run_until(75);
    EXPECT_EQ(at, (std::vector<SimTime>{10, 40, 70}));
    EXPECT_TRUE(e.armed(d));
    EXPECT_EQ(e.now(), 75u);
    EXPECT_EQ(e.pending_events(), 1u);
}

class RecordingProbe : public DispatchProbe {
public:
    void on_dispatch(SimTime now, int priority) override {
        seen.emplace_back(now, priority);
    }
    std::vector<std::pair<SimTime, int>> seen;
};

// Deadlines count like heap events in every counter the auditor and the
// cycle profiler key on.
TEST(EngineDeadline, CountersAndProbeSeeDeadlines) {
    Engine e;
    RecordingProbe probe;
    e.set_dispatch_probe(&probe);
    const DeadlineId a = e.add_deadline([] {});
    const DeadlineId b = e.add_deadline([] {});
    e.add_deadline([] {});  // never armed
    e.arm(a, 5, kPrioInterrupt);
    e.arm(b, 7, kPrioCompletion);
    e.at(6, [] {}, kPrioInterrupt);
    EXPECT_EQ(e.pending_events(), 3u);
    e.run();
    EXPECT_EQ(e.pending_events(), 0u);
    EXPECT_EQ(e.events_executed(), 3u);
    ASSERT_EQ(e.executed_by_priority().size(), 2u);
    EXPECT_EQ(e.executed_by_priority()[0].priority, kPrioInterrupt);
    EXPECT_EQ(e.executed_by_priority()[0].executed, 2u);
    EXPECT_EQ(e.executed_by_priority()[1].priority, kPrioCompletion);
    EXPECT_EQ(e.executed_by_priority()[1].executed, 1u);
    EXPECT_EQ(probe.seen, (std::vector<std::pair<SimTime, int>>{
                              {5, kPrioInterrupt}, {6, kPrioInterrupt},
                              {7, kPrioCompletion}}));
}

// at() refuses a time before now() with a throw; arm() refuses it too, by
// returning false and leaving the deadline as it was, because guests reach
// arm() through the timer and guest paths never throw. now() itself is not
// the past for either.
TEST(EngineDeadline, ArmInThePastIsRefusedLikeAt) {
    Engine e;
    int fired = 0;
    const DeadlineId d = e.add_deadline([&] { ++fired; });
    e.after(10, [] {});
    e.run();
    EXPECT_THROW(e.at(5, [] {}), std::logic_error);
    EXPECT_FALSE(e.arm(d, 5, kPrioInterrupt));
    EXPECT_FALSE(e.armed(d));
    EXPECT_TRUE(e.arm(d, 20, kPrioInterrupt));
    EXPECT_FALSE(e.arm(d, 9, kPrioInterrupt));
    EXPECT_TRUE(e.armed(d));  // still armed for 20
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.now(), 20u);
    EXPECT_TRUE(e.arm(d, 20, kPrioInterrupt));
    e.at(20, [] {});
    e.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(e.now(), 20u);
}

TEST(EngineDeadline, StopInsideADeadlineReturnsAfterIt) {
    Engine e;
    int fired = 0;
    const DeadlineId d = e.add_deadline([&] {
        ++fired;
        e.stop();
    });
    e.arm(d, 10, kPrioDefault);
    e.at(20, [&] { ++fired; });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.now(), 10u);
    EXPECT_EQ(e.pending_events(), 1u);
}

}  // namespace
}  // namespace hpcsec::sim
