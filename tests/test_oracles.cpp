// Oracle tests: drive a component with random operation sequences and
// cross-check every observable against a simple reference implementation.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "kitten/buddy.h"
#include "linux_fwk/cfs.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace hpcsec {
namespace {

// --- EventQueue vs. multimap reference -------------------------------------------

class EventQueueOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueOracle, MatchesReferenceOrdering) {
    sim::Rng rng(GetParam());
    sim::EventQueue q;
    // Reference: ordered by (time, priority, seq).
    using Key = std::tuple<sim::SimTime, int, std::uint64_t>;
    std::map<Key, int> ref;
    std::map<std::uint64_t, Key> by_seq;  // every handle issued, fired ones too
    std::vector<int> fired;
    int next_payload = 0;
    std::uint64_t seq = 0;
    sim::SimTime now = 0;

    // Cancel a random handle, possibly one that already fired or was
    // cancelled; the queue and the reference must agree either way.
    const auto cancel_one = [&] {
        if (by_seq.empty()) return;
        auto it = by_seq.begin();
        std::advance(it, static_cast<long>(rng.next_below(by_seq.size())));
        const bool cancelled = q.cancel(sim::EventId{it->first});
        const bool in_ref = ref.erase(it->second) > 0;
        EXPECT_EQ(cancelled, in_ref);
        by_seq.erase(it);
    };
    // Popped callbacks schedule and cancel too, as engine handlers do. Their
    // cancels hit entries anywhere in the heap, and the last leaf that fills
    // such a hole must sometimes sift up.
    std::function<void()> schedule_one = [&] {
        const sim::SimTime when = now + rng.next_below(1000);
        const int prio = static_cast<int>(rng.next_below(3)) * 10;
        const int payload = next_payload++;
        const sim::EventId id = q.schedule(when, prio, [&, payload] {
            fired.push_back(payload);
            if (rng.next_below(2) == 0) schedule_one();
            if (rng.next_below(2) == 0) cancel_one();
        });
        ref[{when, prio, ++seq}] = payload;
        by_seq[id.seq] = {when, prio, seq};
    };

    for (int step = 0; step < 2000; ++step) {
        const double dice = rng.next_double();
        if (dice < 0.55) {
            schedule_one();
        } else if (dice < 0.75) {
            cancel_one();
        } else if (!q.empty()) {
            // Pop one; reference pops its minimum, then the callback runs.
            ASSERT_FALSE(ref.empty());
            const int expected = ref.begin()->second;
            now = std::get<0>(ref.begin()->first);
            ref.erase(ref.begin());
            auto popped = q.pop();
            EXPECT_EQ(popped.when, now);
            fired.clear();
            popped.fn();
            ASSERT_EQ(fired.size(), 1u);
            EXPECT_EQ(fired[0], expected);
        }
        EXPECT_EQ(q.size(), ref.size());
        EXPECT_EQ(q.next_time(),
                  ref.empty() ? sim::kTimeNever : std::get<0>(ref.begin()->first));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOracle, ::testing::Values(1, 2, 3, 4));

// --- Buddy vs. interval reference ------------------------------------------------------

class BuddyOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyOracle, NoOverlapNoLeakAlignedAlways) {
    sim::Rng rng(GetParam() ^ 0xb0d);
    kitten::BuddyAllocator buddy(1 << 18, 4096);
    std::map<std::uint64_t, std::uint64_t> live;  // offset -> rounded size
    std::uint64_t live_bytes = 0;

    for (int step = 0; step < 3000; ++step) {
        if (live.empty() || rng.next_double() < 0.5) {
            const std::uint64_t want = 1 + rng.next_below(40000);
            std::uint64_t rounded = 4096;
            while (rounded < want) rounded <<= 1;
            const auto off = buddy.alloc(want);
            if (live_bytes + rounded <= (1 << 18)) {
                // Note: fragmentation may still legitimately fail this
                // alloc; only verify properties when it succeeds.
            }
            if (off.has_value()) {
                EXPECT_EQ(*off % rounded, 0u) << "buddy block misaligned";
                for (const auto& [o, s] : live) {
                    EXPECT_TRUE(*off + rounded <= o || o + s <= *off)
                        << "overlapping allocation";
                }
                live[*off] = rounded;
                live_bytes += rounded;
            }
        } else {
            auto it = live.begin();
            std::advance(it, static_cast<long>(rng.next_below(live.size())));
            buddy.free(it->first);
            live_bytes -= it->second;
            live.erase(it);
        }
        EXPECT_EQ(buddy.allocated_bytes(), live_bytes);
    }
    // Free everything: the pool must coalesce back to one block.
    for (const auto& [o, s] : live) buddy.free(o);
    EXPECT_EQ(buddy.largest_free_block(), 1u << 18);
    EXPECT_EQ(buddy.fragments(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyOracle, ::testing::Values(9, 10, 11));

// --- CFS long-run fairness --------------------------------------------------------------

class CfsFairness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CfsFairness, RuntimeSharesTrackWeights) {
    sim::Rng rng(GetParam() ^ 0xcf5);
    linux_fwk::CfsRunqueue rq;
    constexpr int kTasks = 4;
    linux_fwk::SchedEntity tasks[kTasks];
    double runtime[kTasks] = {};
    int weights[kTasks];
    for (int i = 0; i < kTasks; ++i) {
        tasks[i].name = "t" + std::to_string(i);
        weights[i] = 512 << rng.next_below(3);  // 512/1024/2048
        tasks[i].weight = weights[i];
        rq.enqueue(tasks[i], false);
    }
    // Simulate 100k scheduling slices of 1000 cycles each.
    for (int slice = 0; slice < 100000; ++slice) {
        linux_fwk::SchedEntity* se = rq.pick_next();
        ASSERT_NE(se, nullptr);
        rq.update_curr(*se, 1000.0);
        const int idx = se->name[1] - '0';
        runtime[idx] += 1000.0;
        rq.put_prev(*se);
    }
    double total_weight = 0, total_runtime = 0;
    for (int i = 0; i < kTasks; ++i) {
        total_weight += weights[i];
        total_runtime += runtime[i];
    }
    for (int i = 0; i < kTasks; ++i) {
        const double expected = weights[i] / total_weight;
        const double actual = runtime[i] / total_runtime;
        EXPECT_NEAR(actual, expected, 0.02)
            << "task " << i << " weight " << weights[i];
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfsFairness, ::testing::Values(12, 13, 14, 15));

}  // namespace
}  // namespace hpcsec
