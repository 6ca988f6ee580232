// Parallel experiment engine: fanning trials across threads must be
// invisible in the results. Every aggregate the harness reports — cell
// stats, merged metrics, formatted tables — must be bit-identical between
// --jobs 1 (the same fan-out code, run on the calling thread) and any other
// jobs value, because each trial gets a private Node and the merge folds
// results in trial order. A fold the tests write themselves over single
// trials is the independent serial reference. Also covers the parallel_for
// primitive itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/harness.h"
#include "core/node.h"
#include "core/parallel.h"
#include "workloads/nas.h"
#include "workloads/randomaccess.h"

namespace hpcsec::core {
namespace {

wl::WorkloadSpec small_spec() {
    wl::WorkloadSpec spec = wl::nas_cg_spec();
    spec.units_per_thread_step /= 10;
    return spec;
}

Harness::Options base_options(int jobs) {
    Harness::Options opt;
    opt.trials = 4;
    opt.jobs = jobs;
    return opt;
}

void expect_rows_bit_identical(const std::vector<ExperimentRow>& a,
                               const std::vector<ExperimentRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].workload, b[r].workload);
        EXPECT_EQ(a[r].metric, b[r].metric);
        for (std::size_t c = 0; c < a[r].cells.size(); ++c) {
            // Bitwise, not EXPECT_DOUBLE_EQ: the merge replays the exact
            // serial accumulation order, so even the rounding must match.
            EXPECT_EQ(std::memcmp(&a[r].cells[c], &b[r].cells[c],
                                  sizeof(CellStats)),
                      0)
                << "row " << r << " cell " << c;
        }
    }
    EXPECT_EQ(Harness::format_raw(a), Harness::format_raw(b));
    EXPECT_EQ(Harness::format_normalized(a), Harness::format_normalized(b));
    EXPECT_EQ(Harness::format_metrics_json(a), Harness::format_metrics_json(b));
}

// The serial reference the harness must reproduce: one run_trial per
// (config, trial) in trial order, folded into RunningStats by hand.
TEST(ParallelHarness, RowsMatchAFoldOfSingleTrials) {
    const wl::WorkloadSpec spec = small_spec();
    Harness single(base_options(1));
    ExperimentRow expected;
    expected.workload = spec.name;
    expected.metric = spec.metric;
    for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
        sim::RunningStats stats;
        for (int t = 0; t < single.options().trials; ++t) {
            stats.add(single.run_trial(kAllConfigs[c], spec, single.trial_seed(c, t)).score);
        }
        expected.cells[c] = {stats.mean(), stats.stddev(),
                             static_cast<int>(stats.count())};
    }
    for (const int jobs : {1, 8}) {
        SCOPED_TRACE(jobs);
        const auto rows = Harness(base_options(jobs)).run_rows({spec});
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].workload, expected.workload);
        EXPECT_EQ(rows[0].metric, expected.metric);
        for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
            EXPECT_EQ(std::memcmp(&rows[0].cells[c], &expected.cells[c],
                                  sizeof(CellStats)),
                      0)
                << "cell " << c;
        }
        EXPECT_EQ(Harness::format_raw(rows), Harness::format_raw({expected}));
    }
}

TEST(ParallelHarness, RowsBitIdenticalAcrossJobs) {
    const std::vector<wl::WorkloadSpec> specs = {small_spec()};
    Harness serial(base_options(1));
    Harness wide(base_options(8));
    expect_rows_bit_identical(serial.run_rows(specs), wide.run_rows(specs));
}

TEST(ParallelHarness, RunTrialsPreservesSeedOrderAndValues) {
    const wl::WorkloadSpec spec = small_spec();
    const std::vector<std::uint64_t> seeds = {11, 7, 300, 7};  // dup + unsorted
    Harness serial(base_options(1));
    Harness wide(base_options(8));
    const auto a = serial.run_trials(SchedulerKind::kLinuxPrimary, spec, seeds);
    const auto b = wide.run_trials(SchedulerKind::kLinuxPrimary, spec, seeds);
    ASSERT_EQ(a.size(), seeds.size());
    ASSERT_EQ(b.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        EXPECT_EQ(a[i].seconds, b[i].seconds) << "trial " << i;
        EXPECT_EQ(a[i].score, b[i].score) << "trial " << i;
    }
    // Equal seeds must reproduce equal trials regardless of which worker
    // thread ran them.
    EXPECT_EQ(b[1].seconds, b[3].seconds);
    EXPECT_EQ(b[1].score, b[3].score);
}

TEST(ParallelHarness, MetricsAggregatesMatchAcrossJobs) {
    const std::vector<wl::WorkloadSpec> specs = {small_spec()};
    Harness serial(base_options(1));
    Harness wide(base_options(8));
    const auto a = serial.run_rows(specs);
    const auto b = wide.run_rows(specs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a[0].metrics.size(); ++c) {
        const auto& ra = a[0].metrics[c].rows();
        const auto& rb = b[0].metrics[c].rows();
        ASSERT_EQ(ra.size(), rb.size()) << "config " << c;
        for (std::size_t m = 0; m < ra.size(); ++m) {
            EXPECT_EQ(ra[m].name, rb[m].name);
            EXPECT_EQ(ra[m].stats.count(), rb[m].stats.count());
            EXPECT_EQ(ra[m].stats.mean(), rb[m].stats.mean()) << ra[m].name;
            EXPECT_EQ(ra[m].stats.stddev(), rb[m].stats.stddev()) << ra[m].name;
        }
    }
}

// ISSUE 6 acceptance: windowed aggregation rides the streaming in-order
// merge, so window boundaries, contents, and the JSON rendering must be
// bit-identical at every --jobs value.
TEST(ParallelHarness, WindowedMetricsBitIdenticalAcrossJobs) {
    const std::vector<wl::WorkloadSpec> specs = {small_spec()};
    Harness::Options serial_opt = base_options(1);
    serial_opt.obs_window = 2;
    Harness::Options wide_opt = base_options(8);
    wide_opt.obs_window = 2;
    Harness serial(serial_opt);
    Harness wide(wide_opt);
    const auto a = serial.run_rows(specs);
    const auto b = wide.run_rows(specs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a[0].metrics.size(); ++c) {
        const auto& wa = a[0].metrics[c].windows();
        const auto& wb = b[0].metrics[c].windows();
        ASSERT_EQ(wa.size(), 2u) << "config " << c;  // 4 trials / window 2
        ASSERT_EQ(wa.size(), wb.size()) << "config " << c;
        for (std::size_t w = 0; w < wa.size(); ++w) {
            EXPECT_EQ(wa[w].index, wb[w].index);
            EXPECT_EQ(wa[w].first_trial, wb[w].first_trial);
            EXPECT_EQ(wa[w].trials, wb[w].trials);
            ASSERT_EQ(wa[w].rows.size(), wb[w].rows.size());
            for (std::size_t m = 0; m < wa[w].rows.size(); ++m) {
                EXPECT_EQ(wa[w].rows[m].name, wb[w].rows[m].name);
                EXPECT_EQ(wa[w].rows[m].stats.count(),
                          wb[w].rows[m].stats.count());
                // Bitwise equality, as in expect_rows_bit_identical: the
                // merge replays the exact serial add order.
                EXPECT_EQ(wa[w].rows[m].stats.mean(),
                          wb[w].rows[m].stats.mean())
                    << wa[w].rows[m].name;
                EXPECT_EQ(wa[w].rows[m].stats.stddev(),
                          wb[w].rows[m].stats.stddev())
                    << wa[w].rows[m].name;
            }
        }
    }
    EXPECT_EQ(Harness::format_metrics_json(a), Harness::format_metrics_json(b));
}

TEST(ParallelHarness, CallbacksSerializedAndOrdered) {
    // pre_trial/post_trial run under the harness callback mutex; the overlap
    // counter would exceed 1 if two workers entered simultaneously.
    std::atomic<int> in_callback{0};
    std::atomic<int> max_overlap{0};
    std::atomic<int> calls{0};
    Harness::Options opt = base_options(8);
    opt.post_trial = [&](SchedulerKind, std::uint64_t, Node&) {
        const int now = ++in_callback;
        int prev = max_overlap.load();
        while (now > prev && !max_overlap.compare_exchange_weak(prev, now)) {
        }
        ++calls;
        --in_callback;
    };
    Harness h(opt);
    h.run_rows({small_spec()});
    EXPECT_EQ(calls.load(), 3 * opt.trials);
    EXPECT_EQ(max_overlap.load(), 1);
}

TEST(ParallelHarness, SelfishExperimentsMatchSerial) {
    std::vector<SelfishJob> jobs;
    for (const auto kind : kAllConfigs) jobs.push_back({kind, 1.0, 77, {}});
    const auto par = run_selfish_experiments(jobs, 8);
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto ser = run_selfish_experiment(jobs[i].kind, 1.0, 77);
        EXPECT_EQ(par[i].detours_all_cores, ser.detours_all_cores);
        EXPECT_EQ(par[i].total_detour_us_all, ser.total_detour_us_all);
        EXPECT_EQ(par[i].max_detour_us, ser.max_detour_us);
        ASSERT_EQ(par[i].detours.size(), ser.detours.size());
        for (std::size_t d = 0; d < ser.detours.size(); ++d) {
            EXPECT_EQ(par[i].detours[d].at_seconds, ser.detours[d].at_seconds);
            EXPECT_EQ(par[i].detours[d].duration_us, ser.detours[d].duration_us);
        }
    }
}

TEST(ParallelFor, RunsEachIndexOnce) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, OneJobRunsInOrderOnTheCallingThreadAndStopsAtTheFirstThrow) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    try {
        parallel_for(1, 64, [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
            if (i == 13) throw std::runtime_error("boom@13");
        });
        FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom@13");
    }
    ASSERT_EQ(order.size(), 14u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, RethrowsTheLowestIndexExceptionAfterEveryIndexRan) {
    std::vector<std::atomic<int>> hits(64);
    try {
        parallel_for(4, hits.size(), [&](std::size_t i) {
            ++hits[i];
            if (i % 10 == 3) throw std::runtime_error("boom@" + std::to_string(i));
        });
        FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom@3");
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, ZeroIndicesCallsNothing) {
    parallel_for(4, 0, [&](std::size_t) { FAIL(); });
    parallel_for(1, 0, [&](std::size_t) { FAIL(); });
}

// The first `hw` indices each wait until `hw` calls have begun, and a
// thread takes its next index only when its call returns, so they meet
// only if parallel_for started one thread per hardware thread. The caller
// only waits, so it runs none of the calls.
TEST(ParallelFor, ZeroJobsUsesOneThreadPerHardwareThread) {
    const int hw = resolve_jobs(0);
    EXPECT_EQ(hw, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> threads;
    std::atomic<int> entered{0};
    const std::size_t n = static_cast<std::size_t>(hw) * 4;
    parallel_for(0, n, [&](std::size_t i) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
        }
        ++entered;
        if (i >= static_cast<std::size_t>(hw)) return;
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (entered.load() < hw && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
    });
    EXPECT_EQ(threads.size(), static_cast<std::size_t>(hw));
    if (hw > 1) {
        EXPECT_EQ(threads.count(caller), 0u);
    }
}

}  // namespace
}  // namespace hpcsec::core
