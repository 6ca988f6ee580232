#include "core/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/parallel.h"
#include "obs/report.h"
#include "sim/rng.h"

namespace hpcsec::core {

Harness::Harness(Options options) : options_(std::move(options)) {
    if (!options_.config_factory) {
        options_.config_factory = [](SchedulerKind kind, std::uint64_t seed) {
            return default_config(kind, seed);
        };
    }
}

NodeConfig Harness::default_config(SchedulerKind kind, std::uint64_t seed) {
    NodeConfig cfg;
    cfg.platform = arch::PlatformConfig::pine_a64();
    cfg.scheduler = kind;
    cfg.seed = seed;
    return cfg;
}

TrialResult Harness::run_trial(SchedulerKind kind, const wl::WorkloadSpec& spec,
                               std::uint64_t seed) {
    std::mutex callback_mutex;
    return run_trial_impl(kind, spec, seed, callback_mutex);
}

// Everything user-provided (config_factory, pre_trial, post_trial,
// attachment destruction) runs under callback_mutex, so single-threaded
// rigging keeps working when trials fan out. The trial body itself — one
// private Node — runs lock-free.
TrialResult Harness::run_trial_impl(SchedulerKind kind,
                                    const wl::WorkloadSpec& spec,
                                    std::uint64_t seed,
                                    std::mutex& callback_mutex) {
    NodeConfig cfg;
    {
        std::lock_guard<std::mutex> lock(callback_mutex);
        cfg = options_.config_factory(kind, seed);
    }
    Node node(std::move(cfg));
    // Declared after node so it is torn down first even when a trial throws.
    std::shared_ptr<void> attachment;
    node.boot();
    if (options_.pre_trial) {
        std::lock_guard<std::mutex> lock(callback_mutex);
        attachment = options_.pre_trial(kind, seed, node);
    }
    wl::ParallelWorkload workload(spec);
    const double seconds = node.run_workload(workload, options_.timeout_s);
    TrialResult r;
    r.seconds = seconds;
    r.score = workload.score(seconds);
    if (options_.measurement_noise && spec.measurement_noise_sigma > 0.0) {
        sim::Rng rng(seed ^ 0x5eedf00dULL);
        r.score *= 1.0 + spec.measurement_noise_sigma * rng.normal(0.0, 1.0);
    }
    if (check::Auditor* auditor = node.auditor()) {
        auditor->validate();  // end-of-trial sweep (throws under strict)
        r.check_failures = auditor->failures().size();
        r.check_report = auditor->report();
    }
    r.metrics = node.publish_metrics();
    {
        std::lock_guard<std::mutex> lock(callback_mutex);
        if (options_.post_trial) options_.post_trial(kind, seed, node);
        attachment.reset();
    }
    return r;
}

std::vector<TrialResult> Harness::run_trials(
    SchedulerKind kind, const wl::WorkloadSpec& spec,
    const std::vector<std::uint64_t>& seeds) {
    std::vector<TrialResult> results(seeds.size());
    std::mutex callback_mutex;
    parallel_for(options_.jobs, seeds.size(), [&](std::size_t i) {
        results[i] = run_trial_impl(kind, spec, seeds[i], callback_mutex);
    });
    return results;
}

ExperimentRow Harness::run_row(const wl::WorkloadSpec& spec) {
    return run_rows({spec}).front();
}

// The full specs x configs x trials cross-product fans out as one flat task
// list, and results merge *eagerly* in task order — a cursor under the merge
// mutex folds every completed prefix task into the row aggregates and drops
// its snapshot immediately. Every RunningStats/MetricsAggregate sees the
// same sequence of adds at every jobs value (bit-identical output), and
// snapshot memory stays bounded by the out-of-order window (~O(jobs))
// instead of O(specs x configs x trials).
std::vector<ExperimentRow> Harness::run_rows(
    const std::vector<wl::WorkloadSpec>& specs) {
    std::vector<RowTask> tasks;
    for (std::size_t r = 0; r < specs.size(); ++r) {
        for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
            for (int t = 0; t < options_.trials; ++t) tasks.push_back({r, c, t});
        }
    }

    std::vector<ExperimentRow> rows(specs.size());
    std::vector<sim::RunningStats> cell_stats(specs.size() * kAllConfigs.size());
    for (std::size_t r = 0; r < specs.size(); ++r) {
        rows[r].workload = specs[r].name;
        rows[r].metric = specs[r].metric;
        if (options_.obs_window > 0) {
            for (auto& agg : rows[r].metrics) {
                agg.set_window(static_cast<std::size_t>(options_.obs_window));
            }
        }
    }

    std::vector<TrialResult> results(tasks.size());
    std::vector<char> done(tasks.size(), 0);
    std::size_t merged = 0;
    std::mutex merge_mutex;
    std::mutex callback_mutex;
    parallel_for(options_.jobs, tasks.size(), [&](std::size_t i) {
        const RowTask& task = tasks[i];
        results[i] = run_trial_impl(kAllConfigs[task.config], specs[task.row],
                                    trial_seed(task.config, task.trial),
                                    callback_mutex);
        std::lock_guard<std::mutex> lock(merge_mutex);
        done[i] = 1;
        while (merged < tasks.size() && done[merged] != 0) {
            const RowTask& m = tasks[merged];
            TrialResult& res = results[merged];
            cell_stats[m.row * kAllConfigs.size() + m.config].add(res.score);
            rows[m.row].metrics[m.config].add(res.metrics);
            res = TrialResult{};  // free the snapshot now, not at the end
            ++merged;
        }
    });

    for (std::size_t r = 0; r < specs.size(); ++r) {
        for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
            const sim::RunningStats& stats = cell_stats[r * kAllConfigs.size() + c];
            rows[r].cells[c] = {stats.mean(), stats.stddev(),
                                static_cast<int>(stats.count())};
        }
    }
    return rows;
}

namespace {
std::string fmt(double v) {
    char buf[64];
    if (v != 0.0 && (std::fabs(v) < 1e-2 || std::fabs(v) >= 1e5)) {
        std::snprintf(buf, sizeof(buf), "%.3e", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.4g", v);
    }
    return buf;
}
}  // namespace

std::string Harness::format_raw(const std::vector<ExperimentRow>& rows) {
    std::ostringstream os;
    os << "config  ";
    for (const auto& row : rows) {
        os << "| " << row.workload << " (" << row.metric << ") mean/stdev ";
    }
    os << "\n";
    static constexpr const char* kNames[3] = {"Native", "Kitten", "Linux"};
    for (std::size_t c = 0; c < 3; ++c) {
        os << kNames[c] << "  ";
        for (const auto& row : rows) {
            os << "| " << fmt(row.cells[c].mean) << " / " << fmt(row.cells[c].stdev)
               << " ";
        }
        os << "\n";
    }
    return os.str();
}

std::string Harness::format_normalized(const std::vector<ExperimentRow>& rows) {
    std::ostringstream os;
    os << "normalized to Native (1.0):\n";
    static constexpr const char* kNames[3] = {"Native", "Kitten", "Linux"};
    os << "config  ";
    for (const auto& row : rows) os << "| " << row.workload << " ";
    os << "\n";
    for (std::size_t c = 0; c < 3; ++c) {
        os << kNames[c] << "  ";
        for (const auto& row : rows) {
            const double base = row.cells[0].mean;
            os << "| " << fmt(base != 0.0 ? row.cells[c].mean / base : 0.0) << " ";
        }
        os << "\n";
    }
    return os.str();
}

std::string Harness::format_metrics_json(const std::vector<ExperimentRow>& rows) {
    static constexpr const char* kNames[3] = {"Native", "Kitten", "Linux"};
    std::ostringstream os;
    os << "{\"rows\":[\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r != 0) os << ",\n";
        os << " {\"workload\":\"" << rows[r].workload << "\",\"metric\":\""
           << rows[r].metric << "\",\"configs\":[";
        for (std::size_t c = 0; c < 3; ++c) {
            if (c != 0) os << ",";
            os << "\n  {\"config\":\"" << kNames[c] << "\",\"data\":";
            rows[r].metrics[c].write_json(os);
            os << "}";
        }
        os << "]}";
    }
    os << "\n]}\n";
    return os.str();
}

bool Harness::write_bench_report(const std::string& bench,
                                 const std::vector<ExperimentRow>& rows) {
    obs::BenchReport report(bench);
    static constexpr const char* kNames[3] = {"native", "kitten", "linux"};
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < 3; ++c) {
            report.add(row.workload + "." + kNames[c], row.cells[c].mean,
                       row.cells[c].stdev, static_cast<std::size_t>(row.cells[c].n));
        }
    }
    return report.write_default();
}

// ---------------------------------------------------------------------------
// Selfish
// ---------------------------------------------------------------------------

SelfishSeries run_selfish_experiment(SchedulerKind kind, double seconds,
                                     std::uint64_t seed, const NodeConfig* base) {
    NodeConfig cfg = base != nullptr ? *base : Harness::default_config(kind, seed);
    cfg.scheduler = kind;
    cfg.seed = seed;
    Node node(cfg);
    node.boot();

    wl::SelfishBenchmark selfish(node.platform().ncores(),
                                 node.platform().engine().clock());
    selfish.attach_obs(node.platform().obs());
    node.run_selfish(selfish, seconds);

    SelfishSeries out;
    out.config = kind;
    out.duration_s = seconds;
    out.ncores = node.platform().ncores();
    out.detours = selfish.recorder(0).detours();
    for (int t = 0; t < selfish.nthreads(); ++t) {
        out.detours_all_cores += selfish.recorder(t).detours().size();
        out.total_detour_us_all += selfish.recorder(t).total_detour_us();
        out.max_detour_us = std::max(out.max_detour_us, selfish.recorder(t).max_detour_us());
    }
    out.metrics = node.publish_metrics();
    out.events = node.platform().recorder().events();
    return out;
}

std::vector<SelfishSeries> run_selfish_experiments(
    const std::vector<SelfishJob>& runs, int jobs) {
    std::vector<SelfishSeries> out(runs.size());
    parallel_for(jobs, runs.size(), [&](std::size_t i) {
        const SelfishJob& job = runs[i];
        out[i] = run_selfish_experiment(job.kind, job.seconds, job.seed,
                                        job.config ? &*job.config : nullptr);
    });
    return out;
}

std::string format_selfish(const SelfishSeries& series, std::size_t max_points) {
    std::ostringstream os;
    os << "config=" << to_string(series.config) << " duration=" << series.duration_s
       << "s detours(core0)=" << series.detours.size()
       << " detours(all)=" << series.detours_all_cores
       << " lost=" << fmt(series.total_detour_us_all) << "us"
       << " max=" << fmt(series.max_detour_us) << "us\n";
    os << "  t[s]      detour[us]\n";
    const std::size_t n = series.detours.size();
    const std::size_t stride = std::max<std::size_t>(1, n / max_points);
    for (std::size_t i = 0; i < n; i += stride) {
        const auto& d = series.detours[i];
        char buf[80];
        std::snprintf(buf, sizeof(buf), "  %8.3f  %10.2f\n", d.at_seconds,
                      d.duration_us);
        os << buf;
    }
    return os.str();
}

}  // namespace hpcsec::core
