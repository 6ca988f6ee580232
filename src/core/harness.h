// Experiment harness: regenerates the paper's tables and figures.
//
// Runs a workload spec across the three node configurations (Native /
// Kitten-scheduled / Linux-scheduled), multiple seeded trials each, and
// reports mean +/- stdev in the workload's metric — the structure of
// Figs. 7-10. Per-trial measurement noise (documented in DESIGN.md §5)
// models the run-to-run variation a real board exhibits (DRAM refresh,
// thermal/DVFS wiggle) that a deterministic simulator otherwise lacks;
// the paper's own stdevs size it.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/node.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "sim/stats.h"
#include "workloads/selfish.h"
#include "workloads/workload.h"

namespace hpcsec::core {

inline constexpr std::array<SchedulerKind, 3> kAllConfigs = {
    SchedulerKind::kNativeKitten, SchedulerKind::kKittenPrimary,
    SchedulerKind::kLinuxPrimary};

struct TrialResult {
    double seconds = 0.0;
    double score = 0.0;
    obs::MetricsSnapshot metrics;  ///< per-trial metrics (Node::publish_metrics)
    std::size_t check_failures = 0;  ///< auditor findings (0 when audit off)
    std::string check_report;        ///< formatted findings ("" when clean)
};

struct CellStats {
    double mean = 0.0;
    double stdev = 0.0;
    int n = 0;
};

struct ExperimentRow {
    std::string workload;
    std::string metric;
    std::array<CellStats, 3> cells;  ///< Native, Kitten, Linux
    /// Per-config metrics aggregated across the row's trials.
    std::array<obs::MetricsAggregate, 3> metrics;
};

class Harness {
public:
    struct Options {
        int trials = 10;
        double timeout_s = 600.0;
        std::uint64_t base_seed = 20210101;
        bool measurement_noise = true;
        /// Threads for fanning trials out in run_trials/run_row/run_rows
        /// (core::parallel_for): 1 = every trial on the calling thread, in
        /// order; 0 = one per hardware thread. Each trial owns a private
        /// Node, and the same code merges results in trial order at every
        /// jobs value, so aggregate output is bit-identical for every jobs
        /// value. config_factory, pre_trial and post_trial (and attachment
        /// destruction) run one at a time under a harness mutex, on
        /// whichever thread runs the trial.
        int jobs = 1;
        /// Close a windowed aggregate snapshot every N trials in each row
        /// cell (obs::MetricsAggregate::set_window). 0 = totals only.
        /// Windows follow merge order — trial order within the cell — so
        /// windowed output stays bit-identical for every jobs value.
        int obs_window = 0;
        /// Node construction, where callers set any NodeConfig field (ISA,
        /// recorder categories, audit mode) for every trial node; ablations
        /// swap it out. A trial on an audited node ends with a full
        /// validate(), so sampled mode can't miss late damage.
        std::function<NodeConfig(SchedulerKind, std::uint64_t seed)> config_factory;
        /// Invoked after each trial, before the node is destroyed (trace
        /// harvesting, extra assertions).
        std::function<void(SchedulerKind, std::uint64_t seed, Node&)> post_trial;
        /// Invoked after boot, before the workload runs. The returned
        /// attachment lives for the rest of the trial and is destroyed
        /// before the node — rigging for per-trial machinery that watches
        /// the node (e.g. a resil::Supervisor + ChaosInjector).
        std::function<std::shared_ptr<void>(SchedulerKind, std::uint64_t seed,
                                            Node&)>
            pre_trial;
    };

    Harness() : Harness(Options()) {}
    explicit Harness(Options options);

    /// Default paper-faithful node configuration.
    static NodeConfig default_config(SchedulerKind kind, std::uint64_t seed);

    TrialResult run_trial(SchedulerKind kind, const wl::WorkloadSpec& spec,
                          std::uint64_t seed);

    /// Run one seeded trial per entry of `seeds`, fanned across
    /// Options::jobs threads. Results come back in seed order.
    std::vector<TrialResult> run_trials(SchedulerKind kind,
                                        const wl::WorkloadSpec& spec,
                                        const std::vector<std::uint64_t>& seeds);

    ExperimentRow run_row(const wl::WorkloadSpec& spec);
    std::vector<ExperimentRow> run_rows(const std::vector<wl::WorkloadSpec>& specs);

    /// The seed for trial `t` of config cell `c` (the row fan-out order).
    [[nodiscard]] std::uint64_t trial_seed(std::size_t c, int t) const {
        return options_.base_seed + 7919ull * static_cast<std::uint64_t>(t) +
               131ull * c;
    }

    // --- formatting (paper-shaped output) ------------------------------------
    static std::string format_raw(const std::vector<ExperimentRow>& rows);
    static std::string format_normalized(const std::vector<ExperimentRow>& rows);
    /// Per-row, per-config aggregated metrics as JSON (for --metrics-out).
    static std::string format_metrics_json(const std::vector<ExperimentRow>& rows);
    /// Flatten rows into BENCH_<bench>.json (one entry per workload/config
    /// cell) via obs::BenchReport. Returns false when the file can't open.
    static bool write_bench_report(const std::string& bench,
                                   const std::vector<ExperimentRow>& rows);

    [[nodiscard]] const Options& options() const { return options_; }

private:
    struct RowTask {
        std::size_t row;
        std::size_t config;
        int trial;
    };

    TrialResult run_trial_impl(SchedulerKind kind, const wl::WorkloadSpec& spec,
                               std::uint64_t seed, std::mutex& callback_mutex);

    Options options_;
};

// --- selfish-detour experiment (Figs. 4-6) ----------------------------------

struct SelfishSeries {
    SchedulerKind config;
    double duration_s = 0.0;
    std::vector<wl::Detour> detours;   ///< thread 0 (the plotted core)
    std::uint64_t detours_all_cores = 0;
    double total_detour_us_all = 0.0;
    double max_detour_us = 0.0;
    int ncores = 0;
    obs::MetricsSnapshot metrics;      ///< end-of-run metrics snapshot
    std::vector<obs::Event> events;    ///< structured events (per obs_mask)
};

SelfishSeries run_selfish_experiment(SchedulerKind kind, double seconds,
                                     std::uint64_t seed,
                                     const NodeConfig* base = nullptr);

/// One selfish-detour run for the parallel fan-out below.
struct SelfishJob {
    SchedulerKind kind = SchedulerKind::kNativeKitten;
    double seconds = 0.0;
    std::uint64_t seed = 0;
    std::optional<NodeConfig> config;  ///< overrides default_config when set
};

/// Run the jobs through core::parallel_for (jobs semantics as in
/// Harness::Options::jobs). Each run owns a private Node; results come back
/// in job order, bit-identical to calling run_selfish_experiment serially.
std::vector<SelfishSeries> run_selfish_experiments(
    const std::vector<SelfishJob>& runs, int jobs);

/// Scatter-style text rendering (time vs detour length) plus summary.
std::string format_selfish(const SelfishSeries& series, std::size_t max_points = 40);

}  // namespace hpcsec::core
