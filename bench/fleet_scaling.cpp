// Fleet scaling sweep: zero-alloc steady state at 10..10,000 nodes.
//
// Each fleet node is a full detailed simulation — platform, SPM, Kitten
// primary + secure compute partition — booted from an external arena that
// is reused (reset, not reallocated) across every trial a worker runs, so
// the per-node footprint and teardown cost stay flat no matter how many
// nodes the sweep pushes through. The per-node superstep traces then feed
// the cluster scale model (max-over-nodes + log2(N) allreduce), projecting
// the fleet's BSP efficiency at each size.
//
// Reported per fleet size: host seconds spent booting, running and tearing
// down nodes (each summed over the fleet's nodes, so at --jobs N they add up
// the workers' time), simulated events per second of run time, mean arena
// bytes/node, projected parallel efficiency, and peak RSS. The trial
// fan-out goes through core::ThreadPool; results are merged in node-index
// order, and the sweep is run at --jobs 1 and at the requested --jobs with
// the deterministic outputs compared byte-for-byte (host-time metrics are
// reported separately and excluded from the comparison).
//
// Usage: fleet_scaling [--jobs N] [--floor FILE] [counts...]
//   counts  fleet sizes to sweep (default: 10 100 1000 10000)
//   --floor FILE  read a reference events/s (of run time); exit 1 if the
//                 measured aggregate falls below 0.9x the reference (the CI
//                 regression gate).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "cluster/scale_model.h"
#include "core/harness.h"
#include "core/node.h"
#include "core/parallel.h"
#include "obs/report.h"
#include "sim/arena.h"
#include "workloads/nas.h"

namespace {

using namespace hpcsec;

// Per-node workload: LU-shaped (the sync-heavy suite member), trimmed so a
// node trial is milliseconds — the sweep's cost is nodes, not node depth.
wl::WorkloadSpec fleet_node_spec() {
    wl::WorkloadSpec spec = wl::nas_lu_spec();
    spec.supersteps = 64;
    return spec;
}

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct NodeSample {
    std::uint64_t events = 0;     ///< engine events this node executed
    std::size_t arena_bytes = 0;  ///< arena footprint at teardown
    cluster::NodeTrace trace;     ///< superstep trace for the scale model
    // Host time per phase (excluded from the witness).
    double boot_s = 0.0;      ///< Node construction + boot
    double run_s = 0.0;       ///< the workload run
    double teardown_s = 0.0;  ///< Node destruction + arena reset
};

/// One fleet point: `nodes` detailed trials fanned across the pool, each
/// worker reusing a thread-local arena (reset between trials = O(1)
/// teardown), then a scale-model projection over the traces.
struct FleetPoint {
    int nodes = 0;
    std::uint64_t total_events = 0;
    double mean_bytes_per_node = 0.0;
    cluster::ScaleResult projection;
    // Host seconds summed over nodes (excluded from the witness).
    double boot_s = 0.0;
    double run_s = 0.0;
    double teardown_s = 0.0;
};

FleetPoint run_fleet(core::ThreadPool& pool, int nodes,
                     const wl::WorkloadSpec& spec, std::uint64_t base_seed) {
    std::vector<NodeSample> samples(static_cast<std::size_t>(nodes));
    core::parallel_for_indexed(pool, static_cast<std::size_t>(nodes),
                               [&](std::size_t i) {
        // One arena per worker thread, reused for every trial the worker
        // picks up: teardown is Node dtor + arena.reset() (dtor sweep +
        // pointer rewind), and the warmed chunks serve the next trial.
        static thread_local sim::Arena arena;
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kKittenPrimary,
            base_seed + 6151ull * static_cast<std::uint64_t>(i));
        cfg.platform.arena = &arena;
        NodeSample& out = samples[i];
        const Clock::time_point t0 = Clock::now();
        std::optional<core::Node> node(std::in_place, std::move(cfg));
        node->boot();
        const Clock::time_point t1 = Clock::now();
        {
            wl::ParallelWorkload w(spec);
            const sim::SimTime start = node->platform().engine().now();
            (void)node->run_workload(w);
            out.run_s = seconds(t1, Clock::now());
            // Boot dispatches no engine events, so these are all run events.
            out.events = node->platform().engine().events_executed();
            out.trace = cluster::trace_from_step_times(
                w.step_completion_times(), start);
        }
        const Clock::time_point t2 = Clock::now();
        node.reset();
        // The external arena outlives the Platform; bytes_used at this
        // point is the node's whole long-lived footprint (cores, VMs,
        // VCPUs, grants) — deterministic per seed, so it goes in the
        // witness string.
        out.arena_bytes = arena.bytes_used();
        arena.reset();
        out.boot_s = seconds(t0, t1);
        out.teardown_s = seconds(t2, Clock::now());
    });

    FleetPoint pt;
    pt.nodes = nodes;
    std::vector<cluster::NodeTrace> traces;
    traces.reserve(samples.size());
    double bytes_sum = 0.0;
    for (auto& s : samples) {
        pt.total_events += s.events;
        bytes_sum += static_cast<double>(s.arena_bytes);
        pt.boot_s += s.boot_s;
        pt.run_s += s.run_s;
        pt.teardown_s += s.teardown_s;
        traces.push_back(std::move(s.trace));
    }
    pt.mean_bytes_per_node = bytes_sum / static_cast<double>(nodes);
    const cluster::ScaleModel model(std::move(traces),
                                    sim::ClockSpec{1'100'000'000});
    pt.projection = model.project(nodes, /*seed=*/777);
    return pt;
}

struct SweepRun {
    std::vector<FleetPoint> points;
    double wall_s = 0.0;
    std::string witness;  ///< deterministic outputs only — the jobs invariant
};

SweepRun run_sweep(int jobs, const std::vector<int>& counts,
                   const wl::WorkloadSpec& spec) {
    SweepRun run;
    const Clock::time_point t0 = Clock::now();
    core::ThreadPool pool(jobs);
    run.points.reserve(counts.size());
    for (const int n : counts) {
        run.points.push_back(run_fleet(pool, n, spec, /*base_seed=*/20210101));
    }
    run.wall_s = seconds(t0, Clock::now());

    std::ostringstream w;
    for (const FleetPoint& pt : run.points) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "nodes=%d events=%llu bytes/node=%.1f eff=%.6f step_us=%.4f\n",
                      pt.nodes,
                      static_cast<unsigned long long>(pt.total_events),
                      pt.mean_bytes_per_node, pt.projection.efficiency,
                      pt.projection.mean_step_us);
        w << line;
    }
    run.witness = w.str();
    return run;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
    int jobs = benchargs::parse_jobs(argc, argv, 8);
    if (jobs <= 0) jobs = core::ThreadPool::default_jobs();

    std::string floor_file;
    std::vector<int> counts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
            floor_file = argv[++i];
        } else {
            counts.push_back(std::atoi(argv[i]));
        }
    }
    if (counts.empty()) counts = {10, 100, 1000, 10000};

    const wl::WorkloadSpec spec = fleet_node_spec();
    std::printf("== Fleet scaling: arena-backed nodes at 10..10k ==\n");
    std::printf("(per-node: %s x%d supersteps; jobs=%d)\n\n", spec.name.c_str(),
                spec.supersteps, jobs);

    // The determinism invariant: the whole sweep at --jobs 1 and at the
    // requested jobs must agree byte-for-byte on every deterministic output.
    std::vector<int> jobs_values = {1};
    if (jobs != 1) jobs_values.push_back(jobs);

    obs::BenchReport report("fleet_scaling");
    std::vector<SweepRun> runs;
    runs.reserve(jobs_values.size());
    for (const int j : jobs_values) {
        runs.push_back(run_sweep(j, counts, spec));
        report.add("jobs" + std::to_string(j) + ".wall_s", runs.back().wall_s,
                   0.0, 1);
    }
    const SweepRun& run = runs.back();  // the requested-jobs run

    std::printf("%8s %14s %10s %10s %10s %14s %12s %10s %10s\n", "nodes", "events",
                "boot_s", "run_s", "teardown_s", "events/s", "bytes/node", "eff",
                "step_us");
    std::uint64_t total_events = 0;
    double total_run = 0.0;
    for (const FleetPoint& pt : run.points) {
        const double evps =
            pt.run_s > 0.0 ? static_cast<double>(pt.total_events) / pt.run_s : 0.0;
        std::printf("%8d %14llu %10.4f %10.4f %10.4f %14.0f %12.1f %10.4f %10.2f\n",
                    pt.nodes, static_cast<unsigned long long>(pt.total_events),
                    pt.boot_s, pt.run_s, pt.teardown_s, evps, pt.mean_bytes_per_node,
                    pt.projection.efficiency, pt.projection.mean_step_us);
        const std::string tag = "fleet." + std::to_string(pt.nodes);
        report.add(tag + ".events", static_cast<double>(pt.total_events), 0.0, 1);
        report.add(tag + ".boot_s", pt.boot_s, 0.0, 1);
        report.add(tag + ".run_s", pt.run_s, 0.0, 1);
        report.add(tag + ".teardown_s", pt.teardown_s, 0.0, 1);
        report.add(tag + ".events_per_s", evps, 0.0, 1);
        report.add(tag + ".bytes_per_node", pt.mean_bytes_per_node, 0.0, 1);
        report.add(tag + ".efficiency", pt.projection.efficiency, 0.0, 1);
        report.add(tag + ".step_us", pt.projection.mean_step_us, 0.0, 1);
        total_events += pt.total_events;
        total_run += pt.run_s;
    }
    const double rss = peak_rss_mib();
    const double agg_evps =
        total_run > 0.0 ? static_cast<double>(total_events) / total_run : 0.0;
    report.add("events_per_s", agg_evps, 0.0, 1);
    report.add("peak_rss_mib", rss, 0.0, 1);
    std::printf("\naggregate: %.0f events/s of run time, peak RSS %.1f MiB\n", agg_evps,
                rss);

    bool ok = true;
    bool identical = true;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        identical = identical && runs[i].witness == runs.front().witness;
    }
    report.add("deterministic", identical ? 1.0 : 0.0, 0.0, 1);
    if (identical) {
        std::printf("Deterministic outputs bit-identical across jobs values\n");
    } else {
        std::fprintf(stderr,
                     "FAIL: outputs differ between --jobs 1 and --jobs %d\n",
                     jobs);
        ok = false;
    }

    if (!floor_file.empty()) {
        std::ifstream in(floor_file);
        double floor = 0.0;
        if (!(in >> floor) || floor <= 0.0) {
            std::fprintf(stderr, "FAIL: cannot read floor from %s\n",
                         floor_file.c_str());
            ok = false;
        } else if (agg_evps < 0.9 * floor) {
            std::fprintf(stderr,
                         "FAIL: %.0f events/s is below 90%% of the recorded "
                         "floor (%.0f)\n",
                         agg_evps, floor);
            ok = false;
        } else {
            std::printf("Floor gate: %.0f events/s >= 0.9 x %.0f recorded\n",
                        agg_evps, floor);
        }
    }

    report.write_default();
    return ok ? 0 : 1;
}
