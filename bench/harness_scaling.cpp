// Harness scaling: wall-clock for the same experiment row at --jobs 1 vs
// --jobs N (default 4). Every jobs value runs the identical trial set (one
// private Node per trial, merged in trial order), so this doubles as a
// determinism check: the aggregated tables must match bit-for-bit before the
// timing numbers mean anything.
//
// Writes BENCH_harness_scaling.json with, per jobs value, wall-clock
// seconds, simulated events per wall-clock second, and speedup vs serial.
// Speedup tracks host cores: a 1-core container reports ~1.0 by
// construction, a 4-core host ~3x+ at --jobs 4 (trials are embarrassingly
// parallel; the residual is the serialized merge + thread start and join).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.h"
#include "core/harness.h"
#include "obs/report.h"
#include "workloads/nas.h"

namespace {

using namespace hpcsec;

struct Run {
    double wall_s = 0.0;
    double events = 0.0;  ///< simulated events executed, summed over trials
    std::string raw;      ///< format_raw of the row (determinism witness)
    std::string metrics_json;
};

Run run_once(const wl::WorkloadSpec& spec, int trials, int jobs) {
    core::Harness::Options opt;
    opt.trials = trials;
    opt.jobs = jobs;
    core::Harness h(opt);

    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = h.run_rows({spec});
    const auto t1 = std::chrono::steady_clock::now();

    Run r;
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    for (const auto& agg : rows.front().metrics) {
        for (const auto& row : agg.rows()) {
            if (row.name == "engine.events") r.events += row.stats.sum();
        }
    }
    r.raw = core::Harness::format_raw(rows);
    r.metrics_json = core::Harness::format_metrics_json(rows);
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hpcsec;
    const int jobs = benchargs::parse_jobs(argc, argv, 4);
    const int trials = argc > 1 ? std::atoi(argv[1]) : 10;

    wl::WorkloadSpec spec = wl::nas_lu_spec();
    spec.units_per_thread_step /= 2;

    std::printf("== Harness scaling: %d-trial x 3-config LU row ==\n", trials);
    std::printf("(host: %u hardware threads)\n\n",
                std::thread::hardware_concurrency());
    std::printf("%-8s %12s %16s %10s\n", "jobs", "wall[s]", "events/s", "speedup");

    obs::BenchReport report("harness_scaling");
    const Run serial = run_once(spec, trials, 1);
    bool identical = true;
    for (const int j : {1, jobs}) {
        const Run r = j == 1 ? serial : run_once(spec, trials, j);
        const double speedup = serial.wall_s / r.wall_s;
        identical = identical && r.raw == serial.raw &&
                    r.metrics_json == serial.metrics_json;
        std::printf("%-8d %12.3f %16.3e %10.2f\n", j, r.wall_s,
                    r.events / r.wall_s, speedup);
        const std::string tag = "jobs." + std::to_string(j);
        report.add(tag + ".wall_s", r.wall_s, 0.0, 1);
        report.add(tag + ".events_per_s", r.events / r.wall_s, 0.0, 1);
        report.add(tag + ".speedup", speedup, 0.0, 1);
    }
    report.add("host_threads",
               static_cast<double>(std::thread::hardware_concurrency()), 0.0, 1);
    report.add("deterministic", identical ? 1.0 : 0.0, 0.0, 1);
    report.write_default();

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: --jobs %d output differs from serial run\n", jobs);
        return 1;
    }
    std::printf(
        "\nOutputs bit-identical across jobs values; speedup scales with host\n"
        "cores (a single-core host pins it at ~1.0 regardless of --jobs).\n");
    return 0;
}
