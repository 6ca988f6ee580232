// Trace-based multi-node scale projection.
//
// Paper §VII: "we intend to not only study the scalability but also the
// performance isolation capabilities of our approach" on larger systems
// (the Astra ThunderX2 machine). One node is what we can simulate in
// detail; this module composes *measured single-node superstep traces*
// into an N-node BSP execution the standard way (Ferreira/Hoefler noise-
// amplification methodology):
//
//   step_time(N) = max over N nodes of (sampled per-node step duration)
//                  + allreduce_time(N)
//
// Node samples are drawn (deterministically, per seed) from a pool of
// detailed single-node runs with different seeds, so the projection
// inherits the full modeled noise distribution — including the heavy tail
// of the Linux-scheduled configuration that the max() amplifies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace hpcsec::cluster {

/// Durations (cycles) of each superstep on one simulated node.
struct NodeTrace {
    std::vector<sim::Cycles> step_cycles;

    [[nodiscard]] sim::Cycles total() const {
        sim::Cycles sum = 0;
        for (const auto c : step_cycles) sum += c;
        return sum;
    }
};

/// Extract a trace from barrier completion timestamps.
[[nodiscard]] NodeTrace trace_from_step_times(const std::vector<sim::SimTime>& times,
                                              sim::SimTime start);

struct InterconnectModel {
    double latency_us = 2.0;        ///< per-hop message latency
    double bytes_per_allreduce = 64;
    double bandwidth_gbps = 12.5;   ///< per-link

    /// Cost of a dissemination allreduce over `nodes` (ceil(log2 N) rounds).
    [[nodiscard]] double allreduce_us(int nodes) const;
};

struct ScaleResult {
    int nodes = 0;
    double mean_step_us = 0.0;
    double total_us = 0.0;
    double efficiency = 0.0;  ///< single-node-ideal time / projected time
};

class ScaleModel {
public:
    /// `traces` are detailed single-node runs of the SAME workload with
    /// different seeds (>= 1). The shortest step observed across them is
    /// the noise-free step duration, the efficiency baseline.
    ScaleModel(std::vector<NodeTrace> traces, sim::ClockSpec clock,
               InterconnectModel net = {});

    /// Project an N-node run: for every superstep, each node's duration is
    /// an independent draw from the pooled per-step samples; the step
    /// completes at the slowest node plus the allreduce.
    [[nodiscard]] ScaleResult project(int nodes, std::uint64_t seed) const;

    /// Sweep of node counts (each point averaged over `trials` seeds).
    [[nodiscard]] std::vector<ScaleResult> sweep(const std::vector<int>& node_counts,
                                                 int trials,
                                                 std::uint64_t seed) const;

    [[nodiscard]] std::size_t steps() const { return nsteps_; }

private:
    std::vector<NodeTrace> traces_;
    sim::ClockSpec clock_;
    InterconnectModel net_;
    std::size_t nsteps_ = 0;
    sim::Cycles ideal_step_ = 0;
    // Pooled step-duration samples (all traces x all steps; BSP steps of a
    // workload are statistically homogeneous, and pooling gives the noise
    // distribution a real tail).
    std::vector<std::vector<sim::Cycles>> pool_;
};

}  // namespace hpcsec::cluster
