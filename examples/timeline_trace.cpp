// Timeline trace: *see* the scheduler noise.
//
// Records the executors' work-chunk and overhead spans, runs the spinner
// under the Kitten and Linux schedulers, and renders an execution strip:
//   '#' workload cycles   'o' kernel/hypervisor overhead
//   't' TLB-refill transients   '.' idle
// Kitten shows solid workload bars; Linux shows the 250 Hz tick picket
// fence plus kworker slabs — Figs. 5 and 6 in ASCII.
#include <cstdio>

#include "core/harness.h"
#include "core/node.h"
#include "obs/timeline.h"
#include "workloads/selfish.h"

namespace {

using namespace hpcsec;

void run_one(core::SchedulerKind kind, double window_ms) {
    core::NodeConfig cfg = core::Harness::default_config(kind, 7777);
    cfg.platform.obs_mask = obs::to_mask(obs::Category::kWorkload);
    core::Node node(cfg);
    node.boot();
    auto& recorder = node.platform().recorder();
    wl::SelfishBenchmark selfish(4, node.platform().engine().clock());
    // Warm up past boot transients, then capture the window.
    node.run_selfish(selfish, 0.5);
    const sim::SimTime from = node.platform().engine().now();
    recorder.clear();
    node.run_for(window_ms * 1e-3);
    const sim::SimTime to = node.platform().engine().now();
    // Flush the still-running chunks so their spans reach the recorder
    // (reprice is a zero-cost preempt+resume).
    for (int c = 0; c < node.platform().ncores(); ++c) {
        node.platform().core(c).exec().reprice();
    }

    const auto& events = recorder.events();
    std::printf("---- %s (%.0f ms window) ----\n", core::to_string(kind).c_str(),
                window_ms);
    std::printf("%s",
                obs::render_timeline(events, from, to, node.platform().ncores(), 110)
                    .c_str());
    const auto& clk = node.platform().engine().clock();
    std::printf("  work %.2f ms  overhead %.3f ms  transients %.3f ms\n\n",
                clk.to_millis(obs::timeline_total(events, 'W', -1, from, to)),
                clk.to_millis(obs::timeline_total(events, 'O', -1, from, to)),
                clk.to_millis(obs::timeline_total(events, 'T', -1, from, to)));
}

}  // namespace

int main(int argc, char** argv) {
    const double window_ms = argc > 1 ? std::atof(argv[1]) : 8.0;
    std::printf("execution timeline: '#' workload  'o' kernel/hyp  't' tlb refill  "
                "'.' idle\n\n");
    run_one(core::SchedulerKind::kNativeKitten, window_ms);
    run_one(core::SchedulerKind::kKittenPrimary, window_ms);
    run_one(core::SchedulerKind::kLinuxPrimary, window_ms);
    return 0;
}
