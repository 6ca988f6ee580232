// Ablation: IRQ routing policy (paper §III.b). The shipped design forwards
// every device IRQ through the primary VM; the future-work design routes
// device SPIs directly to the super-secondary. This bench drives a device
// interrupt storm and compares primary-side overhead and compute-VM noise.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_args.h"
#include "core/harness.h"
#include "core/node.h"
#include "core/parallel.h"
#include "obs/report.h"
#include "workloads/selfish.h"

namespace {

using namespace hpcsec;

struct Result {
    std::uint64_t delivered = 0;
    std::uint64_t primary_forwards = 0;
    std::uint64_t spm_forwards = 0;
    double compute_lost_us = 0.0;
    double primary_overhead_ms = 0.0;
};

Result run(hafnium::IrqRoutingPolicy policy, double irq_rate_hz, double seconds) {
    core::NodeConfig cfg =
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 4242);
    cfg.with_super_secondary = true;
    cfg.routing = policy;
    core::Node node(cfg);
    node.boot();

    // Device interrupt storm on the emac SPI (114), like a NIC under load.
    auto& engine = node.platform().engine();
    const auto period = engine.clock().period_of_hz(irq_rate_hz);
    std::function<void()> storm = [&] {
        node.platform().irqc().raise_external(114);
        engine.after(period, storm);
    };
    engine.after(period, storm);

    wl::SelfishBenchmark selfish(4, engine.clock());
    node.run_selfish(selfish, seconds);

    Result r;
    // Handler invocations in the login VM; pending SPIs coalesce while the
    // login VCPU waits for its time slice, like a real vGIC list register.
    r.delivered = node.login_guest()->stats().device_irqs;
    r.primary_forwards = node.kitten()->stats().forwarded_irqs;
    r.spm_forwards = node.spm()->stats().forwarded_device_irqs;
    for (int t = 0; t < 4; ++t) r.compute_lost_us += selfish.recorder(t).total_detour_us();
    r.primary_overhead_ms =
        engine.clock().to_millis(node.platform().total_usage().overhead);
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const int jobs = hpcsec::benchargs::parse_jobs(argc, argv);
    std::printf("== Ablation: device-IRQ routing policy (paper SIII.b) ==\n");
    std::printf("(10 s simulated, IRQ storm on the NIC SPI, login VM on core 0)\n\n");
    std::printf("%-10s %-12s %10s %10s %10s %14s %16s\n", "policy", "irq[Hz]",
                "handled", "fwd(prim)", "fwd(spm)", "lost[us]", "ovh[ms,all]");
    obs::BenchReport report("abl_irq_routing");
    struct Combo {
        hafnium::IrqRoutingPolicy policy;
        double rate;
    };
    std::vector<Combo> combos;
    for (const double rate : {100.0, 1000.0, 5000.0}) {
        for (const auto policy : {hafnium::IrqRoutingPolicy::kAllToPrimary,
                                  hafnium::IrqRoutingPolicy::kSelective}) {
            combos.push_back({policy, rate});
        }
    }
    // Every combo builds a private Node inside run(), so the storm runs fan
    // across threads; the table prints after the join, in sweep order.
    std::vector<Result> results(combos.size());
    core::parallel_for(jobs, combos.size(), [&](std::size_t i) {
        results[i] = run(combos[i].policy, combos[i].rate, 10.0);
    });
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const Result& r = results[i];
        const char* name =
            combos[i].policy == hafnium::IrqRoutingPolicy::kAllToPrimary
                ? "forward"
                : "selective";
        std::printf("%-10s %-12.0f %10llu %10llu %10llu %14.1f %16.2f\n", name,
                    combos[i].rate, static_cast<unsigned long long>(r.delivered),
                    static_cast<unsigned long long>(r.primary_forwards),
                    static_cast<unsigned long long>(r.spm_forwards),
                    r.compute_lost_us, r.primary_overhead_ms);
        const std::string tag = std::string(name) + "." +
                                std::to_string(static_cast<int>(combos[i].rate));
        report.add(tag + ".lost_us", r.compute_lost_us, 0.0, 1);
        report.add(tag + ".overhead_ms", r.primary_overhead_ms, 0.0, 1);
    }
    report.write_default();
    std::printf(
        "\nTakeaway: forwarding through the primary burns primary-VM cycles and\n"
        "adds compute-VM detours per device IRQ; selective routing (the paper's\n"
        "future work) removes the primary from the path entirely.\n");
    return 0;
}
