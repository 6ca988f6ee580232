// Cross-ISA parity sweep: the Figs. 4-6 selfish-detour experiment run on
// both machine-model backends (ARMv8+GIC and RISC-V H-extension+PLIC).
//
// The performance model prices privilege transitions and nested walks the
// same way on both ISAs (the paper's costs are transition counts, not
// ISA-specific microarchitecture), so detour counts and lost time should
// match across backends for every scheduler configuration. The report
// records both sides plus the deltas so CI can watch parity drift.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arch/isa.h"
#include "bench_args.h"
#include "core/harness.h"
#include "obs/report.h"

int main(int argc, char** argv) {
    using namespace hpcsec;
    const int jobs = benchargs::parse_jobs(argc, argv);
    const double seconds = argc > 1 ? std::atof(argv[1]) : 60.0;
    const std::uint64_t seed = 20211114;

    struct ConfigDef {
        const char* tag;
        core::SchedulerKind kind;
    };
    const ConfigDef configs[] = {
        {"native", core::SchedulerKind::kNativeKitten},
        {"kitten", core::SchedulerKind::kKittenPrimary},
        {"linux", core::SchedulerKind::kLinuxPrimary},
    };
    const arch::Isa isas[] = {arch::Isa::kArm, arch::Isa::kRiscv};

    // One job per (ISA, config) cell, fanned out together; a cell's node
    // is private, so cross-ISA runs can share the fan-out.
    std::vector<core::SelfishJob> runs;
    for (const arch::Isa isa : isas) {
        for (const auto& cfg : configs) {
            core::NodeConfig base = core::Harness::default_config(cfg.kind, seed);
            base.platform.isa = isa;
            runs.push_back({cfg.kind, seconds, seed, base});
        }
    }

    obs::BenchReport report("isa_parity");
    std::printf("== Cross-ISA selfish-detour parity, %.0f s simulated per cell ==\n\n",
                seconds);
    const auto all = core::run_selfish_experiments(runs, jobs);
    const std::size_t nconfigs = std::size(configs);
    bool parity = true;
    for (std::size_t c = 0; c < nconfigs; ++c) {
        const auto& arm = all[c];
        const auto& riscv = all[nconfigs + c];
        const std::string tag = configs[c].tag;
        for (const auto* side : {&arm, &riscv}) {
            const std::string isa_tag =
                side == &arm ? "arm." + tag : "riscv." + tag;
            report.add(isa_tag + ".detours",
                       static_cast<double>(side->detours_all_cores), 0.0, 1);
            report.add(isa_tag + ".lost_us", side->total_detour_us_all, 0.0, 1);
            report.add(isa_tag + ".max_detour_us", side->max_detour_us, 0.0, 1);
        }
        const double d_detours =
            static_cast<double>(arm.detours_all_cores) -
            static_cast<double>(riscv.detours_all_cores);
        const double d_lost = arm.total_detour_us_all - riscv.total_detour_us_all;
        report.add("delta." + tag + ".detours", d_detours, 0.0, 1);
        report.add("delta." + tag + ".lost_us", d_lost, 0.0, 1);
        if (d_detours != 0.0 || d_lost != 0.0) parity = false;
        std::printf("---- %s ----\n", configs[c].tag);
        std::printf("  arm:   %8llu detours, %10.2f us lost, max %8.2f us\n",
                    static_cast<unsigned long long>(arm.detours_all_cores),
                    arm.total_detour_us_all, arm.max_detour_us);
        std::printf("  riscv: %8llu detours, %10.2f us lost, max %8.2f us\n",
                    static_cast<unsigned long long>(riscv.detours_all_cores),
                    riscv.total_detour_us_all, riscv.max_detour_us);
    }
    std::printf("\ncross-ISA parity: %s\n", parity ? "EXACT" : "DRIFTED");
    report.write_default();
    return 0;
}
