// hpcsec_cli — run any paper workload on any node configuration from the
// command line.
//
//   hpcsec_cli [--workload hpcg|stream|gups|lu|bt|cg|ep|sp|selfish]
//              [--config native|kitten|linux] [--trials N] [--seed S]
//              [--isa arm|riscv]        (machine-model backend: ARMv8+GIC or
//                                        RISC-V H-extension+PLIC; default arm)
//              [--jobs N]               (worker threads for trial fan-out;
//                                        default = hardware threads, 1 =
//                                        legacy serial path; outputs are
//                                        bit-identical for every N)
//              [--seconds S]            (selfish duration)
//              [--super-secondary] [--secure] [--selective-routing]
//              [--tick-hz HZ]           (primary tick rate override)
//              [--trace-out FILE]       (Perfetto/Chrome trace JSON; runs all
//                                        three configs, one trial each)
//              [--metrics-out FILE]     (aggregated metrics JSON, all configs)
//              [--trace-mask CATS]      (comma list: irq,sched,hyp,vm,
//                                        workload,boot,channel,check,resil,all
//                                        — or a raw bitmask like 0x305)
//              [--profile[=FILE]]       (cycle-attribution profiler: prints a
//                                        perf-top table; FILE gets collapsed
//                                        stacks for flamegraph.pl/speedscope)
//              [--flight-depth N]       (always-on flight recorder: last N
//                                        events per core, auto-dumped on
//                                        check violations/watchdog actions)
//              [--obs-window N]         (close a windowed metrics-aggregate
//                                        snapshot every N trials)
//              [--check[=strict|sampled]]  (isolation-invariant auditor;
//                                        bare --check means strict)
//              [--check-period N]       (sampled mode: scan every N hypercalls)
//              [--call-metrics]         (per-hypercall counters: hf.call.*,
//                                        hf.call_err.* in --metrics-out)
//              [--chaos[=RATE]]         (seed-deterministic fault injection at
//                                        RATE faults/s of sim time; default 10)
//              [--restart-policy[=N]]   (heartbeat watchdog + restart engine on
//                                        the compute VM; N = restart budget)
//              [--adversary[=SHAPE]]    (memory-integrity attack suite: arms
//                                        HDFI-style tags + containment, then
//                                        runs an attacker partition; SHAPE is
//                                        heartbleed (default), vtable or srop)
//
// Examples:
//   hpcsec_cli --workload gups --config linux --trials 5
//   hpcsec_cli --workload selfish --config kitten --seconds 30
//   hpcsec_cli --workload lu --config kitten --secure
//   hpcsec_cli --workload hpcg --trace-out trace.json --metrics-out metrics.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "arch/isa.h"
#include "check/check.h"
#include "core/harness.h"
#include "core/parallel.h"
#include "hafnium/hypercall.h"
#include "obs/events.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "resil/chaos.h"
#include "resil/contain.h"
#include "resil/resil.h"
#include "workloads/attack.h"
#include "workloads/hpcg.h"
#include "workloads/nas.h"
#include "workloads/randomaccess.h"
#include "workloads/stream.h"

namespace {

using namespace hpcsec;

struct CliOptions {
    std::string workload = "hpcg";
    std::string config = "kitten";
    arch::Isa isa = arch::Isa::kArm;
    int trials = 3;
    int jobs = 0;  // 0 = one worker per hardware thread
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool super_secondary = false;
    bool secure = false;
    bool selective = false;
    double tick_hz = 0.0;  // 0 = default
    std::string trace_out;
    std::string metrics_out;
    std::string trace_mask = "irq,sched,hyp,vm,workload";
    check::Mode check_mode = check::Mode::kOff;
    int check_period = 64;
    bool call_metrics = false;
    double chaos_rate_hz = 0.0;  // 0 = off
    bool restart_policy = false;
    int restart_budget = 3;
    bool adversary = false;
    wl::AttackKind adversary_kind = wl::AttackKind::kHeartbleed;
    bool profile = false;
    std::string profile_out;       // collapsed-stack file ("" = print only)
    std::size_t flight_depth = 0;  // 0 = flight recorder disarmed
    int obs_window = 0;            // 0 = totals only
};

void usage() {
    std::fprintf(stderr,
                 "usage: hpcsec_cli [--workload hpcg|stream|gups|lu|bt|cg|ep|sp|"
                 "selfish]\n                  [--config native|kitten|linux] "
                 "[--isa arm|riscv]\n                  "
                 "[--trials N] [--jobs N] [--seed S]\n                  [--seconds S] "
                 "[--super-secondary] [--secure]\n                  "
                 "[--selective-routing] [--tick-hz HZ]\n                  "
                 "[--trace-out FILE] [--metrics-out FILE] [--trace-mask CATS]\n"
                 "                  [--check[=strict|sampled]] "
                 "[--check-period N]\n                  [--call-metrics] "
                 "[--chaos[=RATE]] [--restart-policy[=N]]\n"
                 "                  [--adversary[=heartbleed|vtable|srop]]\n"
                 "                  [--profile[=FILE]] [--flight-depth N] "
                 "[--obs-window N]\n");
}

bool parse(int argc, char** argv, CliOptions& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--workload") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.workload = v;
        } else if (arg == "--config") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.config = v;
        } else if (arg == "--isa") {
            const char* v = next();
            if (v == nullptr) return false;
            std::string error;
            if (!arch::parse_isa(v, opt.isa, error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return false;
            }
        } else if (arg == "--trials") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.trials = std::atoi(v);
        } else if (arg == "--jobs") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.jobs = std::atoi(v);
            if (opt.jobs < 0) return false;
        } else if (arg == "--seed") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.seconds = std::atof(v);
        } else if (arg == "--tick-hz") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.tick_hz = std::atof(v);
        } else if (arg == "--trace-out") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.trace_out = v;
        } else if (arg == "--metrics-out") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.metrics_out = v;
        } else if (arg == "--trace-mask") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.trace_mask = v;
        } else if (arg == "--check" || arg == "--check=strict") {
            opt.check_mode = check::Mode::kStrict;
        } else if (arg == "--check=sampled") {
            opt.check_mode = check::Mode::kSampled;
        } else if (arg == "--check=off") {
            opt.check_mode = check::Mode::kOff;
        } else if (arg == "--check-period") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.check_period = std::atoi(v);
        } else if (arg == "--call-metrics") {
            opt.call_metrics = true;
        } else if (arg == "--chaos") {
            opt.chaos_rate_hz = 10.0;
        } else if (arg.rfind("--chaos=", 0) == 0) {
            const char* tok = arg.c_str() + 8;
            char* end = nullptr;
            opt.chaos_rate_hz = std::strtod(tok, &end);
            if (end == tok || *end != '\0' || opt.chaos_rate_hz <= 0.0) {
                std::fprintf(stderr,
                             "bad --chaos rate '%s' (valid: a positive "
                             "faults/s value like --chaos=10, or bare "
                             "--chaos for the default of 10)\n",
                             tok);
                return false;
            }
        } else if (arg == "--restart-policy") {
            opt.restart_policy = true;
        } else if (arg.rfind("--restart-policy=", 0) == 0) {
            const char* tok = arg.c_str() + 17;
            char* end = nullptr;
            const long budget = std::strtol(tok, &end, 10);
            if (end == tok || *end != '\0' || budget <= 0) {
                std::fprintf(stderr,
                             "bad --restart-policy budget '%s' (valid: a "
                             "positive restart count like "
                             "--restart-policy=3, or bare --restart-policy "
                             "for the default of 3)\n",
                             tok);
                return false;
            }
            opt.restart_policy = true;
            opt.restart_budget = static_cast<int>(budget);
        } else if (arg == "--adversary") {
            opt.adversary = true;
        } else if (arg.rfind("--adversary=", 0) == 0) {
            opt.adversary = true;
            std::string error;
            if (!wl::parse_attack_kind(arg.substr(12), opt.adversary_kind,
                                       error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return false;
            }
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg.rfind("--profile=", 0) == 0) {
            opt.profile = true;
            opt.profile_out = arg.substr(10);
            if (opt.profile_out.empty()) return false;
        } else if (arg == "--flight-depth") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.flight_depth = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
            if (opt.flight_depth == 0) return false;
        } else if (arg == "--obs-window") {
            const char* v = next();
            if (v == nullptr) return false;
            opt.obs_window = std::atoi(v);
            if (opt.obs_window <= 0) return false;
        } else if (arg == "--super-secondary") {
            opt.super_secondary = true;
        } else if (arg == "--secure") {
            opt.secure = true;
        } else if (arg == "--selective-routing") {
            opt.selective = true;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

bool pick_workload(const std::string& name, wl::WorkloadSpec& out) {
    if (name == "hpcg") out = wl::hpcg_spec();
    else if (name == "stream") out = wl::stream_spec();
    else if (name == "gups" || name == "randomaccess") out = wl::randomaccess_spec();
    else if (name == "lu") out = wl::nas_lu_spec();
    else if (name == "bt") out = wl::nas_bt_spec();
    else if (name == "cg") out = wl::nas_cg_spec();
    else if (name == "ep") out = wl::nas_ep_spec();
    else if (name == "sp") out = wl::nas_sp_spec();
    else return false;
    return true;
}

bool pick_config(const std::string& name, core::SchedulerKind& out) {
    if (name == "native") out = core::SchedulerKind::kNativeKitten;
    else if (name == "kitten") out = core::SchedulerKind::kKittenPrimary;
    else if (name == "linux") out = core::SchedulerKind::kLinuxPrimary;
    else return false;
    return true;
}

constexpr const char* kConfigNames[3] = {"native", "kitten", "linux"};

// --- profiler / flight harvesting -------------------------------------------

/// Cross-trial profiler totals plus flight-recorder dump bookkeeping,
/// folded in from each trial node via post_trial (nodes die per trial).
struct ObsHarvest {
    obs::CycleProfiler prof;
    std::uint64_t flight_dumps = 0;
    std::string last_dump_path;
    std::size_t last_dump_trial = 0;

    /// `trial` numbers the node, so the reported last dump is that of the
    /// highest-numbered trial that dumped, in whatever order trials finish.
    void collect(core::Node& node, std::size_t trial) {
        if (node.platform().config().profile) {
            prof.merge(node.platform().profiler());
        }
        if (node.platform().flight().armed()) {
            const auto& fi = node.platform().flight().info();
            flight_dumps += fi.dumps;
            if (!fi.last_path.empty() && trial >= last_dump_trial) {
                last_dump_path = fi.last_path;
                last_dump_trial = trial;
            }
        }
    }
};

int report_obs(const CliOptions& opt, ObsHarvest& harvest,
               std::uint64_t clock_hz) {
    if (opt.profile) {
        harvest.prof.set_call_namer([](unsigned n) {
            return hafnium::to_string(static_cast<hafnium::Call>(n));
        });
        std::printf("%s", harvest.prof.perf_top(sim::ClockSpec{clock_hz}).c_str());
        if (!opt.profile_out.empty()) {
            std::ofstream f(opt.profile_out);
            if (!f) {
                std::fprintf(stderr, "failed to write %s\n",
                             opt.profile_out.c_str());
                return 1;
            }
            harvest.prof.write_collapsed(f);
            std::printf("collapsed stacks written to %s\n",
                        opt.profile_out.c_str());
        }
    }
    if (opt.flight_depth > 0) {
        std::printf("flight: %llu dump%s%s%s\n",
                    static_cast<unsigned long long>(harvest.flight_dumps),
                    harvest.flight_dumps == 1 ? "" : "s",
                    harvest.last_dump_path.empty() ? "" : ", last: ",
                    harvest.last_dump_path.c_str());
    }
    return 0;
}

/// Per-path profiler counter tracks for one trial node's Perfetto process.
std::vector<obs::TraceExporter::CounterTrack> profiler_tracks(
    const obs::CycleProfiler& prof) {
    std::vector<obs::TraceExporter::CounterTrack> tracks(obs::kProfPathCount);
    for (std::size_t p = 0; p < obs::kProfPathCount; ++p) {
        tracks[p].name =
            std::string("prof.") + obs::to_string(static_cast<obs::ProfPath>(p));
    }
    for (const auto& s : prof.samples()) {
        for (std::size_t p = 0; p < obs::kProfPathCount; ++p) {
            tracks[p].samples.emplace_back(s.when,
                                           static_cast<double>(s.cycles[p]));
        }
    }
    return tracks;
}

// --- resilience rigging ------------------------------------------------------

struct ResilTotals {
    resil::Supervisor::Stats sup;
    resil::ChaosInjector::Stats chaos;
    resil::ContainmentEngine::Stats contain;
    wl::AdversaryWorkload::Stats attack;
    std::uint64_t attacks_run = 0;
    std::uint64_t attacks_defeated = 0;
};

/// Per-trial attachment: a watchdog/restart supervisor and/or a chaos
/// injector riding on the trial node. The destructor (which Harness runs
/// before the node dies) folds the trial's stats into the shared totals.
struct ResilRig {
    std::unique_ptr<resil::Supervisor> sup;
    std::unique_ptr<resil::ChaosInjector> chaos;
    std::unique_ptr<resil::ContainmentEngine> contain;
    std::unique_ptr<wl::AdversaryWorkload> adversary;
    ResilTotals* totals = nullptr;
    ~ResilRig() {
        if (adversary) {
            adversary->stop();
            const auto& a = adversary->stats();
            totals->attack.attempts += a.attempts;
            totals->attack.denied += a.denied;
            totals->attack.leaked_words += a.leaked_words;
            totals->attack.corrupted_words += a.corrupted_words;
            ++totals->attacks_run;
            if (adversary->defeated()) ++totals->attacks_defeated;
        }
        if (contain) {
            contain->disarm();
            const auto& c = contain->stats();
            totals->contain.violations += c.violations;
            totals->contain.dumps += c.dumps;
            totals->contain.quarantines += c.quarantines;
            totals->contain.reverified += c.reverified;
            totals->contain.embargoes += c.embargoes;
        }
        if (sup) {
            sup->stop();
            const auto& s = sup->stats();
            totals->sup.scans += s.scans;
            totals->sup.heartbeats += s.heartbeats;
            totals->sup.crashes += s.crashes;
            totals->sup.hangs += s.hangs;
            totals->sup.restarts += s.restarts;
            totals->sup.restart_failures += s.restart_failures;
            totals->sup.quarantines += s.quarantines;
        }
        if (chaos) {
            chaos->stop();
            const auto& c = chaos->stats();
            totals->chaos.injections += c.injections;
            totals->chaos.vcpu_kills += c.vcpu_kills;
            totals->chaos.vcpu_wedges += c.vcpu_wedges;
            totals->chaos.frames_dropped += c.frames_dropped;
            totals->chaos.frames_garbled += c.frames_garbled;
            totals->chaos.spurious_virqs += c.spurious_virqs;
            totals->chaos.no_target += c.no_target;
        }
    }
};

std::function<std::shared_ptr<void>(core::SchedulerKind, std::uint64_t,
                                    core::Node&)>
make_pre_trial(const CliOptions& opt, ResilTotals& totals) {
    if (opt.chaos_rate_hz <= 0.0 && !opt.restart_policy && !opt.adversary) {
        return nullptr;
    }
    return [&opt, &totals](core::SchedulerKind, std::uint64_t,
                           core::Node& node) -> std::shared_ptr<void> {
        auto rig = std::make_shared<ResilRig>();
        rig->totals = &totals;
        // The adversary axis: an attacker partition (a secondary with no
        // guest personality — the exploit drives SPM access paths directly)
        // plus the detect → contain → recover pipeline around it. Native
        // config has no SPM and hence no trust boundary to attack.
        if (opt.adversary && node.spm() != nullptr) {
            hafnium::VmSpec aspec;
            aspec.name = "attacker";
            aspec.role = hafnium::VmRole::kSecondary;
            aspec.mem_bytes = 4ull << 20;
            aspec.vcpu_count = 1;
            aspec.image = core::Node::make_image("attacker");
            const arch::VmId attacker = node.spm()->create_vm(aspec);
            rig->contain = std::make_unique<resil::ContainmentEngine>(node);
            rig->contain->arm();
            wl::AttackConfig ac;
            ac.kind = opt.adversary_kind;
            rig->adversary = std::make_unique<wl::AdversaryWorkload>(
                *node.spm(), attacker, ac);
            rig->adversary->start();
        }
        // The native baseline has no hypervisor, hence nothing to supervise;
        // the chaos injector still runs there (and counts no_target draws).
        if (opt.restart_policy && node.spm() != nullptr &&
            node.compute_vm() != nullptr) {
            resil::PolicyConfig pc;
            pc.restart_budget = opt.restart_budget;
            rig->sup = std::make_unique<resil::Supervisor>(node, pc);
            rig->sup->supervise(node.compute_vm()->id());
            rig->sup->start();
        }
        if (opt.chaos_rate_hz > 0.0) {
            resil::ChaosConfig cc;
            cc.rate_hz = opt.chaos_rate_hz;
            rig->chaos = std::make_unique<resil::ChaosInjector>(node, cc);
            rig->chaos->start();
        }
        return rig;
    };
}

void print_resil_totals(const CliOptions& opt, const ResilTotals& totals) {
    if (opt.restart_policy) {
        std::printf(
            "resil: %llu crashes, %llu hangs, %llu restarts "
            "(%llu failed), %llu quarantines\n",
            static_cast<unsigned long long>(totals.sup.crashes),
            static_cast<unsigned long long>(totals.sup.hangs),
            static_cast<unsigned long long>(totals.sup.restarts),
            static_cast<unsigned long long>(totals.sup.restart_failures),
            static_cast<unsigned long long>(totals.sup.quarantines));
    }
    if (opt.chaos_rate_hz > 0.0) {
        std::printf(
            "chaos: %llu faults (%llu kills, %llu wedges, %llu drops, "
            "%llu garbles, %llu spurious virqs, %llu no-target)\n",
            static_cast<unsigned long long>(totals.chaos.injections),
            static_cast<unsigned long long>(totals.chaos.vcpu_kills),
            static_cast<unsigned long long>(totals.chaos.vcpu_wedges),
            static_cast<unsigned long long>(totals.chaos.frames_dropped),
            static_cast<unsigned long long>(totals.chaos.frames_garbled),
            static_cast<unsigned long long>(totals.chaos.spurious_virqs),
            static_cast<unsigned long long>(totals.chaos.no_target));
    }
    if (opt.adversary) {
        std::printf(
            "adversary (%s): %llu attack%s, %llu defeated — %llu attempts, "
            "%llu denied, %llu leaked, %llu corrupted\n",
            wl::to_string(opt.adversary_kind),
            static_cast<unsigned long long>(totals.attacks_run),
            totals.attacks_run == 1 ? "" : "s",
            static_cast<unsigned long long>(totals.attacks_defeated),
            static_cast<unsigned long long>(totals.attack.attempts),
            static_cast<unsigned long long>(totals.attack.denied),
            static_cast<unsigned long long>(totals.attack.leaked_words),
            static_cast<unsigned long long>(totals.attack.corrupted_words));
        std::printf(
            "contain: %llu violations, %llu dumps, %llu quarantines, "
            "%llu reverified, %llu embargoes\n",
            static_cast<unsigned long long>(totals.contain.violations),
            static_cast<unsigned long long>(totals.contain.dumps),
            static_cast<unsigned long long>(totals.contain.quarantines),
            static_cast<unsigned long long>(totals.contain.reverified),
            static_cast<unsigned long long>(totals.contain.embargoes));
    }
}

/// Observability run: all three scheduler configs, one trial each, with the
/// structured recorder enabled. Writes a multi-process Perfetto trace
/// and/or an aggregated metrics JSON.
int run_observed(const CliOptions& opt, const wl::WorkloadSpec* spec,
                 const std::function<core::NodeConfig(core::SchedulerKind,
                                                      std::uint64_t)>& factory,
                 std::uint32_t mask) {
    const core::NodeConfig probe = factory(core::SchedulerKind::kKittenPrimary,
                                           opt.seed);
    obs::TraceExporter exporter(sim::ClockSpec{probe.platform.clock_hz});
    core::ExperimentRow row;
    ResilTotals totals;
    ObsHarvest harvest;
    if (opt.obs_window > 0) {
        for (auto& agg : row.metrics) {
            agg.set_window(static_cast<std::size_t>(opt.obs_window));
        }
    }

    for (std::size_t c = 0; c < core::kAllConfigs.size(); ++c) {
        const core::SchedulerKind kind = core::kAllConfigs[c];
        if (spec != nullptr) {
            core::Harness::Options hopt;
            hopt.trials = 1;
            hopt.jobs = 1;  // exporter processes must append in config order
            hopt.base_seed = opt.seed;
            hopt.config_factory = factory;
            hopt.obs_mask = mask;
            hopt.pre_trial = make_pre_trial(opt, totals);
            hopt.post_trial = [&](core::SchedulerKind, std::uint64_t,
                                  core::Node& node) {
                exporter.add_process(static_cast<int>(c), kConfigNames[c],
                                     node.platform().ncores(),
                                     node.platform().recorder().events());
                if (node.platform().config().profile) {
                    exporter.add_counter_tracks(
                        static_cast<int>(c),
                        profiler_tracks(node.platform().profiler()));
                }
                harvest.collect(node, c);
            };
            core::Harness harness(hopt);
            const auto r = harness.run_trial(kind, *spec, opt.seed);
            row.workload = spec->name;
            row.metric = spec->metric;
            row.cells[c] = {r.score, 0.0, 1};
            row.metrics[c].add(r.metrics);
            std::printf("%s on %s: %.6g %s (%.3f s simulated)\n",
                        spec->name.c_str(), kConfigNames[c], r.score,
                        spec->metric.c_str(), r.seconds);
        } else {
            core::NodeConfig cfg = factory(kind, opt.seed);
            cfg.platform.obs_mask |= mask;
            const auto series =
                core::run_selfish_experiment(kind, opt.seconds, opt.seed, &cfg);
            exporter.add_process(static_cast<int>(c), kConfigNames[c],
                                 series.ncores, series.events);
            row.workload = "selfish";
            row.metric = "detours";
            row.cells[c] = {static_cast<double>(series.detours_all_cores), 0.0, 1};
            row.metrics[c].add(series.metrics);
            std::printf("selfish on %s: %llu detours, %.3g us lost\n",
                        kConfigNames[c],
                        static_cast<unsigned long long>(series.detours_all_cores),
                        series.total_detour_us_all);
        }
    }

    if (!opt.trace_out.empty()) {
        if (!exporter.write_file(opt.trace_out)) {
            std::fprintf(stderr, "failed to write %s\n", opt.trace_out.c_str());
            return 1;
        }
        std::printf("trace written to %s\n", opt.trace_out.c_str());
    }
    if (!opt.metrics_out.empty()) {
        std::ofstream f(opt.metrics_out);
        if (!f) {
            std::fprintf(stderr, "failed to write %s\n", opt.metrics_out.c_str());
            return 1;
        }
        f << core::Harness::format_metrics_json({row});
        std::printf("metrics written to %s\n", opt.metrics_out.c_str());
    }
    print_resil_totals(opt, totals);
    return report_obs(opt, harvest, probe.platform.clock_hz);
}

int run(int argc, char** argv) {
    CliOptions opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 2;
    }
    core::SchedulerKind kind{};
    if (!pick_config(opt.config, kind)) {
        usage();
        return 2;
    }

    auto factory = [&opt](core::SchedulerKind k, std::uint64_t seed) {
        core::NodeConfig cfg = core::Harness::default_config(k, seed);
        cfg.platform.isa = opt.isa;
        cfg.with_super_secondary = opt.super_secondary;
        cfg.secure_compute_vm = opt.secure;
        if (opt.selective) cfg.routing = hafnium::IrqRoutingPolicy::kSelective;
        if (opt.tick_hz > 0.0) {
            cfg.kitten.tick_hz = opt.tick_hz;
            cfg.linux.tick_hz = opt.tick_hz;
        }
        cfg.check_mode = opt.check_mode;
        cfg.check_period = opt.check_period;
        cfg.call_metrics = opt.call_metrics;
        cfg.protect_critical = opt.adversary;
        cfg.platform.profile = opt.profile;
        cfg.platform.flight_depth = opt.flight_depth;
        // One prefix per trial node: no trial overwrites another's dumps.
        if (opt.flight_depth > 0) {
            cfg.platform.flight_dump_prefix = std::string("flight-") +
                                              kConfigNames[static_cast<int>(k)] + "-" +
                                              std::to_string(seed);
        }
        return cfg;
    };

    // Checked on every run, not only where a trace or metrics file uses it.
    std::uint32_t mask = 0;
    std::string mask_error;
    if (!obs::parse_category_list(opt.trace_mask, mask, mask_error)) {
        std::fprintf(stderr, "%s\n", mask_error.c_str());
        usage();
        return 2;
    }

    const bool observed = !opt.trace_out.empty() || !opt.metrics_out.empty();
    if (observed) {
        if (opt.workload == "selfish") return run_observed(opt, nullptr, factory, mask);
        wl::WorkloadSpec spec;
        if (!pick_workload(opt.workload, spec)) {
            usage();
            return 2;
        }
        return run_observed(opt, &spec, factory, mask);
    }

    if (opt.workload == "selfish") {
        const core::NodeConfig cfg = factory(kind, opt.seed);
        const auto series =
            core::run_selfish_experiment(kind, opt.seconds, opt.seed, &cfg);
        std::printf("%s\n", core::format_selfish(series).c_str());
        return 0;
    }

    wl::WorkloadSpec spec;
    if (!pick_workload(opt.workload, spec)) {
        usage();
        return 2;
    }

    core::Harness::Options hopt;
    hopt.trials = opt.trials;
    hopt.jobs = opt.jobs;  // 0 = one worker per hardware thread
    hopt.base_seed = opt.seed;
    hopt.config_factory = factory;
    hopt.obs_window = opt.obs_window;
    ResilTotals totals;
    hopt.pre_trial = make_pre_trial(opt, totals);
    std::vector<std::uint64_t> seeds;
    seeds.reserve(static_cast<std::size_t>(opt.trials));
    for (int t = 0; t < opt.trials; ++t) {
        seeds.push_back(opt.seed + 7919ull * static_cast<std::uint64_t>(t));
    }
    ObsHarvest harvest;
    if (opt.profile || opt.flight_depth > 0) {
        // post_trial runs serialized under the harness callback mutex, in
        // completion order: the profiler sums do not depend on it, and the
        // harvest orders dumps by trial number.
        hopt.post_trial = [&harvest, &seeds](core::SchedulerKind, std::uint64_t seed,
                                             core::Node& node) {
            const auto trial = static_cast<std::size_t>(
                std::find(seeds.begin(), seeds.end(), seed) - seeds.begin());
            harvest.collect(node, trial);
        };
    }
    core::Harness harness(hopt);
    const auto results = harness.run_trials(kind, spec, seeds);

    sim::RunningStats stats;
    sim::RunningStats runtime;
    std::size_t check_failures = 0;
    for (int t = 0; t < opt.trials; ++t) {
        const auto& r = results[static_cast<std::size_t>(t)];
        stats.add(r.score);
        runtime.add(r.seconds);
        if (r.check_failures != 0) {
            check_failures += r.check_failures;
            std::fprintf(stderr, "trial %d check findings:\n%s", t,
                         r.check_report.c_str());
        }
    }
    std::printf("%s on %s (%d trial%s%s%s%s): %.6g %s (stdev %.3g), "
                "%.3f s simulated each\n",
                spec.name.c_str(), opt.config.c_str(), opt.trials,
                opt.trials == 1 ? "" : "s",
                opt.secure ? ", secure world" : "",
                opt.super_secondary ? ", login VM" : "",
                opt.selective ? ", selective routing" : "", stats.mean(),
                spec.metric.c_str(), stats.stddev(), runtime.mean());
    print_resil_totals(opt, totals);
    const int obs_rc =
        report_obs(opt, harvest, factory(kind, opt.seed).platform.clock_hz);
    if (opt.check_mode != check::Mode::kOff) {
        std::printf("check (%s): %zu finding%s\n", to_string(opt.check_mode),
                    check_failures, check_failures == 1 ? "" : "s");
        if (check_failures != 0) return 1;
    }
    return obs_rc;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hpcsec_cli: error: %s\n", e.what());
        return 1;
    }
}
