// perfbench: the repository benchmark. Runs one named workload on inputs
// generated from --seed for --seconds of host time, checks its outputs, and
// prints the metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload {fleet_boot|paper_rows|audited_memops}
//             --seed N --seconds S --trace {0|1} [--rev REV]
//
// A run starts with one reference rep whose witness (the deterministic
// outputs) every later rep must reproduce bit for bit. Untraced runs then
// time reps until --seconds elapse and report the end-to-end metrics.
// Because every rep repeats bit-identical work, rep-to-rep variation is
// interference from the host, so host-time metrics come from the least
// disturbed rep (latency percentiles are taken within each rep first).
// Traced runs alternate untraced and
// traced reps and report the per-layer rows; the untraced reps give the
// baseline for trace_overhead_pct. Host times come from
// std::chrono::steady_clock; modeled quantities say so by name.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "crypto/sha256.h"

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string rev = "unknown";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{fleet_boot|paper_rows|audited_memops} --seed N --seconds S "
                 "--trace {0|1} [--rev REV]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0') usage("--seed takes an integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
                usage("--seconds takes a number in (0, 120]");
            }
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                usage("--trace takes 0 or 1");
            }
            a.trace = v[0] == '1';
        } else if (flag == "--rev") {
            a.rev = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || a.seconds <= 0.0) {
        usage("--workload, --seed and --seconds are required");
    }
    return a;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename F>
std::vector<double> per_rep(const std::vector<const Rep*>& reps, F f) {
    std::vector<double> out;
    out.reserve(reps.size());
    for (const Rep* r : reps) out.push_back(f(*r));
    return out;
}

template <typename F>
std::vector<double> pooled(const std::vector<const Rep*>& reps, F f) {
    std::vector<double> out;
    for (const Rep* r : reps) {
        const std::vector<double>& v = f(*r);
        out.insert(out.end(), v.begin(), v.end());
    }
    return out;
}

double count(const Rep& r, const std::string& name) {
    const auto it = r.counts.find(name);
    return it == r.counts.end() ? 0.0 : it->second;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Report {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        metrics_.push_back({name, value, unit});
    }
    void print_table() const {
        for (const Metric& m : metrics_) {
            std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
    }
    [[nodiscard]] std::string json() const {
        std::string out = "{";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric& m = metrics_[i];
            if (i != 0) out += ", ";
            out += quoted(m.name) + ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + quoted(m.unit) + "}";
        }
        return out + "}";
    }

private:
    std::vector<Metric> metrics_;
};

double lowest(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double highest(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Per-rep latency medians, so an untraced run can drop the raw samples
/// after each rep and its memory does not grow with the number of reps.
struct RepSummary {
    double node_ms_p50 = 0.0;
    double hypercall_us_p50 = 0.0;
    std::size_t nodes = 0;
    std::size_t hypercalls = 0;
};

RepSummary summarize(Rep& r) {
    RepSummary s{percentile(r.node_ms, 50.0), percentile(r.hypercall_us, 50.0),
                 r.node_ms.size(), r.hypercall_us.size()};
    std::vector<double>().swap(r.node_ms);  // release the capacity too
    std::vector<double>().swap(r.hypercall_us);
    return s;
}

void end_to_end(Report& out, const std::vector<const Rep*>& reps,
                const std::vector<RepSummary>& summaries, const Rep& reference) {
    out.add("setup_s", lowest(per_rep(reps, [](const Rep& r) { return r.setup_s; })), "s");
    out.add("wall_s", lowest(per_rep(reps, [](const Rep& r) { return r.wall_s; })), "s");
    std::vector<double> node_ms;
    std::vector<double> hypercall_us;
    for (const RepSummary& s : summaries) {
        node_ms.push_back(s.node_ms_p50);
        hypercall_us.push_back(s.hypercall_us_p50);
    }
    out.add("node_ms_p50", lowest(node_ms), "ms");
    out.add("sim_events_per_s",
            highest(per_rep(reps, [](const Rep& r) { return ratio(r.run_events, r.run_s); })),
            "1/s");
    out.add("hypercall_us_p50", lowest(hypercall_us), "us");
    // Heap is measured on one thread: paper_rows has it only in the jobs-1
    // reference rep; the serial workloads have it in every rep.
    std::vector<const Rep*> heap_reps;
    for (const Rep* r : reps) {
        if (!r->node_heap_bytes.empty()) heap_reps.push_back(r);
    }
    if (heap_reps.empty()) heap_reps.push_back(&reference);
    out.add("node_heap_mib",
            median(per_rep(heap_reps,
                           [](const Rep& r) { return mean(r.node_heap_bytes) / (1 << 20); })),
            "MiB");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    std::printf("samples: %zu reps; per rep %zu node lifecycles, %zu hypercalls\n",
                reps.size(), summaries.empty() ? 0 : summaries.front().nodes,
                summaries.empty() ? 0 : summaries.front().hypercalls);
}

void per_layer(Report& out, const std::vector<const Rep*>& traced,
               const std::vector<const Rep*>& untraced, const Rep& reference,
               std::uint64_t attempted, std::uint64_t failed) {
    const auto mean_count = [&](const std::string& name) {
        return mean(per_rep(traced, [&](const Rep& r) { return count(r, name); }));
    };
    const auto per_node = [&](const std::string& name) {
        return mean(per_rep(traced, [&](const Rep& r) {
            return ratio(count(r, name), count(r, "nodes"));
        }));
    };
    const auto p50 = [&](auto field) {
        return percentile(pooled(traced, [&](const Rep& r) -> const auto& { return r.*field; }),
                          50.0);
    };
    out.add("node.boot_ms", p50(&Rep::boot_ms), "ms");
    out.add("node.run_ms", p50(&Rep::run_ms), "ms");
    out.add("node.teardown_ms", p50(&Rep::teardown_ms), "ms");
    out.add("mem.frames_per_boot", per_node("mem.frames_per_boot"), "count");
    out.add("node.boot_ns_per_frame",
            mean(per_rep(traced, [](const Rep& r) {
                return ratio(r.setup_s * 1e9, count(r, "mem.frames_per_boot"));
            })),
            "ns");
    out.add("stage2.mappings", per_node("stage2.mappings"), "count");
    out.add("attest.log_entries", per_node("attest.log_entries"), "count");
    out.add("arena.bytes_per_node", per_node("arena.bytes_per_node"), "B");
    out.add("engine.events", mean_count("engine.events"), "count");
    for (const int p : kPriorities) {
        const std::string name = "engine.events.p" + std::to_string(p);
        out.add(name, mean_count(name), "count");
    }
    out.add("engine.batched_pop_ratio",
            ratio(mean_count("engine.batched_pops"), mean_count("engine.events")), "ratio");
    for (std::size_t i = 0; i < kPriorities.size(); ++i) {
        double ns = 0.0;
        double n = 0.0;
        for (const Rep* r : traced) {
            ns += r->dispatch_ns[i];
            n += r->dispatches[i];
        }
        out.add("engine.dispatch_ns.p" + std::to_string(kPriorities[i]), ratio(ns, n), "ns");
    }
    for (const char* name : {"hf.hypercalls", "hf.world_switches", "hf.vm_exits",
                             "hf.virq_injections"}) {
        out.add(name, mean_count(name), "count");
    }
    const auto total_us = pooled(traced, [](const Rep& r) -> const auto& { return r.hypercall_us; });
    const auto audit_us = pooled(traced, [](const Rep& r) -> const auto& { return r.audit_us; });
    out.add("hf.handler_us", p50(&Rep::handler_us), "us");
    out.add("check.audits", mean_count("check.audits"), "count");
    out.add("check.audit_us", percentile(audit_us, 50.0), "us");
    for (const char* name : {"kitten.ticks", "linux.ticks", "linux.softirqs",
                             "linux.kworker_wakes"}) {
        out.add(name, mean_count(name), "count");
    }
    // Modeled core time (simulated microseconds), not host time.
    for (const char* name : {"cores.work_us", "cores.overhead_us", "cores.transient_us"}) {
        out.add(name, mean_count(name), "us");
    }
    // From the reference rep, the one traced runs make at the workload's jobs.
    const double lifecycle_s =
        std::accumulate(reference.node_ms.begin(), reference.node_ms.end(), 0.0) / 1e3;
    out.add("parallel.efficiency", ratio(lifecycle_s, reference.jobs * reference.wall_s),
            "ratio");
    for (const char* config : {"native", "kitten", "linux"}) {
        out.add(std::string("rows.") + config + ".run_s",
                mean(per_rep(traced,
                             [&](const Rep& r) {
                                 const auto it = r.config_run_s.find(config);
                                 return it == r.config_run_s.end() ? 0.0 : it->second;
                             })),
                "s");
    }
    const double traced_wall = mean(per_rep(traced, [](const Rep& r) { return r.wall_s; }));
    const auto wall = [](const Rep& r) { return r.wall_s; };
    out.add("trace_overhead_pct",
            100.0 * (ratio(lowest(per_rep(traced, wall)), lowest(per_rep(untraced, wall))) - 1.0),
            "%");
    out.add("model_error_pct", count(reference, "model_error_pct"), "%");
    out.add("node_ms_p99",
            percentile(pooled(untraced, [](const Rep& r) -> const auto& { return r.node_ms; }),
                       99.0),
            "ms");
    out.add("hypercall_us_p99",
            percentile(pooled(untraced,
                              [](const Rep& r) -> const auto& { return r.hypercall_us; }),
                       99.0),
            "us");
    out.add("failed_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            "ratio");

    // Self time per layer, averaged over traced reps: the rows add up to
    // traced_wall_s exactly (kBench is the residual).
    double self_sum = 0.0;
    std::array<double, kLayerCount> self{};
    for (int l = 0; l < kLayerCount; ++l) {
        self[l] = mean(per_rep(traced, [l](const Rep& r) { return r.self_s[l]; }));
        self_sum += self[l];
        out.add(std::string("self.") + layer_name(static_cast<Layer>(l)) + "_s", self[l], "s");
    }
    out.add("traced_wall_s", traced_wall, "s");

    // Which layer each workload stresses, in the traced reps.
    const auto sum = [&](auto field) {
        const auto v = pooled(traced, [&](const Rep& r) -> const auto& { return r.*field; });
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    std::printf("self-time check: layers sum to %.6f s, traced wall %.6f s\n", self_sum,
                traced_wall);
    std::printf("layer share: boot + teardown %.1f%% of wall\n",
                100.0 * ratio(self[kBoot] + self[kTeardown], traced_wall));
    std::printf("layer share: run %.1f%% of node lifecycle time\n",
                100.0 * ratio(sum(&Rep::run_ms), sum(&Rep::node_ms)));
    std::printf("layer share: audit p50 %.1f%% of hypercall p50\n",
                100.0 * ratio(percentile(audit_us, 50.0), percentile(total_us, 50.0)));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Args args = parse(argc, argv);

    std::unique_ptr<Workload> workload;
    if (args.workload == "fleet_boot") {
        workload = make_fleet_boot(args.seed);
    } else if (args.workload == "paper_rows") {
        workload = make_paper_rows(args.seed);
    } else if (args.workload == "audited_memops") {
        workload = make_audited_memops(args.seed);
    } else {
        usage(("unknown workload " + args.workload).c_str());
    }

    // Reference rep. Untraced runs make it at jobs 1 so paper_rows proves
    // jobs-1 == jobs-N; traced runs make it at the workload's own jobs.
    const int timed_jobs = args.trace ? 1 : workload->jobs();
    const int reference_jobs = args.trace ? workload->jobs() : 1;
    std::vector<Rep> reps;
    reps.push_back(workload->run_rep(false, reference_jobs));
    const std::string witness = reps.front().witness;

    // Each rep's witness is checked and dropped at once (and, untraced, its
    // latency samples are summarized), so memory does not grow with the
    // number of reps a run fits in; peak_rss_mib depends on that.
    std::vector<RepSummary> summaries;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 4 || seconds(start, Clock::now()) < args.seconds; ++i) {
        const bool traced = args.trace && i % 2 == 1;
        Rep& r = reps.emplace_back(workload->run_rep(traced, timed_jobs));
        if (r.witness != witness) {
            r.fail("rep " + std::to_string(i + 1) + " witness differs from the reference rep");
        }
        std::string().swap(r.witness);
        if (!args.trace) summaries.push_back(summarize(r));
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<const Rep*> untraced;
    std::vector<const Rep*> traced;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep& r = reps[i];
        attempted += r.attempted;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        if (i == 0) continue;
        (r.traced ? traced : untraced).push_back(&r);
    }
    const std::string digest = crypto::to_hex(crypto::Sha256::hash(witness));

    std::printf("workload %s seed %llu: %zu reps after the reference rep\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                reps.size() - 1);
    std::printf("digest %s\n", digest.c_str());
    for (const std::string& e : errors) std::printf("FAILED: %s\n", e.c_str());
    std::printf("failed_ratio %llu/%llu\n", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    Report report;
    if (args.trace) {
        per_layer(report, traced, untraced, reps.front(), attempted, failed);
    } else {
        end_to_end(report, untraced, summaries, reps.front());
    }
    report.print_table();

    std::string argv_json = "[";
    for (int i = 0; i < argc; ++i) argv_json += (i ? ", " : "") + quoted(argv[i]);
    argv_json += "]";
    std::printf(
        "provenance {\"rev\": %s, \"build_type\": %s, \"compiler\": %s, \"nproc\": %u, "
        "\"argv\": %s, \"seed\": %llu, \"digest\": %s}\n",
        quoted(args.rev).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
        quoted(PERFBENCH_COMPILER).c_str(), std::thread::hardware_concurrency(),
        argv_json.c_str(), static_cast<unsigned long long>(args.seed),
        quoted(digest).c_str());

    const bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), report.json().c_str());
    return correct ? 0 : 1;
}
