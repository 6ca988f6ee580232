// fleet_boot: serial node lifecycles — construct + boot, a short LU job,
// teardown — reusing one arena, as bench/fleet_scaling does. About 99% of
// the host time is boot and teardown (memory map, stage-2 tables, SHA-256
// measurement, arena) while the engine is nearly idle, so this is the
// workload a boot-path change (extent-based frame ownership, say) moves.
//
// Node shapes come from the seed. Each shape axis is stratified, then
// shuffled: compute VM sizes cover 64-512 MiB in equal strata, VCPU counts
// cycle 1-4, and exactly a quarter of the nodes host the login VM. The
// total work is therefore nearly the same for every seed while the order
// and the exact sizes change, which keeps seed-to-seed spread small.
#include <cstdio>
#include <optional>
#include <utility>

#include "bench.h"
#include "core/harness.h"
#include "crypto/sha256.h"
#include "sim/arena.h"
#include "sim/rng.h"
#include "workloads/nas.h"

namespace perfbench {
namespace {

constexpr int kNodes = 32;
constexpr std::uint64_t kMinMiB = 64;
constexpr std::uint64_t kMaxMiB = 512;

struct Shape {
    std::uint64_t compute_mib = 0;
    int vcpus = 0;
    bool login = false;
    std::uint64_t seed = 0;
};

template <typename T>
void shuffle(std::vector<T>& v, sim::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[rng.next_below(i)]);
    }
}

std::vector<Shape> make_shapes(std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<std::uint64_t> mib(kNodes);
    std::vector<int> vcpus(kNodes);
    std::vector<int> login(kNodes);
    for (int i = 0; i < kNodes; ++i) {
        const double stratum = (static_cast<double>(i) + rng.next_double()) / kNodes;
        mib[i] = kMinMiB + static_cast<std::uint64_t>(
                               stratum * static_cast<double>(kMaxMiB - kMinMiB));
        vcpus[i] = 1 + i % 4;
        login[i] = i < kNodes / 4;
    }
    shuffle(mib, rng);
    shuffle(vcpus, rng);
    shuffle(login, rng);
    std::vector<Shape> shapes(kNodes);
    for (int i = 0; i < kNodes; ++i) {
        shapes[i] = {mib[i], vcpus[i], login[i] != 0, rng.next_u64()};
    }
    return shapes;
}

class FleetBoot final : public Workload {
public:
    explicit FleetBoot(std::uint64_t seed) : shapes_(make_shapes(seed)) {}

    Rep run_rep(bool traced, int /*jobs*/) override {
        Rep rep;
        rep.traced = traced;
        Ledger ledger;
        Ledger* lg = traced ? &ledger : nullptr;
        const Clock::time_point rep_start = Clock::now();
        if (lg) lg->enter(kBench);
        for (std::size_t i = 0; i < shapes_.size(); ++i) {
            ++rep.attempted;
            try {
                run_node(i, rep, lg);
            } catch (const std::exception& e) {
                rep.fail("node " + std::to_string(i) + ": " + e.what());
                arena_.reset();
            }
        }
        if (lg) {
            lg->leave();
            rep.self_s = ledger.self_s();
        }
        rep.wall_s = seconds(rep_start, Clock::now());
        return rep;
    }

private:
    void run_node(std::size_t i, Rep& rep, Ledger* lg) {
        const Shape& shape = shapes_[i];
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kKittenPrimary, shape.seed);
        cfg.platform.arena = &arena_;
        cfg.compute_mem_bytes = shape.compute_mib << 20;
        cfg.compute_vcpus = shape.vcpus;
        cfg.with_super_secondary = shape.login;
        wl::WorkloadSpec spec = wl::nas_lu_spec(shape.vcpus);
        spec.supersteps = 64;

        heap::reset_peak();
        const std::int64_t heap_base = heap::live_bytes();

        const Clock::time_point t0 = Clock::now();
        if (lg) lg->enter(kBoot);
        std::optional<core::Node> node;
        node.emplace(std::move(cfg));
        node->boot();
        if (lg) lg->leave();
        const Clock::time_point t1 = Clock::now();
        count_boot(*node, rep);

        double events_before = 0.0;
        double run_s = 0.0;
        std::uint64_t finish = 0;
        {
            HypercallTimer hc(*node->spm(), lg);
            std::optional<DispatchClock> dc;
            if (lg) dc.emplace(node->platform().engine());
            events_before = static_cast<double>(
                node->platform().engine().events_executed());
            wl::ParallelWorkload work(spec);
            const Clock::time_point r0 = Clock::now();
            if (lg) lg->enter(kRun);
            (void)node->run_workload(work);
            if (lg) lg->leave();
            run_s = seconds(r0, Clock::now());
            if (dc) dc->close(rep);
            finish = work.finish_time();
            rep.hypercall_us.insert(rep.hypercall_us.end(), hc.total_us.begin(),
                                    hc.total_us.end());
            rep.handler_us.insert(rep.handler_us.end(), hc.handler_us.begin(),
                                  hc.handler_us.end());
            rep.audit_us.insert(rep.audit_us.end(), hc.audit_us.begin(),
                                hc.audit_us.end());
        }
        const double heap_peak =
            static_cast<double>(heap::peak_bytes() - heap_base);
        const double events =
            static_cast<double>(node->platform().engine().events_executed());
        rep.run_events += events - events_before;
        count_run(*node, rep);
        if (!node->attestation().replay_matches()) {
            rep.fail("node " + std::to_string(i) + ": attestation log replay mismatch");
        }
        const std::string acc = crypto::to_hex(node->attestation().accumulator());
        const std::size_t log_entries = node->attestation().log().size();
        const std::size_t frames = node->platform().mem().allocated_frames();

        const Clock::time_point t2 = Clock::now();
        if (lg) lg->enter(kTeardown);
        node.reset();
        const std::size_t arena_bytes = arena_.bytes_used();
        arena_.reset();
        if (lg) lg->leave();
        const Clock::time_point t3 = Clock::now();

        const double boot_s = seconds(t0, t1);
        const double teardown_s = seconds(t2, t3);
        rep.setup_s += boot_s;
        rep.run_s += run_s;
        rep.config_run_s["kitten"] += run_s;
        rep.boot_ms.push_back(boot_s * 1e3);
        rep.run_ms.push_back(run_s * 1e3);
        rep.teardown_ms.push_back(teardown_s * 1e3);
        rep.node_ms.push_back((boot_s + run_s + teardown_s) * 1e3);
        rep.node_heap_bytes.push_back(heap_peak + static_cast<double>(arena_bytes));
        rep.counts["arena.bytes_per_node"] += static_cast<double>(arena_bytes);

        char line[256];
        std::snprintf(line, sizeof line,
                      "node=%zu events=%.0f finish=%llu arena=%zu frames=%zu "
                      "log=%zu acc=%s\n",
                      i, events, static_cast<unsigned long long>(finish),
                      arena_bytes, frames, log_entries, acc.c_str());
        rep.witness += line;
    }

    std::vector<Shape> shapes_;
    sim::Arena arena_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_boot(std::uint64_t seed) {
    return std::make_unique<FleetBoot>(seed);
}

}  // namespace perfbench
