// Micro-benchmarks (google-benchmark) of the simulator's hot paths and the
// modeled architectural operations: event scheduling, page-table walks,
// stage-2 builds, hypercall dispatch, full boot. These characterize the
// *simulator* cost (host-side), and document the modeled cycle costs of the
// paths the paper discusses (§II.a).
#include <benchmark/benchmark.h>

#include "arch/platform.h"
#include "check/check.h"
#include "core/harness.h"
#include "core/node.h"
#include "gbench_json.h"
#include "hafnium/abi.h"
#include "hafnium/spm.h"
#include "linux_fwk/cfs.h"
#include "obs/recorder.h"
#include "resil/resil.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"

#include <functional>
#include <string>
#include <vector>

namespace {

using namespace hpcsec;

void BM_EventScheduleAndRun(benchmark::State& state) {
    for (auto _ : state) {
        sim::Engine e;
        for (int i = 0; i < 1000; ++i) e.after(static_cast<sim::Cycles>(i + 1), [] {});
        e.run();
        benchmark::DoNotOptimize(e.events_executed());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleAndRun);

// Deterministic timestamp scramble so heap order differs from insert order.
constexpr sim::SimTime scrambled_when(int i) {
    return static_cast<sim::SimTime>((i * 2654435761u) & 0xffff) + 1;
}

// Schedule/drain churn: the pattern the engine's run loop produces. The
// capture is larger than std::function's inline buffer, so a pop that
// copied the callback instead of moving it would allocate per event.
void BM_EventQueueScheduleDrain(benchmark::State& state) {
    std::uint64_t sink = 0;
    std::uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < 1000; ++i) {
            q.schedule(scrambled_when(i), i & 3,
                       [payload, &sink] { sink += payload[0]; });
        }
        while (!q.empty()) q.pop().fn();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleDrain);

// Cancellation-heavy churn: timers that are armed and mostly disarmed before
// firing (watchdogs, preemption timers). Half the scheduled events are
// cancelled, each removed from the heap on the spot.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        std::vector<sim::EventId> ids;
        ids.reserve(1000);
        for (int i = 0; i < 1000; ++i) {
            ids.push_back(q.schedule(scrambled_when(i), 0, [&sink] { ++sink; }));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
        while (!q.empty()) q.pop().fn();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// Tick storm: the periodic-cadence pattern kernels generate — N cores each
// re-arming a fixed-period timer forever, with shared periods so deadlines
// collide. Every re-arm goes through Engine::at: the one-shot heap path.
void BM_EngineTickStorm(benchmark::State& state) {
    const int kCores = static_cast<int>(state.range(0));
    constexpr sim::SimTime kHorizon = 200'000;
    std::uint64_t sink = 0;
    std::int64_t events = 0;
    for (auto _ : state) {
        sim::Engine e;
        std::vector<std::function<void()>> ticks(kCores);
        for (int core = 0; core < kCores; ++core) {
            const sim::Cycles period = 100 + 10 * (core % 3);
            ticks[core] = [&e, &sink, &ticks, core, period] {
                ++sink;
                const sim::SimTime next = e.now() + period;
                if (next > kHorizon) return;
                e.at(next, [&ticks, core] { ticks[core](); }, sim::kPrioInterrupt);
            };
            e.at(100, [&ticks, core] { ticks[core](); }, sim::kPrioInterrupt);
        }
        e.run();
        benchmark::DoNotOptimize(sink);
        events = static_cast<std::int64_t>(e.events_executed());
    }
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineTickStorm)->Arg(8)->Arg(64)->Arg(256);

// Deadline re-arm storm: what a Linux-primary tick does to each core's three
// engine deadlines (docs/PERFORMANCE.md, "Re-armable deadlines"). Every tick
// exits the VCPU, disarming its vtimer and its chunk completion, then
// re-enters it, re-arming both, and re-arms itself. Chunks outlast a tick,
// so most end by preemption. 4 cores is the benchmark node; 28 is the
// thunderx2 preset, where every dispatch scans 84 keys.
void BM_EngineDeadlineRearm(benchmark::State& state) {
    const auto cores = static_cast<std::size_t>(state.range(0));
    constexpr sim::SimTime kHorizon = 400'000;
    constexpr sim::Cycles kTick = 1'000;
    constexpr sim::Cycles kChunk = 1'300;
    constexpr sim::Cycles kVtimer = 7'000;
    std::int64_t events = 0;
    for (auto _ : state) {
        sim::Engine e;
        e.reserve_deadlines(3 * cores);
        std::vector<sim::SimTime> vtimer(cores);
        const auto arm = [&e](sim::DeadlineId d, sim::SimTime when, int priority) {
            if (when <= kHorizon) e.arm(d, when, priority);
        };
        for (std::size_t c = 0; c < cores; ++c) {
            // Ids are registration order: tick 3c, vtimer 3c+1, chunk 3c+2.
            const auto tick = static_cast<sim::DeadlineId>(3 * c);
            const sim::DeadlineId vt = tick + 1;
            const sim::DeadlineId chunk = tick + 2;
            e.add_deadline([&e, &vtimer, arm, c, tick, vt, chunk] {
                e.disarm(vt);
                e.disarm(chunk);
                arm(chunk, e.now() + kChunk, sim::kPrioCompletion);
                arm(vt, vtimer[c], sim::kPrioInterrupt);
                arm(tick, e.now() + kTick, sim::kPrioInterrupt);
            });
            e.add_deadline([&e, &vtimer, arm, c, vt] {
                vtimer[c] = e.now() + kVtimer;
                arm(vt, vtimer[c], sim::kPrioInterrupt);
            });
            e.add_deadline([&e, arm, chunk] {
                arm(chunk, e.now() + kChunk, sim::kPrioCompletion);
            });
            vtimer[c] = kVtimer + 31 * c;
            arm(tick, 100 + 37 * c, sim::kPrioInterrupt);
            arm(vt, vtimer[c], sim::kPrioInterrupt);
            arm(chunk, 100 + 37 * c + kChunk / 2, sim::kPrioCompletion);
        }
        e.run();
        events = static_cast<std::int64_t>(e.events_executed());
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineDeadlineRearm)->Arg(4)->Arg(28);

// CFS requeue: the Linux primary's half of every tick exit. The running
// entity is accounted and put back, and the next pick takes the leftmost.
// A core queues one to four entities: its VCPU proxies and its kworker.
void BM_CfsRequeue(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    linux_fwk::CfsRunqueue rq;
    std::vector<linux_fwk::SchedEntity> entities(n);
    for (std::size_t i = 0; i < n; ++i) {
        entities[i].name = "vcpu" + std::to_string(i);
        entities[i].weight = linux_fwk::kNiceZeroWeight << (i % 2);
        rq.enqueue(entities[i], false);
    }
    const double tick = 4'400'000.0;  // one 250 Hz tick at 1.1 GHz
    for (auto _ : state) {
        linux_fwk::SchedEntity* se = rq.pick_next();
        rq.update_curr(*se, tick);
        rq.put_prev(*se);
        benchmark::DoNotOptimize(se);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CfsRequeue)->DenseRange(1, 4);

// LogHistogram::add, as each chunk close and VM exit observes it. Base 2,
// the registry's shape, reads the bucket off an exponent; base 4 takes the
// log formula.
void BM_LogHistogramAdd(benchmark::State& state) {
    sim::LogHistogram h(1.0, static_cast<double>(state.range(0)), 24);
    sim::Rng rng(7);
    std::vector<double> us(4096);
    for (double& x : us) x = rng.exponential(300.0);
    std::size_t i = 0;
    for (auto _ : state) {
        h.add(us[i]);
        i = (i + 1) % us.size();
        benchmark::DoNotOptimize(h);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramAdd)->Arg(2)->Arg(4);

void BM_PageTableWalk4Level(benchmark::State& state) {
    arch::PageTable pt;
    pt.map(0x10'0000, 0x8000'0000, 64 * arch::kPageSize, arch::kPermRW, false,
           /*force_pages=*/true);
    std::uint64_t addr = 0x10'0000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(addr));
        addr = 0x10'0000 + ((addr + arch::kPageSize) & 0x3ffff);
    }
}
BENCHMARK(BM_PageTableWalk4Level);

void BM_PageTableWalkBlock(benchmark::State& state) {
    arch::PageTable pt;
    pt.map(0, 0x4000'0000, 1ull << 30, arch::kPermRWX);  // 1 GiB block
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(0x1234'5678 & 0x3fff'ffff));
    }
}
BENCHMARK(BM_PageTableWalkBlock);

// The auditor's stage-2 scan shape: a 256 MiB window of 2 MiB blocks, eight
// of them split by a one-page permission change. Reports one callback per
// maximal run.
void BM_PageTableForEachMapping(benchmark::State& state) {
    constexpr std::uint64_t kBlock = 2ull << 20;
    arch::PageTable pt;
    pt.map(0x4000'0000, 0x8000'0000, 256ull << 20, arch::kPermRWX);
    for (std::uint64_t b = 0; b < 8; ++b) {
        pt.protect(0x4000'0000 + (16 * b + 3) * kBlock + 5 * arch::kPageSize,
                   arch::kPageSize, arch::kPermR);
    }
    std::uint64_t callbacks = 0;
    for (auto _ : state) {
        pt.for_each_mapping(
            [&callbacks](const arch::PageTable::MappingView&) { ++callbacks; });
        benchmark::DoNotOptimize(callbacks);
    }
    state.counters["callbacks_per_scan"] =
        static_cast<double>(callbacks) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PageTableForEachMapping);

// One partition's stage-2, built and destroyed: a 512 MiB VM's RAM in 2 MiB
// blocks at IPA 0, with the MMIO windows of all three platform configs
// carved out of it (each carve-out splits its block into a table of pages),
// then freed. Times table allocation, block splits and the teardown walk.
void BM_Stage2Build(benchmark::State& state) {
    std::vector<arch::MmioDevice> devices;
    for (const arch::PlatformConfig& cfg :
         {arch::PlatformConfig::pine_a64(), arch::PlatformConfig::thunderx2(),
          arch::PlatformConfig::qemu_virt()}) {
        devices.insert(devices.end(), cfg.devices.begin(), cfg.devices.end());
    }
    std::uint64_t tables = 0;
    for (auto _ : state) {
        arch::PageTable pt;
        pt.map(0, 0x4000'0000, 512ull << 20, arch::kPermRWX);
        for (const arch::MmioDevice& dev : devices) pt.unmap(dev.base, dev.size);
        tables = pt.node_count();
        benchmark::DoNotOptimize(tables);
    }
    state.counters["tables"] = static_cast<double>(tables);
}
BENCHMARK(BM_Stage2Build);

struct SpmBench {
    arch::Platform platform{arch::PlatformConfig::pine_a64()};
    hafnium::Spm spm;

    SpmBench() : spm(platform, make_manifest()) { spm.boot(); }

    static hafnium::Manifest make_manifest() {
        hafnium::Manifest m;
        hafnium::VmSpec p;
        p.name = "primary";
        p.role = hafnium::VmRole::kPrimary;
        p.mem_bytes = 64ull << 20;
        p.vcpu_count = 4;
        hafnium::VmSpec s;
        s.name = "compute";
        s.role = hafnium::VmRole::kSecondary;
        s.mem_bytes = 64ull << 20;
        s.vcpu_count = 4;
        m.vms = {p, s};
        return m;
    }
};

void BM_HypercallDispatchInfo(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
}
BENCHMARK(BM_HypercallDispatchInfo);

void BM_GuestFunctionalWrite(benchmark::State& state) {
    SpmBench b;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        b.spm.vm_write64(2, addr, addr);
        addr = (addr + 8) & 0xfffff;
    }
}
BENCHMARK(BM_GuestFunctionalWrite);

// Invariant-auditor overhead on the hypercall path (ISSUE acceptance:
// audit-off must cost one predicted branch per hook site — the obs recorder
// discipline). Off = no auditor attached; sampled amortizes a full scan
// over the period; strict runs every scan rule on every hypercall.
void BM_HypercallAuditOff(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallAuditOff);

void BM_HypercallAuditSampled(benchmark::State& state) {
    SpmBench b;
    check::Auditor auditor(
        b.spm, {check::Mode::kSampled, /*period=*/64, /*event_period=*/0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_HypercallAuditSampled);

void BM_HypercallAuditStrict(benchmark::State& state) {
    SpmBench b;
    check::Auditor auditor(b.spm, {check::Mode::kStrict});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_HypercallAuditStrict);

// Strict audit after FF-A traffic has split the compute VM's 2 MiB blocks:
// three lends still live, two donations, and three lends already reclaimed,
// whose blocks are whole again.
void BM_HypercallAuditStrictSplit(benchmark::State& state) {
    SpmBench b;
    constexpr arch::VmId kPrimary = 1;
    constexpr arch::VmId kCompute = 2;
    constexpr std::uint64_t kBlock = 2ull << 20;
    constexpr arch::IpaAddr kHole = 0x80'0000'0000ull;  // above every RAM window
    bool ok = true;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const arch::IpaAddr own = (4 * i + 1) * kBlock + 3 * arch::kPageSize;
        const arch::IpaAddr window = kHole + i * kBlock;
        if (i >= 3 && i < 5) {
            ok &= hf::mem_donate(b.spm, 0, kCompute, kPrimary, own, 1, window).ok();
            continue;
        }
        ok &= hf::mem_lend(b.spm, 0, kCompute, kPrimary, own, 1 + i % 2, window).ok();
        if (i >= 5) ok &= hf::mem_reclaim(b.spm, 0, kCompute, kPrimary, own).ok();
    }
    if (!ok) {
        state.SkipWithError("FF-A setup failed");
        return;
    }
    check::Auditor auditor(b.spm, {check::Mode::kStrict});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_HypercallAuditStrictSplit);

// The miss path beside the two all-hit paths above: each iteration lends one
// compute page to the primary and reclaims it, two audited calls that each
// change both VMs' tables, so each audit refreshes the runs of both.
void BM_HypercallAuditStrictChurn(benchmark::State& state) {
    SpmBench b;
    constexpr arch::VmId kPrimary = 1;
    constexpr arch::VmId kCompute = 2;
    constexpr arch::IpaAddr kOwn = 5 * arch::kPageSize;
    constexpr arch::IpaAddr kWindow = 0x80'0000'0000ull;  // above every RAM window
    check::Auditor auditor(b.spm, {check::Mode::kStrict});
    bool ok = true;
    for (auto _ : state) {
        ok &= hf::mem_lend(b.spm, 0, kCompute, kPrimary, kOwn, 1, kWindow).ok();
        ok &= hf::mem_reclaim(b.spm, 0, kCompute, kPrimary, kOwn).ok();
    }
    if (!ok) state.SkipWithError("FF-A lend or reclaim failed");
    state.SetItemsProcessed(2 * state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_HypercallAuditStrictChurn);

// The structured recorder must cost one predicted branch per call site when
// its category is masked off (ISSUE acceptance: instrumentation is free in
// ordinary runs). Compare against the enabled path, which appends an Event.
void BM_RecorderDisabled(benchmark::State& state) {
    obs::SpanRecorder rec;  // mask defaults to 0: everything filtered
    sim::SimTime t = 0;
    for (auto _ : state) {
        rec.instant(++t, obs::EventType::kVmExit, 0, 1, 2, 3);
        benchmark::DoNotOptimize(rec.events().size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderDisabled);

void BM_RecorderEnabled(benchmark::State& state) {
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kAll));
    sim::SimTime t = 0;
    for (auto _ : state) {
        rec.instant(++t, obs::EventType::kVmExit, 0, 1, 2, 3);
        benchmark::DoNotOptimize(rec.events().size());
        if (rec.events().size() >= (1u << 20)) {
            state.PauseTiming();
            rec.clear();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderEnabled);

// Heartbeat-watchdog overhead on the hypercall path (ISSUE acceptance:
// detection is event-driven, so an armed watchdog must leave the hypercall
// hot path within noise of the audit-off baseline — nothing resil-related
// executes per call, only per scan tick and per guest timer tick).
void BM_HypercallWatchdogOff(benchmark::State& state) {
    core::Node node(
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 7));
    node.boot();
    for (auto _ : state) {
        benchmark::DoNotOptimize(node.spm()->hypercall(
            0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallWatchdogOff);

void BM_HypercallWatchdogArmed(benchmark::State& state) {
    core::Node node(
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 7));
    node.boot();
    resil::Supervisor sup(node);
    sup.supervise(node.compute_vm()->id());
    sup.start();
    for (auto _ : state) {
        benchmark::DoNotOptimize(node.spm()->hypercall(
            0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallWatchdogArmed);

void BM_SpmFullBoot(benchmark::State& state) {
    for (auto _ : state) {
        arch::Platform platform(arch::PlatformConfig::pine_a64());
        hafnium::Spm spm(platform, SpmBench::make_manifest());
        spm.boot();
        benchmark::DoNotOptimize(spm.vm_count());
    }
}
BENCHMARK(BM_SpmFullBoot);

}  // namespace

int main(int argc, char** argv) {
    return hpcsec::benchutil::run_and_report("micro_paths", argc, argv);
}
