// Observability off-mode parity bench (ISSUE 6 acceptance): the cycle
// profiler and flight recorder ride the same hot paths PR 1's recorder
// does, so their *disabled* cost must stay within noise of the
// recorder-off baseline. Rows pair each path off/on: the hypercall gate
// with no observation vs the profiling interceptor attached, the recorder
// instant with the flight rings disarmed vs armed, and the raw profiler
// charge hook both ways. Written to BENCH_obs_overhead.json (schema
// checked by the tools/sca rule `bench-report-schema`) so regressions in
// the one-predicted-branch discipline show up in the perf trajectory, not
// in code review.
#include <benchmark/benchmark.h>

#include "arch/platform.h"
#include "gbench_json.h"
#include "hafnium/intercept.h"
#include "hafnium/spm.h"
#include "obs/flight.h"
#include "obs/profiler.h"
#include "obs/recorder.h"

namespace {

using namespace hpcsec;
using hafnium::Call;

struct SpmBench {
    arch::Platform platform;
    hafnium::Spm spm;

    explicit SpmBench(bool profile = false)
        : platform(make_config(profile)), spm(platform, make_manifest()) {
        spm.boot();
    }

    static arch::PlatformConfig make_config(bool profile) {
        arch::PlatformConfig c = arch::PlatformConfig::pine_a64();
        c.profile = profile;
        return c;
    }

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

// PR 1's recorder-off baseline shape: bare gate, empty interceptor chain,
// recorder mask 0, profiler disabled, flight disarmed. Every observability
// hook added since is compiled in — this row measures their off-mode sum.
void BM_HypercallRecorderOff(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallRecorderOff);

// Profiler armed + ProfilingInterceptor attached: the opt-in cost.
void BM_HypercallProfileOn(benchmark::State& state) {
    SpmBench b(/*profile=*/true);
    hafnium::ProfilingInterceptor profiling(b.platform);
    b.spm.attach_interceptor(&profiling);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallProfileOn);

// Recorder instant with everything off: must stay one predicted branch
// (the (mask_ | flight_mask_) combined gate).
void BM_RecorderInstantOff(benchmark::State& state) {
    obs::SpanRecorder rec;
    sim::SimTime t = 0;
    for (auto _ : state) {
        rec.instant(++t, obs::EventType::kHypercall, 0, 1, 2);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderInstantOff);

// Same instant with the flight rings armed: O(1) ring overwrite per event,
// retained set still empty (mask 0).
void BM_RecorderInstantFlightOn(benchmark::State& state) {
    obs::SpanRecorder rec;
    obs::FlightRecorder flight;
    flight.arm(/*ncores=*/4, /*depth=*/256);
    rec.set_flight(&flight);
    sim::SimTime t = 0;
    for (auto _ : state) {
        rec.instant(++t, obs::EventType::kHypercall, 0, 1, 2);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["recorded"] = static_cast<double>(flight.total_recorded());
}
BENCHMARK(BM_RecorderInstantFlightOn);

// The raw profiler charge hook, disabled: one predicted branch.
void BM_ProfilerChargeOff(benchmark::State& state) {
    obs::CycleProfiler prof;
    for (auto _ : state) {
        prof.charge(0, obs::ProfPath::kWorldSwitch, 2600);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerChargeOff);

void BM_ProfilerChargeOn(benchmark::State& state) {
    obs::CycleProfiler prof;
    prof.enable(/*ncores=*/4);
    for (auto _ : state) {
        prof.charge(0, obs::ProfPath::kWorldSwitch, 2600);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerChargeOn);

}  // namespace

int main(int argc, char** argv) {
    return hpcsec::benchutil::run_and_report("obs_overhead", argc, argv);
}
