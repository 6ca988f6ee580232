// Dispatch-overhead micro-bench for the typed hypercall ABI: table-driven
// dispatch, the typed hf:: wrapper path, the interceptor chain off/on, and
// the unknown-call reject path. Written to BENCH_hypercall_abi.json so the
// perf trajectory keeps the costs measured, not asserted. The table gate
// costs a few ns per call (docs/PERFORMANCE.md, "Hypercall dispatch").
#include <benchmark/benchmark.h>

#include "arch/platform.h"
#include "check/check.h"
#include "gbench_json.h"
#include "hafnium/abi.h"
#include "hafnium/intercept.h"
#include "hafnium/spm.h"
#include "obs/metrics.h"

namespace {

using namespace hpcsec;
using hafnium::Call;

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

// The full gate: stats, empty-chain branch, table index, privilege mask,
// typed decode, handler (BM_HypercallDispatchInfo in micro_paths is the
// other longitudinal anchor).
void BM_DispatchTable(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchTable);

void BM_DispatchTypedWrapper(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hf::vm_get_info(b.spm, 0, 1, 2));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchTypedWrapper);

// Malformed guest input: unknown call number stops at the gate.
void BM_DispatchUnknownCall(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, static_cast<Call>(0x2a), {}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchUnknownCall);

void BM_DispatchInterceptorsTelemetryMasked(benchmark::State& state) {
    SpmBench b;
    hafnium::TelemetryInterceptor telemetry(b.platform);  // mask 0: filtered
    b.spm.attach_interceptor(&telemetry);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchInterceptorsTelemetryMasked);

void BM_DispatchInterceptorsFullChain(benchmark::State& state) {
    SpmBench b;
    hafnium::TelemetryInterceptor telemetry(b.platform);
    hafnium::CallMetricsInterceptor metrics(b.platform.metrics());
    check::Auditor auditor(
        b.spm, {check::Mode::kSampled, /*period=*/64, /*event_period=*/0});
    hafnium::HypercallLog log;
    log.start_record();
    b.spm.attach_interceptor(&telemetry);
    b.spm.attach_interceptor(&metrics);
    b.spm.attach_interceptor(&log);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, Call::kVmGetInfo, {2, 0, 0, 0}));
        if (log.tape().size() >= (1u << 20)) {
            state.PauseTiming();
            log.start_record();  // cap the tape so memory stays bounded
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_DispatchInterceptorsFullChain);

}  // namespace

int main(int argc, char** argv) {
    return hpcsec::benchutil::run_and_report("hypercall_abi", argc, argv);
}
