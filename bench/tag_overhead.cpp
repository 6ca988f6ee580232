// Integrity-tag overhead micro-benchmarks (google-benchmark).
//
// The tag check is the last step of the SPM's stage-2 access check
// (`Spm::stage2_access`), the one path every guest access goes through.
// With no frame tagged it costs one predicted branch
// (`MemoryMap::integrity_tagged` on an empty tag-run vector). These benches
// pin that floor next to the armed-but-clean cost (tags exist, target frame
// is not tagged: one binary search of the tag runs) and the violation cost
// (tagged frame hit: stats, event record, denial), host-side, alongside
// BENCH_micro_paths' untouched baselines.
#include <benchmark/benchmark.h>

#include "arch/platform.h"
#include "check/corrupt.h"
#include "gbench_json.h"
#include "hafnium/spm.h"

namespace {

using namespace hpcsec;

// --- SPM guest-memory paths --------------------------------------------------

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

// Floor: critical state unprotected (the default); must match
// BENCH_micro_paths' BM_GuestFunctionalWrite.
void BM_GuestWriteTagsOff(benchmark::State& state) {
    SpmBench b;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        b.spm.vm_write64(2, addr, addr);
        addr = (addr + 8) & 0xfffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestWriteTagsOff);

// Armed but clean: critical state protected, guest writes its own RAM.
void BM_GuestWriteTagsArmed(benchmark::State& state) {
    SpmBench b;
    b.spm.protect_critical_state();
    std::uint64_t addr = 0;
    for (auto _ : state) {
        b.spm.vm_write64(2, addr, addr);
        addr = (addr + 8) & 0xfffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestWriteTagsArmed);

// Violation: every write lands on a tagged frame through a rogue stage-2
// window — the full detect cost (stats, event record, denial).
void BM_GuestWriteViolation(benchmark::State& state) {
    SpmBench b;
    b.spm.protect_critical_state();
    const auto* region = b.spm.find_critical("manifest");
    const arch::IpaAddr window =
        check::CorruptionAccess::map_rogue_window(b.spm, 2, region->base);
    for (auto _ : state) {
        b.spm.vm_write64(2, window, 0xdeadbeef);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["violations"] =
        static_cast<double>(b.spm.stats().tag_violations);
}
BENCHMARK(BM_GuestWriteViolation);

}  // namespace

int main(int argc, char** argv) {
    return hpcsec::benchutil::run_and_report("tag_overhead", argc, argv);
}
