// Integrity-tag overhead micro-benchmarks (google-benchmark).
//
// ISSUE acceptance: with no frame tagged, every translate / guest-memory
// path must sit at its pre-tag floor — the whole feature behind one
// predicted branch (`MemoryMap::has_integrity_tags`). These benches pin
// that floor next to the armed-but-clean cost (tags exist, target frame is
// not tagged: one binary search of the tag runs) and the violation cost
// (tagged frame hit: fault construction, stats, event record), host-side,
// alongside BENCH_micro_paths' untouched baselines.
#include <benchmark/benchmark.h>

#include "arch/mmu.h"
#include "arch/platform.h"
#include "check/corrupt.h"
#include "gbench_json.h"
#include "hafnium/spm.h"

namespace {

using namespace hpcsec;

// --- MMU translate paths -----------------------------------------------------

struct MmuBench {
    arch::MemoryMap mem;
    arch::PageTable s1;
    arch::Mmu mmu{mem};

    MmuBench() {
        mem.add_region({"ram", 0x4000'0000, 1ull << 30, arch::RegionKind::kRam,
                        arch::World::kNonSecure});
        s1.map(0, 0x4000'0000, 1ull << 20, arch::kPermRW);
        // A guest VMID: the hypervisor itself (kHypervisorId) is exempt from
        // tag checks and would measure the floor even with tags armed.
        mmu.set_context(&s1, nullptr, /*vmid=*/1, /*asid=*/1,
                        arch::World::kNonSecure);
        (void)mmu.translate(0, arch::Access::kRead);
    }
};

// Floor: not a single tagged frame in the map — the tags-off hot path.
void BM_TranslateTagsOff(benchmark::State& state) {
    MmuBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.mmu.translate(0x40, arch::Access::kRead));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslateTagsOff);

// Armed but clean: tags exist elsewhere, the accessed frame is untagged.
// Adds one binary search of the tag runs to the L0-hit path.
void BM_TranslateTagsArmedClean(benchmark::State& state) {
    MmuBench b;
    b.mem.set_integrity_tag(0x4000'0000 + (512ull << 12), 1, true);
    (void)b.mmu.translate(0, arch::Access::kRead);  // refill after shootdown
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.mmu.translate(0x40, arch::Access::kRead));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslateTagsArmedClean);

// Violation: every translate resolves onto a tagged frame and faults.
void BM_TranslateTagViolation(benchmark::State& state) {
    MmuBench b;
    b.mem.set_integrity_tag(0x4000'0000, 1, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.mmu.translate(0x40, arch::Access::kRead));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslateTagViolation);

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
