// Machine assembly: everything below the software stack.
//
// A Platform owns the simulation engine, physical memory, the interrupt
// controller (GIC or PLIC, per the configured ISA), cores (timer + executor
// each), and the monitor — the pieces a real SoC provides. Presets
// mirror the hardware the paper used: the Pine A64-LTS evaluation board and
// the QEMU virt profile Kitten also supports; any preset can be re-based
// onto the RISC-V backend by setting PlatformConfig::isa.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/core.h"
#include "arch/irq_controller.h"
#include "arch/isa.h"
#include "arch/memory_map.h"
#include "arch/monitor.h"
#include "arch/perfmodel.h"
#include "arch/uart.h"
#include "obs/obs.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/rng.h"

namespace hpcsec::arch {

struct MmioDevice {
    std::string name;
    PhysAddr base;
    std::uint64_t size;
    int spi = -1;  ///< external interrupt number (>= kExternalBase), -1 if none
};

struct PlatformConfig {
    std::string name = "pine-a64-lts";
    /// Instruction-set backend. Device interrupt numbers are ISA-invariant
    /// (the id ranges in irq_controller.h are shared), so the same preset
    /// works on either backend.
    Isa isa = Isa::kArm;
    int ncores = 4;
    std::uint64_t clock_hz = 1'100'000'000;  // Cortex-A53 @ 1.1 GHz
    PhysAddr ram_base = 0x4000'0000;
    std::uint64_t ram_bytes = 2ull << 30;  // 2 GiB
    std::uint64_t secure_ram_bytes = 0;    ///< carved from the top of RAM
    std::vector<MmioDevice> devices;
    PerfModel perf;
    /// Structured-recorder category mask (obs::Category bits); 0 = off.
    std::uint32_t obs_mask = 0;
    /// Arm the cycle-attribution profiler: the engine dispatch probe, every
    /// Executor charge and chunk close, and the hypercall counts all feed
    /// obs::CycleProfiler. Off (default) every hook is one predicted branch.
    bool profile = false;
    /// Always-on flight recorder: last N events per core ring-buffered for
    /// post-mortem dumps. 0 (default) = disarmed.
    std::size_t flight_depth = 0;
    /// Flight dump file prefix; "" keeps dump snapshots in memory only.
    std::string flight_dump_prefix;
    /// External arena for the platform's long-lived objects (cores, VMs,
    /// VCPUs, grants). nullptr (default) = the platform owns a private one.
    /// An external arena must outlive the Platform and be reset() only
    /// after the Platform is destroyed — reuse across trials turns teardown
    /// into one rewind and keeps the warmed chunks.
    sim::Arena* arena = nullptr;

    static PlatformConfig pine_a64();
    static PlatformConfig qemu_virt();
    static PlatformConfig thunderx2();  ///< Astra-class node (paper §VII target)
};

class Platform {
public:
    explicit Platform(PlatformConfig config, std::uint64_t seed = 42);

    Platform(const Platform&) = delete;
    Platform& operator=(const Platform&) = delete;

    [[nodiscard]] const PlatformConfig& config() const { return config_; }

    sim::Engine& engine() { return engine_; }
    sim::Rng& rng() { return rng_; }
    /// Arena backing the platform's long-lived objects (cores, and the
    /// SPM's VMs/VCPUs/grants above this layer).
    sim::Arena& arena() { return *arena_; }
    obs::Obs& obs() { return obs_; }
    obs::MetricsRegistry& metrics() { return obs_.metrics; }
    obs::SpanRecorder& recorder() { return obs_.recorder; }
    obs::CycleProfiler& profiler() { return obs_.profiler; }
    obs::FlightRecorder& flight() { return obs_.flight; }
    MemoryMap& mem() { return mem_; }
    IrqController& irqc() { return *irqc_; }
    SecureMonitor& monitor() { return *monitor_; }
    const PerfModel& perf() const { return config_.perf; }
    /// The per-ISA operations table (privilege names, timer line ids,
    /// translation formats) for this platform's configured backend.
    [[nodiscard]] const IsaOps& isa_ops() const { return *ops_; }

    [[nodiscard]] int ncores() const { return config_.ncores; }
    Core& core(CoreId id) {
        if (id < 0 || id >= config_.ncores) {
            // sca-suppress(no-throw-guest-path): core ids on guest paths
            // are physical dispatch ids from the engine, never guest
            // registers; a bad id is host wiring, same as vector::at was.
            throw std::out_of_range("Platform::core: bad core id");
        }
        return cores_[id];
    }

    /// Console UART (attached to the first uart-named device), if any.
    [[nodiscard]] Uart* uart() { return uart_.get(); }

    /// Aggregate busy/overhead accounting across cores.
    [[nodiscard]] CoreUsage total_usage() const;

    /// Push derived metrics (engine events by priority, per-bucket core
    /// cycle totals) into the registry. Call before taking a snapshot.
    void publish_metrics();

private:
    PlatformConfig config_;
    sim::Engine engine_;
    sim::Rng rng_;
    obs::Obs obs_;
    MemoryMap mem_;
    // Own arena declared before everything holding arena-backed objects:
    // its destructor runs the registered Core destructors last.
    sim::Arena own_arena_;
    sim::Arena* arena_ = nullptr;
    const IsaOps* ops_ = nullptr;
    std::unique_ptr<IrqController> irqc_;
    Core* cores_ = nullptr;  ///< contiguous array of config_.ncores, arena-owned
    std::unique_ptr<SecureMonitor> monitor_;
    std::unique_ptr<Uart> uart_;
};

}  // namespace hpcsec::arch
