#include "arch/platform.h"

#include <span>

namespace hpcsec::arch {

namespace {

// Per-board device tables as static data: board presets are constructed per
// trial (10k times in a fleet sweep), so the literals live in .rodata and
// the ctor does one reserved copy instead of growth reallocations.
struct DevSpec {
    const char* name;
    PhysAddr base;
    std::uint64_t size;
    int spi;
};

// Allwinner A64 peripherals (subset).
constexpr DevSpec kPineA64Devices[] = {
    {"uart0", 0x01C2'8000, 0x1000, 32},
    {"emac", 0x01C3'0000, 0x10000, 114},
    {"mmc0", 0x01C0'F000, 0x1000, 92},
};

constexpr DevSpec kThunderX2Devices[] = {
    {"uart0", 0x0200'0000, 0x1000, 33},
    {"mlx5", 0x0300'0000, 0x10000, 64},
};

// QEMU packs virtio-mmio transports at 0x200 strides; the model rounds
// each window to a page so stage-2 device mappings stay page-granular.
constexpr DevSpec kQemuVirtDevices[] = {
    {"pl011", 0x0900'0000, 0x1000, 33},
    {"virtio-net", 0x0A00'0000, 0x1000, 48},
    {"virtio-blk", 0x0A00'1000, 0x1000, 49},
};

void append_devices(std::vector<MmioDevice>& out,
                    std::span<const DevSpec> specs) {
    out.reserve(out.size() + specs.size());
    for (const DevSpec& s : specs) {
        out.push_back({s.name, s.base, s.size, s.spi});
    }
}

}  // namespace

PlatformConfig PlatformConfig::pine_a64() {
    PlatformConfig c;
    c.name = "pine-a64-lts";
    c.ncores = 4;
    c.clock_hz = 1'100'000'000;
    c.ram_base = 0x4000'0000;
    c.ram_bytes = 2ull << 30;
    c.secure_ram_bytes = 0;
    append_devices(c.devices, kPineA64Devices);
    return c;
}

PlatformConfig PlatformConfig::thunderx2() {
    // One socket of the Astra-class node the paper names as its next target
    // (§VII). 28 cores @2.0 GHz; generous DRAM. Walk costs are a little
    // lower than the A53's (bigger walk caches).
    PlatformConfig c;
    c.name = "thunderx2";
    c.ncores = 28;
    c.clock_hz = 2'000'000'000;
    c.ram_base = 0x80'0000'0000ull >> 8;  // 0x8000'0000
    c.ram_bytes = 32ull << 30;
    append_devices(c.devices, kThunderX2Devices);
    c.perf.stage1_walk = 25;
    c.perf.nested_walk = 120;
    return c;
}

PlatformConfig PlatformConfig::qemu_virt() {
    PlatformConfig c;
    c.name = "qemu-virt";
    c.ncores = 4;
    c.clock_hz = 1'000'000'000;
    c.ram_base = 0x4000'0000;
    c.ram_bytes = 4ull << 30;
    append_devices(c.devices, kQemuVirtDevices);
    return c;
}

Platform::Platform(PlatformConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      engine_(sim::ClockSpec{config_.clock_hz}),
      rng_(seed),
      arena_(config_.arena != nullptr ? config_.arena : &own_arena_) {
    if (config_.secure_ram_bytes >= config_.ram_bytes) {
        throw std::invalid_argument("Platform: secure carve-out exceeds RAM");
    }
    const std::uint64_t ns_bytes = config_.ram_bytes - config_.secure_ram_bytes;
    mem_.add_region({"dram-ns", config_.ram_base, ns_bytes, RegionKind::kRam,
                     World::kNonSecure});
    if (config_.secure_ram_bytes > 0) {
        mem_.add_region({"dram-secure", config_.ram_base + ns_bytes,
                         config_.secure_ram_bytes, RegionKind::kRam, World::kSecure});
    }
    for (const auto& d : config_.devices) {
        mem_.add_region({d.name, d.base, d.size, RegionKind::kMmio, World::kNonSecure});
    }

    ops_ = &IsaOps::get(config_.isa);
    irqc_ = ops_->make_irq_controller(config_.ncores);
    obs_.recorder.set_mask(config_.obs_mask);
    if (config_.profile) {
        obs_.profiler.enable(config_.ncores);
        engine_.set_dispatch_probe(&obs_.profiler);
    }
    if (config_.flight_depth > 0) {
        obs_.flight.arm(config_.ncores, config_.flight_depth);
        obs_.flight.set_dump_sink(engine_.clock(), config_.flight_dump_prefix);
        obs_.recorder.set_flight(&obs_.flight);
    }
    const auto chunk_hist = obs_.metrics.histogram("exec.chunk_us");
    // Cores live contiguously in the arena: the dispatch hot loop indexes
    // core state without a unique_ptr hop per access, and teardown is the
    // arena's O(1) reset.
    cores_ = arena_->allocate_array<Core>(static_cast<std::size_t>(config_.ncores));
    engine_.reserve_deadlines(Core::kDeadlines * static_cast<std::size_t>(config_.ncores));
    std::vector<Core*> core_ptrs;
    core_ptrs.reserve(static_cast<std::size_t>(config_.ncores));
    for (int i = 0; i < config_.ncores; ++i) {
        Core* c = new (&cores_[i])
            Core(engine_, config_.perf, *irqc_, i, ops_->irq);
        arena_->register_destructor(c);
        core_ptrs.push_back(c);
        c->exec().set_recorder(&obs_.recorder);
        c->exec().set_chunk_metrics(&obs_.metrics, chunk_hist);
        if (config_.profile) c->exec().set_profiler(&obs_.profiler);
    }
    irqc_->set_signal([this](CoreId id) { cores_[id].signal_irq(); });
    monitor_ = std::make_unique<SecureMonitor>(std::move(core_ptrs));

    for (const auto& d : config_.devices) {
        if (d.name.find("uart") != std::string::npos ||
            d.name.find("pl011") != std::string::npos) {
            uart_ = std::make_unique<Uart>(mem_, irqc_.get(), d.base);
            break;
        }
    }
}

CoreUsage Platform::total_usage() const {
    CoreUsage total;
    for (int i = 0; i < config_.ncores; ++i) {
        const CoreUsage& u = cores_[i].exec().usage();
        total.work += u.work;
        total.transient += u.transient;
        total.overhead += u.overhead;
    }
    return total;
}

void Platform::publish_metrics() {
    auto& m = obs_.metrics;
    m.set(m.gauge("engine.events"),
          static_cast<double>(engine_.events_executed()));
    for (const auto& pc : engine_.executed_by_priority()) {
        m.set(m.gauge("engine.events.p" + std::to_string(pc.priority)),
              static_cast<double>(pc.executed));
    }
    const CoreUsage u = total_usage();
    m.set(m.gauge("cores.work_us"), engine_.clock().to_micros(u.work));
    m.set(m.gauge("cores.transient_us"), engine_.clock().to_micros(u.transient));
    m.set(m.gauge("cores.overhead_us"), engine_.clock().to_micros(u.overhead));
    if (obs_.profiler.enabled()) {
        for (std::size_t p = 0; p < obs::kProfPathCount; ++p) {
            const auto path = static_cast<obs::ProfPath>(p);
            m.set(m.gauge(std::string("prof.cycles.") + obs::to_string(path)),
                  static_cast<double>(obs_.profiler.total(path)));
        }
    }
    if (obs_.flight.armed()) {
        m.set(m.gauge("flight.recorded"),
              static_cast<double>(obs_.flight.total_recorded()));
        m.set(m.gauge("flight.dumps"),
              static_cast<double>(obs_.flight.info().dumps));
    }
}

}  // namespace hpcsec::arch
