// Guest timer model: per-core physical and virtual channels.
//
// The physical channel belongs to whoever owns the hardware — the native
// kernel, or the primary VM under Hafnium (the paper: "the Kitten Primary VM
// requires that all hardware timer interrupts be routed directly to it").
// The virtual channel is what Hafnium exposes to secondary VMs as their
// "dedicated virtual architectural timer channel". On ARM these are the
// generic-timer PPIs 30/27; on RISC-V the STI/VSTI lines — the per-ISA line
// ids arrive via IrqLayout, the cadence logic is identical.
#pragma once

#include <array>
#include <cstdint>

#include "arch/irq_controller.h"
#include "arch/isa.h"
#include "arch/types.h"
#include "sim/engine.h"

namespace hpcsec::arch {

enum class TimerChannel : int {
    kPhys = 0,
    kVirt = 1,
};

class GenericTimer {
public:
    GenericTimer(sim::Engine& engine, IrqController& irqc, CoreId core,
                 const IrqLayout& layout);

    GenericTimer(const GenericTimer&) = delete;
    GenericTimer& operator=(const GenericTimer&) = delete;

    /// System counter value (== simulated cycles; counter freq == CPU clock).
    [[nodiscard]] sim::SimTime counter() const;

    /// Program the compare register: fire at absolute time `deadline`.
    void set_deadline(TimerChannel ch, sim::SimTime deadline);

    /// Disable the channel (compare-register ENABLE = 0).
    void cancel(TimerChannel ch);

    [[nodiscard]] bool armed(TimerChannel ch) const;
    [[nodiscard]] sim::SimTime deadline(TimerChannel ch) const;

    [[nodiscard]] std::uint64_t fired_count(TimerChannel ch) const;

private:
    void fire(TimerChannel ch);

    sim::Engine* engine_;
    IrqController* irqc_;
    CoreId core_;
    IrqLayout layout_;

    struct Channel {
        sim::DeadlineId id = 0;  ///< armed exactly while the channel is
        sim::SimTime deadline = sim::kTimeNever;
        std::uint64_t fired = 0;
    };
    std::array<Channel, 2> ch_;
};

}  // namespace hpcsec::arch
