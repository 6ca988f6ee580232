// A CPU core: privilege-level state, interrupt line, timer, executor.
//
// Software layers (hypervisor, kernels) install the IRQ handler — the model
// equivalent of owning the exception vector table. Only one handler exists
// per core at a time: under Hafnium it is the hypervisor's vector (ARM EL2 /
// RISC-V HS), and guest kernels receive interrupts only via forwarding and
// injection, exactly as on real hardware.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "arch/exec.h"
#include "arch/irq_controller.h"
#include "arch/isa.h"
#include "arch/timer.h"
#include "arch/types.h"
#include "sim/engine.h"

namespace hpcsec::arch {

class Core {
public:
    using IrqHandler = std::function<void(int irq)>;

    /// Engine deadlines each core registers: two timer channels and the
    /// executor's.
    static constexpr std::size_t kDeadlines = 3;

    Core(sim::Engine& engine, const PerfModel& perf, IrqController& irqc,
         CoreId id, const IrqLayout& layout);

    [[nodiscard]] CoreId id() const { return id_; }

    // --- power (PSCI/SBI-HSM-managed) --------------------------------------
    [[nodiscard]] bool powered() const { return powered_; }
    void power_on() { powered_ = true; }
    void power_off();

    // --- privilege state ------------------------------------------------------
    [[nodiscard]] El el() const { return el_; }
    void set_el(El el) { el_ = el; }
    [[nodiscard]] World world() const { return world_; }
    void set_world(World w) { world_ = w; }

    // --- interrupts -----------------------------------------------------------
    /// Install the exception-vector owner. Replaces any previous handler.
    void set_irq_handler(IrqHandler handler) { handler_ = std::move(handler); }

    /// Interrupt mask bit (ARM PSTATE.I / RISC-V sstatus.SIE): true masks
    /// IRQ delivery. Unmasking drains pending IRQs.
    void set_irq_masked(bool masked);

    /// Called by the interrupt controller when this core has a deliverable
    /// interrupt.
    void signal_irq();

    // --- attached units ---------------------------------------------------------
    GenericTimer& timer() { return timer_; }
    Executor& exec() { return exec_; }
    const Executor& exec() const { return exec_; }
    IrqController& irqc() { return *irqc_; }

private:
    void deliver_pending();

    sim::Engine* engine_;
    IrqController* irqc_;
    CoreId id_;
    bool powered_ = false;
    El el_ = El::kEl3;  // reset state: highest implemented privilege level
    World world_ = World::kNonSecure;
    bool irq_masked_ = true;
    bool in_handler_ = false;
    IrqHandler handler_;

    GenericTimer timer_;
    Executor exec_;
};

}  // namespace hpcsec::arch
