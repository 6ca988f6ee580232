#include "arch/core.h"

namespace hpcsec::arch {

Core::Core(sim::Engine& engine, const PerfModel& perf, IrqController& irqc,
           CoreId id, const IrqLayout& layout)
    : engine_(&engine),
      irqc_(&irqc),
      id_(id),
      timer_(engine, irqc, id, layout),
      exec_(engine, perf, id) {}

void Core::power_off() {
    powered_ = false;
    exec_.preempt();
    timer_.cancel(TimerChannel::kPhys);
    timer_.cancel(TimerChannel::kVirt);
}

void Core::set_irq_masked(bool masked) {
    irq_masked_ = masked;
    if (!masked) deliver_pending();
}

void Core::signal_irq() {
    if (!powered_ || irq_masked_ || in_handler_) return;
    deliver_pending();
}

void Core::deliver_pending() {
    if (!powered_ || !handler_) return;
    while (!irq_masked_ && irqc_->has_deliverable(id_)) {
        const int irq = irqc_->ack(id_);
        if (irq == IrqController::kSpurious) return;
        in_handler_ = true;
        handler_(irq);
        in_handler_ = false;
    }
}

}  // namespace hpcsec::arch
