#include "arch/timer.h"

#include <algorithm>

namespace hpcsec::arch {

GenericTimer::GenericTimer(sim::Engine& engine, IrqController& irqc, CoreId core,
                           const IrqLayout& layout)
    : engine_(&engine), irqc_(&irqc), core_(core), layout_(layout) {}

sim::SimTime GenericTimer::counter() const { return engine_->now(); }

void GenericTimer::set_deadline(TimerChannel ch, sim::SimTime deadline) {
    Channel& c = ch_[static_cast<int>(ch)];
    if (c.armed) engine_->cancel(c.event);
    c.deadline = deadline;
    c.armed = true;
    // A deadline in the past fires immediately (condition already met). The
    // clamp also keeps Engine::at's past-time throw out of guest reach.
    const sim::SimTime when = std::max(deadline, engine_->now());
    c.event = engine_->at(when, [this, ch] { fire(ch); }, sim::kPrioInterrupt);
}

void GenericTimer::cancel(TimerChannel ch) {
    Channel& c = ch_[static_cast<int>(ch)];
    if (c.armed) {
        engine_->cancel(c.event);
        c.armed = false;
        c.deadline = sim::kTimeNever;
    }
}

bool GenericTimer::armed(TimerChannel ch) const {
    return ch_[static_cast<int>(ch)].armed;
}

sim::SimTime GenericTimer::deadline(TimerChannel ch) const {
    return ch_[static_cast<int>(ch)].deadline;
}

std::uint64_t GenericTimer::fired_count(TimerChannel ch) const {
    return ch_[static_cast<int>(ch)].fired;
}

void GenericTimer::fire(TimerChannel ch) {
    Channel& c = ch_[static_cast<int>(ch)];
    c.armed = false;
    c.deadline = sim::kTimeNever;
    ++c.fired;
    irqc_->raise_private(core_, ch == TimerChannel::kPhys ? layout_.phys_timer
                                                         : layout_.virt_timer);
}

}  // namespace hpcsec::arch
