#include "arch/timer.h"

#include <algorithm>

namespace hpcsec::arch {

GenericTimer::GenericTimer(sim::Engine& engine, IrqController& irqc, CoreId core,
                           const IrqLayout& layout)
    : engine_(&engine), irqc_(&irqc), core_(core), layout_(layout) {
    ch_[0].id = engine.add_deadline([this] { fire(TimerChannel::kPhys); });
    ch_[1].id = engine.add_deadline([this] { fire(TimerChannel::kVirt); });
}

sim::SimTime GenericTimer::counter() const { return engine_->now(); }

void GenericTimer::set_deadline(TimerChannel ch, sim::SimTime deadline) {
    Channel& c = ch_[static_cast<int>(ch)];
    c.deadline = deadline;
    // A deadline in the past fires immediately (condition already met). The
    // clamp also keeps Engine::arm from refusing it.
    engine_->arm(c.id, std::max(deadline, engine_->now()), sim::kPrioInterrupt);
}

void GenericTimer::cancel(TimerChannel ch) {
    Channel& c = ch_[static_cast<int>(ch)];
    engine_->disarm(c.id);
    c.deadline = sim::kTimeNever;
}

bool GenericTimer::armed(TimerChannel ch) const {
    return engine_->armed(ch_[static_cast<int>(ch)].id);
}

sim::SimTime GenericTimer::deadline(TimerChannel ch) const {
    return ch_[static_cast<int>(ch)].deadline;
}

std::uint64_t GenericTimer::fired_count(TimerChannel ch) const {
    return ch_[static_cast<int>(ch)].fired;
}

void GenericTimer::fire(TimerChannel ch) {
    Channel& c = ch_[static_cast<int>(ch)];
    c.deadline = sim::kTimeNever;
    ++c.fired;
    irqc_->raise_private(core_, ch == TimerChannel::kPhys ? layout_.phys_timer
                                                         : layout_.virt_timer);
}

}  // namespace hpcsec::arch
