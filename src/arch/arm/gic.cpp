#include "arch/arm/gic.h"

#include <stdexcept>

namespace hpcsec::arch {

Gic::Gic(int ncores, int nspis) : irqs_(kSpiBase + nspis), cpu_(ncores) {
    if (ncores <= 0) throw std::invalid_argument("Gic: need at least one core");
    if (kSpiBase + nspis > IrqBitset::kBits) {
        throw std::invalid_argument("Gic: irq id space exceeds IrqBitset::kBits");
    }
}

void Gic::enable_irq(int irq) { irqs_.at(irq).enabled = true; }
void Gic::disable_irq(int irq) { irqs_.at(irq).enabled = false; }
bool Gic::irq_enabled(int irq) const { return irqs_.at(irq).enabled; }

void Gic::set_external_target(int irq, CoreId core) {
    if (irq < kSpiBase) {
        throw std::invalid_argument("set_external_target: not an SPI");
    }
    if (core < 0 || core >= ncores()) throw std::invalid_argument("bad core");
    irqs_.at(irq).target = core;
}

CoreId Gic::external_target(int irq) const { return irqs_.at(irq).target; }

void Gic::set_priority(int irq, std::uint8_t prio) { irqs_.at(irq).priority = prio; }

void Gic::make_pending(CoreId core, int irq) {
    auto& cs = cpu_.at(core);
    // sca-suppress(hot-path-alloc): IrqBitset is a fixed 256-bit set;
    // insert sets a bit.
    cs.pending.insert(irq);
    if (irqs_.at(irq).enabled && signal_) signal_(core);
}

void Gic::raise_external(int irq) {
    if (irq < kSpiBase) throw std::invalid_argument("raise_external: not an SPI");
    make_pending(irqs_.at(irq).target, irq);
}

void Gic::raise_private(CoreId core, int irq) {
    if (irq < kPpiBase || irq >= kSpiBase) {
        // sca-suppress(no-throw-guest-path): every caller passes a
        // compile-time PPI constant (timer PPIs), never guest input; a bad
        // id is a host wiring bug worth fail-stopping.
        throw std::invalid_argument("raise_private: not a PPI");
    }
    make_pending(core, irq);
}

void Gic::send_ipi(CoreId target, int irq) {
    // sca-suppress(no-throw-guest-path): SGI ids come from kernel wakeup
    // constants, never guest registers; a bad id is a host wiring bug.
    if (irq < 0 || irq >= kPpiBase) throw std::invalid_argument("send_ipi: not an SGI");
    make_pending(target, irq);
}

void Gic::clear_pending(CoreId core, int irq) {
    cpu_.at(core).pending.erase(irq);
}

bool Gic::has_deliverable(CoreId core) const {
    for (const int irq : cpu_.at(core).pending) {
        if (irqs_[static_cast<std::size_t>(irq)].enabled) return true;
    }
    return false;
}

int Gic::ack(CoreId core) {
    auto& cs = cpu_.at(core);
    // Minimum over (priority, irq) of pending ∩ enabled. Scanning ids in
    // ascending order with a strict compare keeps the lowest id on priority
    // ties — the exact order the (priority, irq)-keyed set produced.
    int best_irq = kSpurious;
    int best_prio = 256;
    for (const int irq : cs.pending) {
        const IrqState& s = irqs_[static_cast<std::size_t>(irq)];
        if (!s.enabled) continue;
        if (s.priority < best_prio) {
            best_prio = s.priority;
            best_irq = irq;
        }
    }
    if (best_irq == kSpurious) return kSpurious;
    cs.pending.erase(best_irq);
    cs.active = best_irq;
    ++delivered_;
    return best_irq;
}

void Gic::eoi(CoreId core, int irq) {
    auto& cs = cpu_.at(core);
    if (cs.active == irq) cs.active = kSpurious;
    // Deliverable interrupts may still be queued; re-signal.
    if (has_deliverable(core) && signal_) signal_(core);
}

}  // namespace hpcsec::arch
