#include "arch/riscv/plic.h"

#include <stdexcept>

namespace hpcsec::arch {

Plic::Plic(int ncores, int nsources)
    : sources_(kExternalBase + nsources), harts_(ncores) {
    if (ncores <= 0) throw std::invalid_argument("Plic: need at least one hart");
    if (kExternalBase + nsources > IrqBitset::kBits) {
        throw std::invalid_argument("Plic: irq id space exceeds IrqBitset::kBits");
    }
}

void Plic::enable_irq(int irq) { sources_.at(irq).enabled = true; }
void Plic::disable_irq(int irq) { sources_.at(irq).enabled = false; }
bool Plic::irq_enabled(int irq) const { return sources_.at(irq).enabled; }

void Plic::set_external_target(int irq, CoreId core) {
    if (irq < kExternalBase) {
        throw std::invalid_argument("set_external_target: not a gateway source");
    }
    if (core < 0 || core >= ncores()) throw std::invalid_argument("bad hart");
    sources_.at(irq).target = core;
}

CoreId Plic::external_target(int irq) const { return sources_.at(irq).target; }

void Plic::set_priority(int irq, std::uint8_t prio) {
    sources_.at(irq).priority = prio;
}

void Plic::make_pending(CoreId core, int irq) {
    auto& hs = harts_.at(core);
    // sca-suppress(hot-path-alloc): IrqBitset is a fixed 256-bit set;
    // insert sets a bit.
    hs.pending.insert(irq);
    if (sources_.at(irq).enabled && signal_) signal_(core);
}

void Plic::raise_external(int irq) {
    if (irq < kExternalBase) {
        throw std::invalid_argument("raise_external: not a gateway source");
    }
    make_pending(sources_.at(irq).target, irq);
}

void Plic::raise_private(CoreId core, int irq) {
    if (irq < kPrivateBase || irq >= kExternalBase) {
        // sca-suppress(no-throw-guest-path): every caller passes a
        // compile-time timer-line constant, never guest input; a bad id is
        // a host wiring bug worth fail-stopping.
        throw std::invalid_argument("raise_private: not a CLINT private line");
    }
    make_pending(core, irq);
}

void Plic::send_ipi(CoreId target, int irq) {
    if (irq < kIpiBase || irq >= kIpiLimit) {
        // sca-suppress(no-throw-guest-path): IPI ids come from kernel wakeup
        // constants, never guest registers; a bad id is a host wiring bug.
        throw std::invalid_argument("send_ipi: not a software interrupt");
    }
    make_pending(target, irq);
}

void Plic::clear_pending(CoreId core, int irq) {
    harts_.at(core).pending.erase(irq);
}

bool Plic::has_deliverable(CoreId core) const {
    for (const int irq : harts_.at(core).pending) {
        if (sources_[static_cast<std::size_t>(irq)].enabled) return true;
    }
    return false;
}

int Plic::ack(CoreId core) {
    auto& hs = harts_.at(core);
    // Maximum over priority of pending ∩ enabled — PLIC arbitration, where
    // higher priority values win. Scanning ids in ascending order with a
    // strict compare keeps the lowest id on ties, so the uniform default
    // priorities give the same lowest-id-first claim order as the GIC
    // backend (the cross-ISA determinism contract in irq_controller.h).
    int best_irq = kSpurious;
    int best_prio = -1;
    for (const int irq : hs.pending) {
        const SourceState& s = sources_[static_cast<std::size_t>(irq)];
        if (!s.enabled) continue;
        if (s.priority > best_prio) {
            best_prio = s.priority;
            best_irq = irq;
        }
    }
    if (best_irq == kSpurious) return kSpurious;
    hs.pending.erase(best_irq);
    hs.active = best_irq;
    ++delivered_;
    return best_irq;
}

void Plic::eoi(CoreId core, int irq) {
    auto& hs = harts_.at(core);
    if (hs.active == irq) hs.active = kSpurious;
    // Complete reopens the gateway; re-signal if more is deliverable.
    if (has_deliverable(core) && signal_) signal_(core);
}

}  // namespace hpcsec::arch
