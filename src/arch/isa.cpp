#include "arch/isa.h"

#include <stdexcept>

#include "arch/arm/gic.h"
#include "arch/riscv/plic.h"

namespace hpcsec::arch {

namespace {

const IsaOps kArmOps{
    Isa::kArm,
    "arm",
    El::kEl0,
    El::kEl1,
    El::kEl2,
    El::kEl3,
    IrqLayout{kIrqPhysTimer, kIrqVirtTimer, kIrqHypTimer},
    PtFormat::armv8_4k(),
};

const IsaOps kRiscvOps{
    Isa::kRiscv,
    "riscv",
    El::kEl0,
    El::kEl1,
    El::kEl2,
    El::kEl3,
    IrqLayout{kIrqSupervisorTimer, kIrqVsTimer, kIrqMachineTimer},
    PtFormat::sv39x4(),
};

}  // namespace

const char* IsaOps::priv_name(El el) const {
    if (isa == Isa::kArm) {
        switch (el) {
            case El::kEl0: return "EL0";
            case El::kEl1: return "EL1";
            case El::kEl2: return "EL2";
            case El::kEl3: return "EL3";
        }
    } else {
        switch (el) {
            case El::kEl0: return "U";
            case El::kEl1: return "VS";
            case El::kEl2: return "HS";
            case El::kEl3: return "M";
        }
    }
    return "?";
}

std::unique_ptr<IrqController> IsaOps::make_irq_controller(int ncores) const {
    if (isa == Isa::kRiscv) return std::make_unique<Plic>(ncores);
    return std::make_unique<Gic>(ncores);
}

const IsaOps& IsaOps::get(Isa isa) {
    return isa == Isa::kRiscv ? kRiscvOps : kArmOps;
}

std::string to_string(Isa isa) { return IsaOps::get(isa).name; }

bool parse_isa(const std::string& token, Isa& out, std::string& error) {
    if (token == "arm") {
        out = Isa::kArm;
        return true;
    }
    if (token == "riscv") {
        out = Isa::kRiscv;
        return true;
    }
    error = "bad isa '" + token + "' (valid: arm, riscv)";
    return false;
}

}  // namespace hpcsec::arch
