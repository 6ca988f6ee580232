// ISA selection and per-ISA operations table.
//
// The arch layer is split into this ISA-generic core plus two backends:
//   src/arch/arm/    ARMv8 + GICv2/3 (EL2 hypervisor, vtimer, 48-bit
//                    4-level stage-2 tables)
//   src/arch/riscv/  RISC-V H-extension + PLIC/CLINT (HS-mode hypervisor,
//                    vstimer, Sv39x4 stage-2 tables)
// IsaOps is the seam: privilege-level mapping, trap naming, the stage-2
// translation format, interrupt layout and the controller factory. Nothing
// outside src/arch/ may include a backend header (sca rule isa-portability);
// consumers reach backend behavior exclusively through this table.
//
// Privilege mapping. The generic `El` ladder is shared by both ISAs:
//   El::kEl0  ARM EL0 (user)        RISC-V U  (guest user / VU)
//   El::kEl1  ARM EL1 (guest OS)    RISC-V VS (virtualized supervisor)
//   El::kEl2  ARM EL2 (hypervisor)  RISC-V HS (hypervisor-extended S-mode)
//   El::kEl3  ARM EL3 (monitor)     RISC-V M  (machine mode / SBI firmware)
#pragma once

#include <memory>
#include <string>

#include "arch/irq_controller.h"
#include "arch/page_table.h"
#include "arch/types.h"

namespace hpcsec::arch {

enum class Isa : std::uint8_t {
    kArm = 0,
    kRiscv = 1,
};

/// Per-ISA interrupt-id layout. The range structure (IPIs, private lines,
/// external sources) is shared — see irq_controller.h — so only the timer
/// line ids differ between backends.
struct IrqLayout {
    int phys_timer;  ///< kernel-owned timer (ARM PPI 30; RISC-V STI)
    int virt_timer;  ///< guest virtual timer (ARM PPI 27; RISC-V VSTI)
    int hyp_timer;   ///< hypervisor timer (ARM PPI 26; RISC-V MTI analogue)
};

/// The per-ISA operations/constants table. One static instance per backend;
/// everything is immutable, so references stay valid for the process
/// lifetime and the table can be consulted on hot paths without a lock.
struct IsaOps {
    Isa isa;
    const char* name;  ///< "arm" / "riscv" (the --isa token)

    // Privilege-level mapping onto the generic El ladder.
    El user_level = El::kEl0;
    El guest_kernel_level = El::kEl1;
    El hyp_level = El::kEl2;
    El monitor_level = El::kEl3;

    IrqLayout irq;

    PtFormat stage2;  ///< IPA -> PA format (ARMv8 4-level 48-bit; Sv39x4)

    /// ISA-specific privilege-level name ("EL2" / "HS") for traces & tests.
    [[nodiscard]] const char* priv_name(El el) const;

    /// Construct this ISA's interrupt controller (ARM: Gic; RISC-V: Plic).
    [[nodiscard]] std::unique_ptr<IrqController> make_irq_controller(
        int ncores) const;

    /// The per-ISA singleton table.
    [[nodiscard]] static const IsaOps& get(Isa isa);
};

[[nodiscard]] std::string to_string(Isa isa);

/// Parse an ISA token ("arm", "riscv"). On failure returns false and fills
/// `error` with a message listing the valid names (the --trace-mask/--chaos
/// CLI convention).
[[nodiscard]] bool parse_isa(const std::string& token, Isa& out,
                             std::string& error);

}  // namespace hpcsec::arch
