// Fundamental architectural types for the ARMv8-ish machine model.
#pragma once

#include <cstdint>
#include <string>

namespace hpcsec::arch {

/// Physical address (PA): the real machine address space.
using PhysAddr = std::uint64_t;
/// Intermediate physical address (IPA): a VM's view of "physical" memory,
/// translated to PA by the hypervisor's stage-2 tables.
using IpaAddr = std::uint64_t;
/// Virtual address (VA): translated to IPA (or PA natively) by stage-1.
using VirtAddr = std::uint64_t;

using CoreId = int;

/// VM identifiers follow Hafnium's convention: the primary VM is ID 1,
/// secondaries count up from 2. 0 means "the hypervisor itself".
using VmId = std::uint16_t;
inline constexpr VmId kHypervisorId = 0;
inline constexpr VmId kPrimaryVmId = 1;

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;  // 4 KiB granule
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

[[nodiscard]] constexpr std::uint64_t page_ceil(std::uint64_t a) {
    return (a + kPageMask) & ~kPageMask;
}
[[nodiscard]] constexpr std::uint64_t page_index(std::uint64_t a) { return a >> kPageShift; }

/// Privilege levels, named after the ARMv8 exception-level ladder but
/// ISA-generic: the RISC-V H-extension modes map onto the same four rungs
/// (U -> kEl0, VS -> kEl1, HS -> kEl2, M -> kEl3). Backends publish their
/// native names via arch::IsaOps::priv_name.
enum class El : std::uint8_t {
    kEl0 = 0,  ///< user space (ARM EL0 / RISC-V U)
    kEl1 = 1,  ///< guest OS kernel (ARM EL1 / RISC-V VS)
    kEl2 = 2,  ///< hypervisor — Hafnium/SPM (ARM EL2 / RISC-V HS)
    kEl3 = 3,  ///< monitor/firmware (ARM EL3+TF-A / RISC-V M+SBI)
};

/// TrustZone security state.
enum class World : std::uint8_t {
    kNonSecure = 0,
    kSecure = 1,
};

/// Memory access kinds for permission checks.
enum class Access : std::uint8_t {
    kRead,
    kWrite,
    kExec,
};

/// Page permissions, OR-able.
enum Perms : std::uint8_t {
    kPermNone = 0,
    kPermR = 1 << 0,
    kPermW = 1 << 1,
    kPermX = 1 << 2,
    kPermRW = kPermR | kPermW,
    kPermRX = kPermR | kPermX,
    kPermRWX = kPermR | kPermW | kPermX,
};

[[nodiscard]] constexpr bool perms_allow(std::uint8_t perms, Access a) {
    switch (a) {
        case Access::kRead: return (perms & kPermR) != 0;
        case Access::kWrite: return (perms & kPermW) != 0;
        case Access::kExec: return (perms & kPermX) != 0;
    }
    return false;
}

/// Translation fault classification (subset of ARM DFSC codes we need).
enum class FaultKind : std::uint8_t {
    kNone = 0,
    kTranslation,   ///< no mapping at some level
    kSecurity,      ///< non-secure access to secure memory
    kAddressSize,   ///< address outside the configured range
};

[[nodiscard]] std::string to_string(FaultKind k);
[[nodiscard]] std::string to_string(El el);
[[nodiscard]] std::string to_string(World w);

}  // namespace hpcsec::arch
