// Boot-time partition manifest.
//
// Hafnium requires "that secure partitions and VM images be defined at boot
// time" — this manifest is the model of that contract. It is handed to the
// SPM before any OS runs; the SPM carves memory, builds stage-2 tables and
// creates VCPUs from it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/types.h"
#include "crypto/sha256.h"

namespace hpcsec::hafnium {

enum class VmRole : std::uint8_t {
    kPrimary,         ///< the scheduling VM (Kitten or Linux)
    kSuperSecondary,  ///< semi-privileged login/IO VM (this paper's extension)
    kSecondary,       ///< fully isolated compute VM
};

[[nodiscard]] std::string to_string(VmRole role);

/// One VM image entry in the boot manifest.
struct VmSpec {
    std::string name;
    VmRole role = VmRole::kSecondary;
    std::uint64_t mem_bytes = 64ull << 20;
    int vcpu_count = 1;
    arch::World world = arch::World::kNonSecure;
    /// MMIO device names (from the platform config) assigned to this VM.
    /// Only the primary or super-secondary may own devices.
    std::vector<std::string> devices;
    /// Opaque kernel-image bytes; hashed into the attestation chain and
    /// checked against `expected_hash` when present (tamper detection).
    std::vector<std::uint8_t> image;
    std::optional<crypto::Digest> expected_hash;

    [[nodiscard]] crypto::Digest image_hash() const {
        return crypto::Sha256::hash(std::span<const std::uint8_t>(image));
    }
};

struct Manifest {
    std::vector<VmSpec> vms;

    /// Structural validation. Returns a list of human-readable problems;
    /// empty means OK. Rules modeled on Hafnium plus this paper's extension:
    ///  - exactly one primary;
    ///  - at most one super-secondary;
    ///  - plain secondaries own no devices;
    ///  - every VM needs memory and at least one VCPU;
    ///  - names are unique and non-empty.
    [[nodiscard]] std::vector<std::string> problems() const;

    [[nodiscard]] const VmSpec* primary() const;
    [[nodiscard]] const VmSpec* super_secondary() const;
};

}  // namespace hpcsec::hafnium
