// Hypercall ABI between EL1 kernels and the EL2 SPM.
//
// A blend of Hafnium's legacy hf_* interface and the FF-A calls it evolved
// into — the subset the paper's system exercises. Crucially, the interface
// is *core local* ("Hafnium's hypercall interface is core local … it is not
// possible for Linux to invoke a VM context switch on another core"): every
// call carries the calling core, and HF_VCPU_RUN only ever switches the
// calling core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "arch/types.h"

namespace hpcsec::hafnium {

enum class Call : std::uint32_t {
    kVersion = 0x01,
    kVmGetCount = 0x02,
    kVcpuGetCount = 0x03,
    kVmGetInfo = 0x04,      ///< role/world/memory of a VM id
    kVcpuRun = 0x10,        ///< primary only; switches *this* core to a VCPU
    kVmConfigure = 0x11,    ///< set mailbox send/recv IPA pages
    kMsgSend = 0x12,        ///< copy send buffer to target's recv buffer
    kMsgWait = 0x13,        ///< block until a message arrives
    kYield = 0x14,          ///< give the slice back to the scheduler
    kRxRelease = 0x15,      ///< mark the recv buffer consumed (FFA_RX_RELEASE)
    kMemShare = 0x20,       ///< share own pages with another VM (both keep access)
    kMemReclaim = 0x21,     ///< revoke a previous share/lend
    kMemLend = 0x22,        ///< lend pages: borrower gains, owner loses access
    kMemDonate = 0x23,      ///< transfer ownership permanently
    kInterruptEnable = 0x30,///< para-virtual GIC: enable a virtual IRQ
    kInterruptGet = 0x31,   ///< ack the next pending virtual IRQ
    kInterruptInject = 0x32,///< primary/super-secondary: inject into a VM
    kVtimerSet = 0x33,      ///< arm the virtual timer (secondaries)
    kVtimerCancel = 0x34,
};

[[nodiscard]] std::string to_string(Call c);

/// Number of distinct hypercalls in the ABI. Must match the number of Call
/// enumerators and the number of rows in Spm::call_table() (the tools/sca
/// rule `dispatch-table-complete` cross-checks both).
inline constexpr std::size_t kCallCount = 19;

/// One past the highest call number; sizes the O(1) dispatch lookup table.
inline constexpr std::uint32_t kCallNumberSpace = 0x35;

enum class HfError : std::int32_t {
    kOk = 0,
    kDenied = -1,        ///< caller lacks the privilege (role check failed)
    kInvalid = -2,       ///< bad arguments
    kBusy = -3,          ///< target mailbox full
    kNotFound = -4,      ///< no such VM/VCPU
    kInterrupted = -5,   ///< wait aborted
    kRetry = -6,         ///< target VCPU not in a runnable state
};

[[nodiscard]] std::string to_string(HfError e);

struct HfResult {
    HfError error = HfError::kOk;
    std::int64_t value = 0;

    [[nodiscard]] bool ok() const { return error == HfError::kOk; }
};

/// Arguments bundle (registers x1..x4 of the call).
struct HfArgs {
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    std::uint64_t a3 = 0;
};

}  // namespace hpcsec::hafnium
