// Kernel threads, shared by the Kitten and Linux kernel models.
#pragma once

#include <cstdint>
#include <string>

#include "arch/exec.h"
#include "arch/types.h"

namespace hpcsec::hafnium {
class Vcpu;
}

namespace hpcsec::kitten {

struct KThread {
    enum class Kind : std::uint8_t {
        kApp,        ///< workload thread (native configuration)
        kVcpuProxy,  ///< kernel thread holding a handle to one Hafnium VCPU
        kControl,    ///< VM-management control task
    };
    enum class State : std::uint8_t { kReady, kRunning, kBlocked, kExited };

    std::string name;
    Kind kind = Kind::kApp;
    State state = State::kBlocked;
    arch::CoreId core = 0;              ///< affinity (Kitten pins threads)
    arch::Runnable* ctx = nullptr;      ///< app/control context
    hafnium::Vcpu* vcpu = nullptr;      ///< vcpu-proxy target
};

}  // namespace hpcsec::kitten
