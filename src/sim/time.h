// Simulated-time primitives.
//
// The simulation's base unit of time is one CPU cycle of the modeled SoC
// clock (the Pine A64's Cortex-A53 runs at 1.1 GHz). Using integral cycles
// everywhere keeps the discrete-event engine exact and deterministic;
// conversions to seconds happen only at reporting boundaries.
#pragma once

#include <cstdint>

namespace hpcsec::sim {

/// A point in simulated time, measured in CPU cycles since boot.
using SimTime = std::uint64_t;

/// A duration in CPU cycles.
using Cycles = std::uint64_t;

/// Sentinel for "never" / unset deadlines.
inline constexpr SimTime kTimeNever = ~SimTime{0};

/// Clock description used for unit conversion.
struct ClockSpec {
    std::uint64_t hz = 1'100'000'000;  ///< default: Pine A64 A53 @ 1.1 GHz

    [[nodiscard]] constexpr double to_seconds(SimTime t) const {
        return static_cast<double>(t) / static_cast<double>(hz);
    }
    [[nodiscard]] constexpr double to_millis(SimTime t) const { return to_seconds(t) * 1e3; }
    [[nodiscard]] constexpr double to_micros(SimTime t) const { return to_seconds(t) * 1e6; }

    [[nodiscard]] constexpr Cycles from_seconds(double s) const {
        return static_cast<Cycles>(s * static_cast<double>(hz));
    }
    [[nodiscard]] constexpr Cycles from_millis(double ms) const { return from_seconds(ms * 1e-3); }
    [[nodiscard]] constexpr Cycles from_micros(double us) const { return from_seconds(us * 1e-6); }

    /// Cycles per period of a given frequency (e.g. timer tick rate).
    [[nodiscard]] constexpr Cycles period_of_hz(double rate_hz) const {
        return static_cast<Cycles>(static_cast<double>(hz) / rate_hz);
    }
};

}  // namespace hpcsec::sim
