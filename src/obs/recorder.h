// Structured span/event recorder.
//
// Recording is off by default and costs exactly one branch per call site
// when disabled (a bitmask test; no allocation, no string formatting).
// When enabled, events are retained in memory for export.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/events.h"
#include "obs/flight.h"

namespace hpcsec::obs {

class SpanRecorder {
public:
    [[nodiscard]] bool enabled(Category c) const { return (mask_ & to_mask(c)) != 0; }
    [[nodiscard]] std::uint32_t mask() const { return mask_; }
    void set_mask(std::uint32_t mask) { mask_ = mask; }
    void enable(Category c) { mask_ |= to_mask(c); }
    void disable(Category c) { mask_ &= ~to_mask(c); }

    /// Feed every event (all categories) into an armed flight recorder's
    /// rings in addition to normal retention. The hot path stays one branch:
    /// arming ORs kAll into the gate mask, and the cold path decides what is
    /// retained vs. only ring-buffered.
    void set_flight(FlightRecorder* flight) {
        flight_ = flight;
        flight_mask_ =
            flight != nullptr && flight->armed() ? to_mask(Category::kAll) : 0;
    }
    [[nodiscard]] FlightRecorder* flight() const { return flight_; }

    // --- hot path -----------------------------------------------------------
    void instant(sim::SimTime when, EventType t, int core, std::int64_t a0 = 0,
                 std::int64_t a1 = 0, std::int64_t a2 = 0) {
        if (((mask_ | flight_mask_) & to_mask(category_of(t))) == 0) return;
        record({when, when, t, static_cast<std::int16_t>(core), a0, a1, a2});
    }

    void span(sim::SimTime start, sim::SimTime end, EventType t, int core,
              std::int64_t a0 = 0, std::int64_t a1 = 0, std::int64_t a2 = 0) {
        if (((mask_ | flight_mask_) & to_mask(category_of(t))) == 0) return;
        record({start, end, t, static_cast<std::int16_t>(core), a0, a1, a2});
    }

    // --- inspection ---------------------------------------------------------
    [[nodiscard]] const std::vector<Event>& events() const { return events_; }
    [[nodiscard]] std::size_t count(EventType t) const;
    void clear() { events_.clear(); }

private:
    void record(Event e);  ///< cold path: flight ring, then retain

    std::uint32_t mask_ = 0;
    std::uint32_t flight_mask_ = 0;  ///< kAll while a flight recorder is armed
    std::vector<Event> events_;
    FlightRecorder* flight_ = nullptr;
};

}  // namespace hpcsec::obs
