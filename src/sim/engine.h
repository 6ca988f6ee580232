// Discrete-event simulation engine.
//
// One Engine instance drives an entire simulated node: every core, timer,
// hypervisor and guest-kernel action is an event on this queue. The engine
// is single-threaded and fully deterministic.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace hpcsec::sim {

/// Event priorities: lower runs first at equal timestamps.
enum Priority : int {
    kPrioInterrupt = 0,   ///< hardware interrupt assertion
    kPrioKernel = 10,     ///< kernel/hypervisor bookkeeping
    kPrioCompletion = 20, ///< workload chunk completions
    kPrioDefault = 50,
};

/// Observes every event dispatch. Implementations live above the sim layer
/// (obs::CycleProfiler uses it as a deterministic sampling clock); the
/// engine pays one predicted branch per dispatch when no probe is set.
class DispatchProbe {
public:
    virtual ~DispatchProbe() = default;
    virtual void on_dispatch(SimTime now, int priority) = 0;
};

class Engine {
public:
    explicit Engine(ClockSpec clock = {}) : clock_(clock) {}

    [[nodiscard]] SimTime now() const { return now_; }
    [[nodiscard]] const ClockSpec& clock() const { return clock_; }

    EventId at(SimTime when, EventFn fn, int priority = kPrioDefault);
    EventId after(Cycles delay, EventFn fn, int priority = kPrioDefault);

    bool cancel(EventId id) { return queue_.cancel(id); }

    /// Run until the queue drains or `stop()` is called.
    void run();

    /// Run events with timestamp <= deadline; afterwards now() == deadline
    /// (unless stopped earlier). Pending later events remain queued.
    void run_until(SimTime deadline);

    /// Request that run()/run_until() return after the current event.
    void stop() { stopped_ = true; }

    [[nodiscard]] bool stopped() const { return stopped_; }
    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
    [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

    /// Always 0: the engine has one event queue and no batched timer path.
    /// Kept for readers of the `engine.batched_pop_ratio` benchmark row.
    [[nodiscard]] std::uint64_t timer_batched_pops() const { return 0; }

    /// Events executed per priority level, sorted by priority. The list is
    /// tiny (one entry per distinct Priority value used), so lookups are a
    /// short linear scan on dispatch.
    struct PriorityCount {
        int priority;
        std::uint64_t executed;
    };
    [[nodiscard]] const std::vector<PriorityCount>& executed_by_priority() const {
        return by_priority_;
    }

    /// Attach/detach the dispatch probe (purely observational; nullptr = off).
    void set_dispatch_probe(DispatchProbe* probe) { probe_ = probe; }
    [[nodiscard]] DispatchProbe* dispatch_probe() const { return probe_; }

private:
    void dispatch_one();

    ClockSpec clock_;
    EventQueue queue_;
    SimTime now_ = 0;
    bool stopped_ = false;
    std::uint64_t executed_ = 0;
    std::vector<PriorityCount> by_priority_;
    DispatchProbe* probe_ = nullptr;
};

}  // namespace hpcsec::sim
