// Discrete-event simulation engine.
//
// One Engine instance drives an entire simulated node: every core, timer,
// hypervisor and guest-kernel action is an event on this engine. The engine
// is single-threaded and fully deterministic.
//
// Events come from two sources, merged into one dispatch order:
//   - one-shot events, scheduled with at()/after() on the EventQueue heap;
//   - re-armable deadlines: an owner registers once with add_deadline() and
//     then arms and disarms its deadline with plain writes to a key table.
//     Each core's timer channels and its executor own one each, so the
//     deadlines that are armed, cancelled and re-armed on every VM exit
//     never enter the heap.
// Both take their insertion order from one counter, so a deadline
// dispatches exactly where an at() with the same time and priority would
// have. Each dispatch scans the key table for the earliest armed deadline
// (three per core) and takes it or the heap top, whichever comes first.
#pragma once

#include <cstdint>
#include <limits>
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

/// Handle of a re-armable deadline: its index in the engine's key table.
using DeadlineId = std::uint32_t;

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

    /// Register a deadline that runs `fn` each time it comes due; it starts
    /// disarmed. Register at construction, never from a dispatched event
    /// (the callback table may move).
    DeadlineId add_deadline(EventFn fn);

    /// Make room for `n` deadlines, so a node's cores register theirs
    /// without regrowing the table.
    void reserve_deadlines(std::size_t n);

    /// Arm or re-arm deadline `id` for `when`. Every arm takes a fresh
    /// insertion order, as at() does. A time before now() is refused, as
    /// at() refuses it, but by returning false with the deadline unchanged:
    /// guests reach this through GenericTimer, and guest paths never throw.
    bool arm(DeadlineId id, SimTime when, int priority) {
        if (when < now_) return false;
        deadlines_[id] = EventKey{when, priority, queue_.take_order()};
        return true;
    }

    /// Disarm deadline `id`; a no-op when it is not armed.
    void disarm(DeadlineId id) { deadlines_[id] = kDisarmed; }

    [[nodiscard]] bool armed(DeadlineId id) const {
        return deadlines_[id].order != kDisarmed.order;
    }

    /// Run until nothing is pending or `stop()` is called.
    void run();

    /// Run events with timestamp <= deadline; afterwards now() == deadline
    /// (unless stopped earlier). Pending later events remain queued.
    void run_until(SimTime deadline);

    /// Request that run()/run_until() return after the current event.
    void stop() { stopped_ = true; }

    [[nodiscard]] bool stopped() const { return stopped_; }
    /// Dispatches so far, deadlines included.
    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
    /// Queued one-shot events plus armed deadlines.
    [[nodiscard]] std::size_t pending_events() const;

    /// Always 0: the engine has no batched timer path.
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

private:
    /// The key of a disarmed deadline: after every armed key, since no
    /// insertion order reaches the maximum.
    static constexpr EventKey kDisarmed{kTimeNever, std::numeric_limits<int>::max(),
                                        ~std::uint64_t{0}};
    static constexpr DeadlineId kNoDeadline = ~DeadlineId{0};

    /// Dispatch the first pending event or deadline if it is due at or
    /// before `limit`; false when nothing is.
    bool dispatch_one(SimTime limit);
    /// The armed deadline with the smallest key, or kNoDeadline.
    [[nodiscard]] DeadlineId earliest_deadline() const;
    /// Advance the clock to `when` and count one dispatch at `priority`.
    void count_dispatch(SimTime when, int priority);

    ClockSpec clock_;
    EventQueue queue_;
    std::vector<EventKey> deadlines_;    ///< kDisarmed while not armed
    std::vector<EventFn> deadline_fns_;  ///< parallel to deadlines_
    SimTime now_ = 0;
    bool stopped_ = false;
    std::uint64_t executed_ = 0;
    std::vector<PriorityCount> by_priority_;
    DispatchProbe* probe_ = nullptr;
};

}  // namespace hpcsec::sim
