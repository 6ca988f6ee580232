// Deterministic discrete-event queue.
//
// Events at equal timestamps are ordered by (priority, insertion sequence) so
// runs are bit-reproducible regardless of container internals.
//
// Implementation: a slab of recycled entries indexed by a 4-ary heap. The
// hot path (schedule/pop many times per trial) does no per-event container
// allocation once the slab is warm: scheduling reuses a free slot and
// popping moves the callback out. Each entry records its heap position, so
// cancellation removes the entry at once in O(log n) of the live events —
// the heap never holds dead entries. The per-core deadlines that are armed,
// cancelled and re-armed all the time (timer channels, executor chunks)
// are not here: they are sim::Engine deadlines that share this queue's
// insertion sequence. The heap holds the one-shot events (kernel worker
// wakes, watchdogs, fault injection, the job channel), so it stays small
// and still scales to thousands of pending events. The 4-ary layout halves
// the tree depth of a binary heap and keeps children of a node on one cache
// line of indices.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace hpcsec::sim {

/// Handle identifying a scheduled event, usable for cancellation. The value
/// is opaque: it encodes the slab slot plus enough of the insertion sequence
/// to reject stale handles after the slot is recycled.
struct EventId {
    std::uint64_t seq = 0;
    [[nodiscard]] bool valid() const { return seq != 0; }
};

using EventFn = std::function<void()>;

/// Dispatch order of a pending event: earlier `when` first, then lower
/// `priority`, then the earlier insertion `order`.
struct EventKey {
    SimTime when = 0;
    int priority = 0;
    std::uint64_t order = 0;

    friend bool operator<(const EventKey& a, const EventKey& b) {
        if (a.when != b.when) return a.when < b.when;
        if (a.priority != b.priority) return a.priority < b.priority;
        return a.order < b.order;
    }
};

class EventQueue {
public:
    /// Lower `priority` runs first among events with equal timestamps.
    /// Ties break by an internally assigned insertion sequence.
    EventId schedule(SimTime when, int priority, EventFn fn);

    /// Cancel a pending event, removing it from the queue. Returns false if
    /// it already ran or was cancelled (cancelling an invalid or stale id is
    /// a harmless no-op).
    bool cancel(EventId id);

    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    /// Timestamp of the next event; kTimeNever when empty.
    [[nodiscard]] SimTime next_time() const {
        return heap_.empty() ? kTimeNever : slab_[heap_[0]].when;
    }

    /// Key of the next event. Precondition: !empty().
    [[nodiscard]] EventKey top_key() const { return key(heap_[0]); }

    /// Take the next insertion order for an event keyed outside the queue
    /// (an Engine deadline), so it ties with scheduled events by who came
    /// first.
    std::uint64_t take_order() { return next_order_++; }

    /// Pop and return the next event. Precondition: !empty().
    struct Popped {
        SimTime when;
        int priority;
        EventFn fn;
    };
    Popped pop();

private:
    // Slot index and sequence share the 64-bit handle: high 24 bits carry
    // slot+1 (so 0 stays the invalid id), low 40 bits the insertion
    // sequence, which disambiguates recycled slots.
    static constexpr int kSlotShift = 40;
    static constexpr std::uint64_t kSeqMask = (1ull << kSlotShift) - 1;

    struct Entry {
        SimTime when = 0;
        std::uint64_t order = 0;  ///< full insertion sequence (tie-break)
        std::uint64_t id = 0;     ///< composite handle; 0 while the slot is free
        EventFn fn;
        int priority = 0;
        /// Index of this slot in heap_ while pending; the next free slot
        /// (or kNoSlot) while free.
        std::uint32_t pos = 0;
    };
    static constexpr std::uint32_t kNoSlot = 0xffffffff;

    [[nodiscard]] EventKey key(std::uint32_t slot) const {
        const Entry& e = slab_[slot];
        return {e.when, e.priority, e.order};
    }

    [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
        return key(a) < key(b);
    }

    /// Put `slot` at heap index `pos` and record the index in its entry.
    void place(std::size_t pos, std::uint32_t slot) {
        heap_[pos] = slot;
        slab_[slot].pos = static_cast<std::uint32_t>(pos);
    }

    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
    /// Free the entry at heap index `pos` and restore the heap property.
    void remove_at(std::size_t pos);

    std::vector<Entry> slab_;
    std::vector<std::uint32_t> heap_;  ///< slab indices, 4-ary min-heap
    std::uint32_t free_head_ = kNoSlot;  ///< last freed slot, reused first
    std::uint64_t next_order_ = 1;
};

}  // namespace hpcsec::sim
