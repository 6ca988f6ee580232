#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace hpcsec::sim {

EventId EventQueue::schedule(SimTime when, int priority, EventFn fn) {
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
        slot = free_head_;
        free_head_ = slab_[slot].pos;
    } else {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    const std::uint64_t order = take_order();
    Entry& e = slab_[slot];
    e.when = when;
    e.order = order;
    e.id = (static_cast<std::uint64_t>(slot) + 1) << kSlotShift | (order & kSeqMask);
    e.fn = std::move(fn);
    e.priority = priority;

    heap_.push_back(slot);
    sift_up(heap_.size() - 1);
    return EventId{e.id};
}

bool EventQueue::cancel(EventId id) {
    const std::uint64_t slot_part = id.seq >> kSlotShift;
    if (slot_part == 0 || slot_part > slab_.size()) return false;
    const Entry& e = slab_[static_cast<std::size_t>(slot_part - 1)];
    if (e.id != id.seq) return false;  // ran, cancelled, or stale
    remove_at(e.pos);
    return true;
}

void EventQueue::sift_up(std::size_t pos) {
    const std::uint32_t slot = heap_[pos];
    while (pos != 0) {
        const std::size_t parent = (pos - 1) >> 2;
        if (!before(slot, heap_[parent])) break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, slot);
}

void EventQueue::sift_down(std::size_t pos) {
    const std::size_t n = heap_.size();
    const std::uint32_t slot = heap_[pos];
    for (;;) {
        const std::size_t first_child = 4 * pos + 1;
        if (first_child >= n) break;
        const std::size_t last_child = std::min(first_child + 4, n);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], slot)) break;
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, slot);
}

void EventQueue::remove_at(std::size_t pos) {
    const std::uint32_t slot = heap_[pos];
    Entry& e = slab_[slot];
    e.id = 0;
    e.fn = nullptr;  // release captured resources immediately
    e.pos = free_head_;
    free_head_ = slot;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;  // the removed entry was the last leaf
    // The last leaf fills the hole. It may come from another subtree, so it
    // can belong above the hole as well as below it.
    heap_[pos] = last;
    if (pos != 0 && before(last, heap_[(pos - 1) >> 2])) {
        sift_up(pos);
    } else {
        sift_down(pos);
    }
}

EventQueue::Popped EventQueue::pop() {
    Entry& top = slab_[heap_[0]];
    Popped out{top.when, top.priority, std::move(top.fn)};
    remove_at(0);
    return out;
}

}  // namespace hpcsec::sim
