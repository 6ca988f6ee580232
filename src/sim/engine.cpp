#include "sim/engine.h"

#include <algorithm>
#include <utility>

namespace hpcsec::sim {

EventId Engine::at(SimTime when, EventFn fn, int priority) {
    if (when < now_) throw std::logic_error("Engine::at: scheduling in the past");
    return queue_.schedule(when, priority, std::move(fn));
}

EventId Engine::after(Cycles delay, EventFn fn, int priority) {
    return queue_.schedule(now_ + delay, priority, std::move(fn));
}

DeadlineId Engine::add_deadline(EventFn fn) {
    deadlines_.push_back(kDisarmed);
    deadline_fns_.push_back(std::move(fn));
    return static_cast<DeadlineId>(deadlines_.size() - 1);
}

void Engine::reserve_deadlines(std::size_t n) {
    deadlines_.reserve(n);
    deadline_fns_.reserve(n);
}

std::size_t Engine::pending_events() const {
    std::size_t n = queue_.size();
    for (DeadlineId i = 0; i < deadlines_.size(); ++i) n += armed(i) ? 1 : 0;
    return n;
}

DeadlineId Engine::earliest_deadline() const {
    DeadlineId best = kNoDeadline;
    EventKey best_key = kDisarmed;
    for (DeadlineId i = 0; i < deadlines_.size(); ++i) {
        if (deadlines_[i] < best_key) {
            best_key = deadlines_[i];
            best = i;
        }
    }
    return best;
}

void Engine::count_dispatch(SimTime when, int priority) {
    now_ = when;
    ++executed_;
    auto it = by_priority_.begin();
    for (; it != by_priority_.end() && it->priority < priority; ++it) {}
    if (it == by_priority_.end() || it->priority != priority) {
        // sca-suppress(hot-path-alloc): one entry per event priority, added
        // on the first dispatch at that priority.
        it = by_priority_.insert(it, {priority, 0});
    }
    ++it->executed;
    if (probe_ != nullptr) [[unlikely]] probe_->on_dispatch(now_, priority);
}

bool Engine::dispatch_one(SimTime limit) {
    const DeadlineId d = earliest_deadline();
    if (!queue_.empty() && (d == kNoDeadline || queue_.top_key() < deadlines_[d])) {
        if (queue_.next_time() > limit) return false;
        auto [when, priority, fn] = queue_.pop();
        count_dispatch(when, priority);
        fn();
        return true;
    }
    if (d == kNoDeadline || deadlines_[d].when > limit) return false;
    const EventKey key = deadlines_[d];
    deadlines_[d] = kDisarmed;  // before the callback, which may re-arm it
    count_dispatch(key.when, key.priority);
    deadline_fns_[d]();
    return true;
}

void Engine::run() {
    stopped_ = false;
    while (!stopped_ && dispatch_one(kTimeNever)) {}
}

void Engine::run_until(SimTime deadline) {
    stopped_ = false;
    // An event at kTimeNever is never due here, even for deadline == kTimeNever.
    const SimTime limit = std::min(deadline, kTimeNever - 1);
    while (!stopped_ && dispatch_one(limit)) {}
    if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace hpcsec::sim
