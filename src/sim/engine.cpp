#include "sim/engine.h"

#include <utility>

namespace hpcsec::sim {

EventId Engine::at(SimTime when, EventFn fn, int priority) {
    if (when < now_) throw std::logic_error("Engine::at: scheduling in the past");
    return queue_.schedule(when, priority, std::move(fn));
}

EventId Engine::after(Cycles delay, EventFn fn, int priority) {
    return queue_.schedule(now_ + delay, priority, std::move(fn));
}

void Engine::dispatch_one() {
    auto [when, priority, fn] = queue_.pop();
    now_ = when;
    ++executed_;
    auto it = by_priority_.begin();
    for (; it != by_priority_.end() && it->priority < priority; ++it) {}
    if (it == by_priority_.end() || it->priority != priority) {
        it = by_priority_.insert(it, {priority, 0});
    }
    ++it->executed;
    if (probe_ != nullptr) [[unlikely]] probe_->on_dispatch(now_, priority);
    fn();
}

void Engine::run() {
    stopped_ = false;
    while (!stopped_ && !queue_.empty()) dispatch_one();
}

void Engine::run_until(SimTime deadline) {
    stopped_ = false;
    while (!stopped_) {
        const SimTime next = queue_.next_time();
        if (next == kTimeNever || next > deadline) break;
        dispatch_one();
    }
    if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace hpcsec::sim
