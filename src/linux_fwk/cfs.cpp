#include "linux_fwk/cfs.h"

#include <algorithm>

namespace hpcsec::linux_fwk {

void CfsRunqueue::enqueue(SchedEntity& se, bool wakeup) {
    if (wakeup) {
        // Sleeper fairness: a waking task is placed slightly behind
        // min_vruntime so it competes immediately (and often preempts) —
        // this is precisely the behaviour that lets kworkers elbow in
        // front of VCPU threads.
        const double credit = tun_.sched_latency_cycles / 2.0;
        se.vruntime = std::max(se.vruntime, min_vruntime_ - credit);
    }
    se.state = SchedEntity::State::kQueued;
    insert_sorted(se);
}

void CfsRunqueue::insert_sorted(SchedEntity& se) {
    const ByVruntime less;
    // Walk up from the leftmost end past every entity ordered before `se`.
    auto pos = queue_.end();
    while (pos != queue_.begin() && less(*(pos - 1), &se)) --pos;
    if (pos != queue_.begin() && !less(&se, *(pos - 1))) return;  // key already queued
    // sca-suppress(hot-path-alloc): a core queues one to three entities, and
    // the capacity reached in warm-up keeps requeues off the heap.
    queue_.insert(pos, &se);
}

void CfsRunqueue::dequeue(SchedEntity& se) {
    const ByVruntime less;
    const auto it = std::find_if(queue_.begin(), queue_.end(), [&](const SchedEntity* q) {
        return !less(q, &se) && !less(&se, q);
    });
    if (it != queue_.end()) queue_.erase(it);
}

SchedEntity* CfsRunqueue::pick_next() {
    if (queue_.empty()) return nullptr;
    SchedEntity* se = queue_.back();
    queue_.pop_back();
    se->state = SchedEntity::State::kRunning;
    min_vruntime_ = std::max(min_vruntime_, se->vruntime);
    return se;
}

void CfsRunqueue::put_prev(SchedEntity& se) {
    se.state = SchedEntity::State::kQueued;
    insert_sorted(se);
}

void CfsRunqueue::update_curr(SchedEntity& se, double delta_cycles) {
    se.vruntime += delta_cycles * static_cast<double>(kNiceZeroWeight) /
                   static_cast<double>(se.weight);
    min_vruntime_ = std::max(min_vruntime_, std::min(se.vruntime, queue_.empty()
                                                        ? se.vruntime
                                                        : queue_.back()->vruntime));
}

bool CfsRunqueue::should_preempt(const SchedEntity& curr) const {
    if (queue_.empty()) return false;
    return queue_.back()->vruntime + tun_.wakeup_granularity_cycles < curr.vruntime;
}

}  // namespace hpcsec::linux_fwk
