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
    tree_.insert(&se);
}

void CfsRunqueue::dequeue(SchedEntity& se) { tree_.erase(&se); }

SchedEntity* CfsRunqueue::pick_next() {
    if (tree_.empty()) return nullptr;
    SchedEntity* se = *tree_.begin();
    tree_.erase(tree_.begin());
    se->state = SchedEntity::State::kRunning;
    min_vruntime_ = std::max(min_vruntime_, se->vruntime);
    return se;
}

void CfsRunqueue::put_prev(SchedEntity& se) {
    se.state = SchedEntity::State::kQueued;
    tree_.insert(&se);
}

void CfsRunqueue::update_curr(SchedEntity& se, double delta_cycles) {
    se.vruntime += delta_cycles * static_cast<double>(kNiceZeroWeight) /
                   static_cast<double>(se.weight);
    min_vruntime_ = std::max(min_vruntime_, std::min(se.vruntime, tree_.empty()
                                                        ? se.vruntime
                                                        : (*tree_.begin())->vruntime));
}

bool CfsRunqueue::should_preempt(const SchedEntity& curr) const {
    if (tree_.empty()) return false;
    const SchedEntity* left = *tree_.begin();
    return left->vruntime + tun_.wakeup_granularity_cycles < curr.vruntime;
}

}  // namespace hpcsec::linux_fwk
