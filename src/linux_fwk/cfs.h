// CFS-style fair scheduler model.
//
// This is the commodity baseline the paper replaces: vruntime-ordered
// entities, sleeper fairness credit on wakeup, wakeup-granularity preemption
// checks — the behaviours that make the Linux scheduler "optimized around a
// time-shared process based model" and noisy for VM workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/exec.h"
#include "arch/types.h"

namespace hpcsec::hafnium {
class Vcpu;
}

namespace hpcsec::linux_fwk {

inline constexpr int kNiceZeroWeight = 1024;

struct SchedEntity {
    enum class Kind : std::uint8_t { kVcpuProxy, kKworker, kKsoftirqd, kTask };
    enum class State : std::uint8_t { kQueued, kRunning, kBlocked, kExited };

    std::string name;
    Kind kind = Kind::kTask;
    State state = State::kBlocked;
    arch::CoreId core = 0;
    int weight = kNiceZeroWeight;
    double vruntime = 0.0;  ///< weight-normalized virtual runtime (cycles)
    arch::Runnable* ctx = nullptr;
    hafnium::Vcpu* vcpu = nullptr;
};

/// One per core (no load balancing in the model; entities are pinned, which
/// matches how VCPU threads are typically affinitized in HPC deployments).
class CfsRunqueue {
public:
    struct Tunables {
        double sched_latency_cycles = 6'600'000;      // 6 ms @1.1 GHz
        double min_granularity_cycles = 825'000;      // 0.75 ms
        double wakeup_granularity_cycles = 1'100'000; // 1 ms
    };

    CfsRunqueue() = default;
    explicit CfsRunqueue(const Tunables& tun) : tun_(tun) {}

    void enqueue(SchedEntity& se, bool wakeup);
    void dequeue(SchedEntity& se);

    /// Pick the leftmost entity and mark it running. nullptr when empty.
    SchedEntity* pick_next();

    /// Put the previously running entity back into the queue.
    void put_prev(SchedEntity& se);

    /// Account `delta` cycles of runtime to the running entity.
    void update_curr(SchedEntity& se, double delta_cycles);

    /// True when the leftmost queued entity should preempt `curr`.
    [[nodiscard]] bool should_preempt(const SchedEntity& curr) const;

    [[nodiscard]] std::size_t queued() const { return queue_.size(); }
    [[nodiscard]] double min_vruntime() const { return min_vruntime_; }
    [[nodiscard]] const SchedEntity* leftmost() const {
        return queue_.empty() ? nullptr : queue_.back();
    }

private:
    struct ByVruntime {
        bool operator()(const SchedEntity* a, const SchedEntity* b) const {
            if (a->vruntime != b->vruntime) return a->vruntime < b->vruntime;
            return a->name < b->name;  // deterministic tiebreak
        }
    };

    /// Set semantics over ByVruntime: an entity whose key is already queued
    /// is not queued twice.
    void insert_sorted(SchedEntity& se);

    Tunables tun_{};
    /// Queued entities in descending ByVruntime order, so the leftmost is
    /// at the back. A core queues one to three entities, where a linear
    /// insert into a vector beats a tree, and the capacity it reaches in
    /// warm-up keeps requeues off the heap.
    std::vector<SchedEntity*> queue_;
    double min_vruntime_ = 0.0;
};

}  // namespace hpcsec::linux_fwk
