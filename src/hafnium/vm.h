// VM and VCPU state owned by the SPM.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/exec.h"
#include "arch/irq_bitset.h"
#include "arch/page_table.h"
#include "arch/types.h"
#include "hafnium/manifest.h"
#include "sim/arena.h"
#include "sim/time.h"

namespace hpcsec::hafnium {

enum class VcpuState : std::uint8_t {
    kOff,          ///< never started
    kReady,        ///< runnable, waiting for the primary to schedule it
    kRunning,      ///< currently on a physical core
    kBlocked,      ///< waiting for message/interrupt (FFA_MSG_WAIT / WFI)
    kAborted,      ///< faulted; will not run again
};

[[nodiscard]] const char* to_string(VcpuState s);

/// True when `from` -> `to` is a legal transition of the VCPU state
/// machine: kOff -> kReady -> kRunning <-> kBlocked, with kReady <-> kBlocked
/// for WFI parking/waking and kAborted as the terminal state reachable from
/// anywhere. Self-transitions are legal no-ops.
[[nodiscard]] constexpr bool vcpu_transition_legal(VcpuState from, VcpuState to) {
    if (from == to) return true;
    if (to == VcpuState::kAborted) return true;
    switch (from) {
        case VcpuState::kOff:
            return to == VcpuState::kReady;
        case VcpuState::kReady:
            return to == VcpuState::kRunning || to == VcpuState::kBlocked;
        case VcpuState::kRunning:
            return to == VcpuState::kReady || to == VcpuState::kBlocked;
        case VcpuState::kBlocked:
            return to == VcpuState::kReady;
        case VcpuState::kAborted:
            return false;  // terminal
    }
    return false;
}

/// Why control returned from a VCPU to the scheduler.
enum class ExitReason : std::uint8_t {
    kPreempted,   ///< physical interrupt for the primary
    kYield,       ///< guest voluntarily yielded its slice
    kBlocked,     ///< guest waits for message/interrupt
    kAborted,     ///< guest fault (e.g. stage-2 violation)
};

[[nodiscard]] const char* to_string(ExitReason r);

class Vm;

/// Para-virtual interrupt controller state, per VCPU (Hafnium's vGIC: the
/// "para-virtual interrupt controller interface" secondaries must use).
/// Bitmaps instead of std::set<int>: inject/drain on the dispatch hot loop
/// are single bit ops and next_deliverable is a word-wise intersection,
/// with the same ascending-id order the sets gave.
struct VGicState {
    arch::IrqBitset enabled;
    arch::IrqBitset pending;

    /// Next deliverable virtual interrupt, if any (lowest id first).
    [[nodiscard]] std::optional<int> next_deliverable() const {
        for (int w = 0; w < arch::IrqBitset::kWords; ++w) {
            const std::uint64_t hits = pending.word(w) & enabled.word(w);
            if (hits != 0) return w * 64 + std::countr_zero(hits);
        }
        return std::nullopt;
    }
};

class Vcpu;

/// Audit hook for VCPU state transitions (implemented by check::Auditor).
/// With no sink attached, observing costs two predicted branches per state
/// change — the same pattern as the obs recorder.
class VcpuAuditSink {
public:
    virtual ~VcpuAuditSink() = default;
    /// Invoked *before* the state is written, so the sink sees both sides.
    virtual void on_vcpu_state(Vcpu& vcpu, VcpuState from, VcpuState to) = 0;
};

/// The SPM's transition sinks. Arena-backed like its grant list, so
/// attaching an auditor never touches the global heap.
using AuditSinkList = std::vector<VcpuAuditSink*, sim::ArenaAllocator<VcpuAuditSink*>>;

class Vcpu {
public:
    Vcpu(Vm& vm, int index) : vm_(&vm), index_(index) {}

    [[nodiscard]] Vm& vm() { return *vm_; }
    [[nodiscard]] const Vm& vm() const { return *vm_; }
    [[nodiscard]] int index() const { return index_; }

    /// The scheduling state. Mutations go through set_state() so the state
    /// machine is auditable; the field itself cannot be written directly.
    [[nodiscard]] VcpuState state() const { return state_; }
    void set_state(VcpuState next) {
        if (audit_sinks_ != nullptr && !audit_sinks_->empty() && next != state_) {
            for (VcpuAuditSink* sink : *audit_sinks_) {
                sink->on_vcpu_state(*this, state_, next);
            }
        }
        state_ = next;
    }
    /// Report every transition to each sink in `sinks`, a list its owner
    /// (the SPM) keeps alive and edits in place.
    void set_audit_sinks(const AuditSinkList* sinks) {
        audit_sinks_ = sinks;
    }
    /// Core this VCPU is assigned to (primary VCPUs are pinned 1:1; secondary
    /// VCPUs get a default incremental spread that the primary may change).
    arch::CoreId assigned_core = -1;
    /// Core it is *currently executing* on, -1 when not running.
    arch::CoreId running_core = -1;

    /// The guest context that consumes CPU time when this VCPU runs
    /// (installed by the guest kernel model).
    arch::Runnable* guest_context = nullptr;

    VGicState vgic;

    /// Virtual-timer emulation: armed deadline in absolute sim time.
    bool vtimer_armed = false;
    sim::SimTime vtimer_deadline = sim::kTimeNever;

    // Statistics.
    sim::SimTime last_enter = 0;  ///< when the SPM last entered this VCPU
    std::uint64_t runs = 0;
    std::uint64_t preemptions = 0;

private:
    Vm* vm_;
    int index_;
    VcpuState state_ = VcpuState::kOff;
    const AuditSinkList* audit_sinks_ = nullptr;
};

class Vm {
public:
    /// VCPUs are carved out of `arena` as one contiguous array — the
    /// scheduler indexes them without pointer-chasing, and teardown is the
    /// platform arena's O(1) reset rather than per-object frees.
    /// `stage2_format` selects the stage-2 table geometry (ARMv8 4-level or
    /// Sv39x4 per the platform ISA).
    Vm(arch::VmId id, VmSpec spec, sim::Arena& arena,
       arch::PtFormat stage2_format = arch::PtFormat::armv8_4k());

    [[nodiscard]] arch::VmId id() const { return id_; }
    [[nodiscard]] const VmSpec& spec() const { return spec_; }
    [[nodiscard]] VmRole role() const { return spec_.role; }
    [[nodiscard]] arch::World world() const { return spec_.world; }
    [[nodiscard]] const std::string& name() const { return spec_.name; }

    /// Set when the partition was torn down at runtime (dynamic VMs). A
    /// destroyed VM keeps its ID (no reuse) but is no longer schedulable or
    /// translatable.
    bool destroyed = false;

    [[nodiscard]] int vcpu_count() const { return vcpu_count_; }
    [[nodiscard]] Vcpu& vcpu(int i) {
        check_vcpu_index(i);
        return vcpus_[i];
    }
    [[nodiscard]] const Vcpu& vcpu(int i) const {
        check_vcpu_index(i);
        return vcpus_[i];
    }

    /// Guest-physical memory layout. Secondaries see their RAM at IPA 0
    /// (fully virtualized view); the primary and super-secondary are
    /// identity-mapped (IPA == PA) so they can own devices, exactly like
    /// the reference Hafnium. `ipa_base` is where the RAM window starts in
    /// the VM's own address space.
    arch::PhysAddr mem_base = 0;
    arch::IpaAddr ipa_base = 0;
    [[nodiscard]] std::uint64_t mem_bytes() const { return spec_.mem_bytes; }

    /// Stage-2 translation table (the isolation boundary).
    arch::PageTable& stage2() { return stage2_; }
    const arch::PageTable& stage2() const { return stage2_; }

    /// FFA-style mailbox: guest-designated send/recv page IPAs.
    struct Mailbox {
        bool configured = false;
        arch::IpaAddr send_ipa = 0;
        arch::IpaAddr recv_ipa = 0;
        bool recv_full = false;
        std::uint32_t recv_size = 0;
        arch::VmId recv_from = 0;
    } mailbox;

private:
    void check_vcpu_index(int i) const;

    arch::VmId id_;
    VmSpec spec_;
    arch::PageTable stage2_;
    Vcpu* vcpus_ = nullptr;  ///< contiguous, arena-owned
    int vcpu_count_ = 0;
};

}  // namespace hpcsec::hafnium
