// The Secure Partition Manager (Hafnium model), executing at EL2.
//
// Responsibilities mirror the reference implementation the paper describes:
//  * boot-time construction of per-VM stage-2 tables from a static manifest
//    (memory isolation is hardware-enforced from that point on);
//  * a core-local hypercall interface — HF_VCPU_RUN only ever context
//    switches the calling core;
//  * VM exit handling: most exits are internal (virtual timers), only timer
//    and device IRQs bounce to the primary VM;
//  * the paper's super-secondary extension: a semi-privileged VM that owns
//    the MMIO map and receives device IRQs (forwarded by the primary, or
//    directly under the selective-routing policy);
//  * FFA-style mailboxes and memory sharing between partitions.
//
// Deliberately *not* here, matching Hafnium's design: a CPU scheduler (the
// primary VM owns scheduling) and I/O virtualization.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/platform.h"
#include "crypto/sha256.h"
#include "hafnium/abi.h"
#include "hafnium/hypercall.h"
#include "hafnium/intercept.h"
#include "hafnium/interfaces.h"
#include "hafnium/irq_router.h"
#include "hafnium/manifest.h"
#include "hafnium/vm.h"

namespace hpcsec::check {
struct CorruptionAccess;  // fault injection backdoor (src/check/corrupt.h)
}  // namespace hpcsec::check

namespace hpcsec::hafnium {

class Spm {
public:
    struct Stats {
        std::uint64_t hypercalls = 0;
        std::uint64_t world_switches = 0;
        std::uint64_t vm_exits = 0;
        std::uint64_t exits_preempted = 0;
        std::uint64_t exits_blocked = 0;
        std::uint64_t exits_yield = 0;
        std::uint64_t exits_aborted = 0;
        std::uint64_t virq_injections = 0;
        std::uint64_t vtimer_fires = 0;
        std::uint64_t forwarded_device_irqs = 0;
        std::uint64_t denied_calls = 0;
        std::uint64_t bad_state_calls = 0;  ///< kBusy: call illegal in the current state
        std::uint64_t invalid_calls = 0;    ///< kInvalid at the gate: unknown call
                                            ///< number or failed typed decode
        std::uint64_t messages = 0;
        std::uint64_t guest_aborts = 0;
        std::uint64_t mem_grants = 0;   ///< successful FFA_MEM_SHARE/LEND
        std::uint64_t mem_revokes = 0;  ///< reclaims + teardown revocations
        std::uint64_t mem_donates = 0;  ///< successful FFA_MEM_DONATE
        std::uint64_t tag_violations = 0;  ///< DFITAGCHECK hits on guest paths
    };

    Spm(arch::Platform& platform, Manifest manifest,
        IrqRoutingPolicy policy = IrqRoutingPolicy::kAllToPrimary);
    /// Core handlers capture `this`, and every VCPU points at the sink
    /// list: an Spm stays where it was built.
    Spm(const Spm&) = delete;
    Spm& operator=(const Spm&) = delete;

    /// EL2 boot: validate manifest, measure images, allocate VM memory,
    /// build stage-2 tables, map MMIO into the I/O-owning VM, take over the
    /// exception vectors, power on all cores. Throws on manifest errors.
    /// Boot consumes the manifest: each entry moves into its Vm, so the
    /// image lives once, in Vm::spec().
    void boot();
    [[nodiscard]] bool booted() const { return booted_; }

    void attach_primary(PrimaryOsItf* os) { primary_os_ = os; }
    void attach_guest(arch::VmId vm, GuestOsItf* os);

    // --- dynamic partitioning (paper §VII future work) -----------------------
    /// Create a secondary partition after boot: allocate memory, build its
    /// stage-2 tables, measure the image. Image authenticity is the caller's
    /// responsibility (core::Node gates this on signature verification —
    /// "Hafnium is able to verify VM signatures using a known public key").
    /// Returns the new VM id. Throws on invalid spec or memory exhaustion.
    arch::VmId create_vm(const VmSpec& spec);

    /// Tear a dynamic (or boot-time secondary) partition down: every VCPU
    /// must be off the cores; grants are revoked, stage-2 mappings removed,
    /// and the frames it owns returned to the allocator, which scrubs them.
    /// Throws if the VM is the primary/super-secondary or still running.
    void destroy_vm(arch::VmId id);

    // --- the hypercall gate --------------------------------------------------
    /// Privilege bits: which VmRole may issue a call. A row's mask is
    /// checked uniformly in the gate; a miss answers kDenied and counts
    /// Stats::denied_calls.
    static constexpr std::uint8_t kRolePrimary = 1u << 0;
    static constexpr std::uint8_t kRoleSuperSecondary = 1u << 1;
    static constexpr std::uint8_t kRoleSecondary = 1u << 2;
    static constexpr std::uint8_t kAnyRole =
        kRolePrimary | kRoleSuperSecondary | kRoleSecondary;

    /// One row per hafnium::Call: the complete, declarative description of
    /// a hypercall. `invoke` is a thunk that decodes the typed request
    /// (kInvalid on range failure) and calls the member handler.
    /// tools/sca proves the table covers every Call enumerator.
    struct CallDescriptor {
        Call call;
        std::uint8_t privilege;
        HfResult (*invoke)(Spm&, arch::CoreId, arch::VmId, const HfArgs&);
    };

    /// The dispatch table, in call-number order.
    [[nodiscard]] static const std::array<CallDescriptor, kCallCount>& call_table();
    /// Descriptor for `call`, nullptr for numbers outside the ABI.
    [[nodiscard]] static const CallDescriptor* descriptor(Call call);

    /// The hypercall gate. `core` is the calling physical core (the
    /// interface is core local), `caller` the calling VM. Order: interceptor
    /// before() hooks (ascending stage), then unknown-call / caller-validity
    /// / privilege-mask / typed-decode checks, then the handler, then
    /// after() hooks (descending stage). Malformed input never escapes the
    /// gate: unknown numbers and failed decodes answer kInvalid.
    HfResult hypercall(arch::CoreId core, arch::VmId caller, Call call,
                       HfArgs args = {});

    /// Attach an interceptor (sorted by Stage, stable within a stage).
    /// Attaching the same interceptor twice is a no-op.
    void attach_interceptor(HypercallInterceptor* interceptor);
    /// Detach; unknown pointers are ignored.
    void detach_interceptor(HypercallInterceptor* interceptor);
    [[nodiscard]] const std::vector<HypercallInterceptor*>& interceptors() const {
        return interceptors_;
    }

    // --- topology ------------------------------------------------------------
    [[nodiscard]] int vm_count() const { return static_cast<int>(vms_.size()); }
    [[nodiscard]] Vm& vm(arch::VmId id);
    [[nodiscard]] Vm* find_vm(const std::string& name);
    [[nodiscard]] Vm& primary_vm() { return vm(arch::kPrimaryVmId); }
    [[nodiscard]] Vm* super_secondary();
    [[nodiscard]] arch::Platform& platform() { return *platform_; }

    /// VCPU currently executing on `core` (nullptr when the core belongs to
    /// the primary). Ground truth for the checker's core-locality rule.
    [[nodiscard]] const Vcpu* running_vcpu(arch::CoreId core) const {
        return vcpu_on_core_.at(static_cast<std::size_t>(core));
    }

    /// Attach a VCPU state-transition audit sink. Every VCPU, of VMs
    /// admitted before or after, reports each transition to every attached
    /// sink. Attaching the same sink twice is a no-op. Hypercall-level
    /// auditing goes through the interceptor chain — check::Auditor
    /// registers as both.
    void attach_audit(VcpuAuditSink* sink);
    /// Detach; unknown pointers are ignored.
    void detach_audit(VcpuAuditSink* sink);
    [[nodiscard]] const AuditSinkList& audit_sinks() const {
        return audit_sinks_;
    }

    // --- guest-side services (called by guest kernel models) -----------------
    /// Install/replace the runnable that consumes CPU when `vcpu` runs.
    void set_guest_context(Vcpu& vcpu, arch::Runnable* ctx);
    /// Mark a fresh VCPU schedulable.
    void make_vcpu_ready(Vcpu& vcpu);
    /// Wake a blocked VCPU (message, barrier, injected interrupt).
    void wake_vcpu(Vcpu& vcpu);

    /// Forcibly pull a VCPU off its core (management path for stop/destroy).
    /// No world-switch cost is charged to the guest; the core context
    /// returns to the primary. With `notify_primary` (the default) the
    /// primary receives a kYield exit so its proxy bookkeeping stays
    /// coherent; teardown paths pass false and reap the proxies themselves.
    /// No-op when the VCPU is not running.
    void force_stop_vcpu(Vcpu& vcpu, bool notify_primary = true);

    /// Guest memory access with fault semantics: checks the VM's stage-2
    /// (and TrustZone) for `ipa`; on a fault while the VCPU is running the
    /// SPM takes the data abort — the VCPU is killed and the primary gets a
    /// kAborted exit, exactly how Hafnium treats stage-2 violations.
    /// Returns true when the access is allowed.
    bool guest_access(Vcpu& vcpu, arch::IpaAddr ipa, arch::Access access);

    /// Abort a running/ready VCPU (stage-2 violation, undefined sysreg
    /// access to a blocked feature, ...). Safe from any context.
    void abort_vcpu(Vcpu& vcpu);

    // --- functional guest memory (through stage-2, for tests/channels) -------
    bool vm_read64(arch::VmId id, arch::IpaAddr ipa, std::uint64_t& out);
    bool vm_write64(arch::VmId id, arch::IpaAddr ipa, std::uint64_t value);
    /// Translate an IPA through a VM's stage-2 (functional walk).
    [[nodiscard]] arch::WalkResult vm_translate(arch::VmId id, arch::IpaAddr ipa);

    [[nodiscard]] const Stats& stats() const { return stats_; }

    /// Push Stats into the platform's metrics registry as "hf.*" gauges.
    /// The first call registers them, in Stats field order; later calls
    /// set them by handle and allocate nothing (a strict audit calls this
    /// after every hypercall).
    void publish_metrics();

    /// Image measurements in admission order (attestation input): entry
    /// `id - 1` is VM `id`'s, for boot-time and runtime-created VMs alike.
    [[nodiscard]] const std::vector<std::pair<std::string, crypto::Digest>>&
    measurements() const {
        return measurements_;
    }

    /// MMIO regions mapped into a VM (device assignment ground truth).
    [[nodiscard]] std::vector<std::string> devices_of(arch::VmId id) const;

    struct ShareGrant {
        arch::VmId owner;
        arch::VmId borrower;
        arch::IpaAddr owner_ipa;
        arch::IpaAddr borrower_ipa;
        std::uint64_t pages;
        bool exclusive = false;  ///< FFA_MEM_LEND: the owner loses access
    };
    /// Grant storage lives in the platform arena: share/lend churn in the
    /// steady state reuses arena space instead of reallocating on the heap.
    using GrantList = std::vector<ShareGrant, sim::ArenaAllocator<ShareGrant>>;
    [[nodiscard]] const GrantList& grants() const { return grants_; }

    // --- integrity tagging (HDFI-style; the "detect" of detect→contain→
    // recover) ----------------------------------------------------------------

    /// One tagged block of SPM-critical state. `measurement` is the SHA-256
    /// of the block's content at tagging time; recovery re-verifies against
    /// it before the frames may be trusted again.
    struct CriticalRegion {
        std::string name;
        arch::PhysAddr base = 0;
        std::uint64_t pages = 0;
        crypto::Digest measurement{};
        bool embargoed = false;  ///< re-verification failed; never reuse
    };

    /// Everything a containment policy needs to know about one violation.
    struct TagViolation {
        arch::VmId offender = 0;
        arch::IpaAddr ipa = 0;
        arch::PhysAddr pa = 0;
        arch::Access access = arch::Access::kRead;
        std::string region;  ///< critical-region name, "" if untracked frame
    };

    /// Arm integrity protection: allocate, deterministically fill, measure
    /// and tag one hypervisor-owned frame block per piece of SPM-critical
    /// state — per-VM stage-2 table frames, the attestation log, the Lamport
    /// key material and the manifest. Off by default so the tags-off hot
    /// path stays at its one-predicted-branch floor; idempotent.
    void protect_critical_state();
    [[nodiscard]] bool critical_armed() const { return critical_armed_; }
    [[nodiscard]] const std::vector<CriticalRegion>& critical_regions() const {
        return critical_;
    }
    [[nodiscard]] const CriticalRegion* find_critical(const std::string& name) const;

    /// Recovery step: recompute the region's content hash and compare with
    /// the measurement taken at tagging time. A mismatch embargoes the
    /// region (its frames must never be reused) and returns false.
    bool reverify_critical(const std::string& name);

    /// Detect → contain handoff, invoked after every recorded tag violation.
    /// resil::ContainmentEngine subscribes here; unset costs nothing (the
    /// whole check is behind the tagged-frame lookup).
    std::function<void(const TagViolation&)> tag_violation_hook;

private:
    friend struct hpcsec::check::CorruptionAccess;

    /// The one admission path behind boot() and create_vm(): arena-make the
    /// VM with the next id (the spec, image included, moves into it),
    /// allocate its frames, map its RAM (IPA 0 for secondaries, identity
    /// otherwise), spread its VCPUs over the cores and register it with
    /// `measurement`, the image digest its caller checked the spec against.
    Vm& admit(VmSpec spec, const crypto::Digest& measurement);

    /// The uniform gate body: descriptor lookup, caller validity, privilege
    /// mask, typed decode, handler. Charges nothing itself.
    HfResult dispatch(arch::CoreId core, arch::VmId caller, Call call,
                      const HfArgs& args);
    /// Slow path when interceptors are attached: before() chain (ascending
    /// stage, short-circuit capable), dispatch, after() chain (descending).
    HfResult hypercall_intercepted(arch::CoreId core, arch::VmId caller,
                                   Call call, const HfArgs& args);

    template <typename Req,
              HfResult (Spm::*Handler)(arch::CoreId, arch::VmId, const Req&)>
    static HfResult invoke_thunk(Spm& spm, arch::CoreId core, arch::VmId caller,
                                 const HfArgs& args) {
        Req req;
        if (!Req::decode(args, req)) {
            ++spm.stats_.invalid_calls;
            return {HfError::kInvalid, 0};
        }
        return (spm.*Handler)(core, caller, req);
    }

    void handle_phys_irq(arch::CoreId core, int irq);
    void enter_vcpu(arch::CoreId core, Vcpu& vcpu, sim::Cycles base_cost);
    void exit_vcpu(arch::CoreId core, Vcpu& vcpu, ExitReason reason,
                   sim::Cycles cost);
    void on_core_idle(arch::CoreId core, arch::Runnable* finished);
    /// Deliver pending virqs to a *running-on-this-core* vcpu; returns cost.
    sim::Cycles drain_virqs(Vcpu& vcpu);
    void inject_virq(Vcpu& vcpu, int virq);
    [[nodiscard]] Vcpu* running_vcpu_on(arch::CoreId core);
    /// Guest personality for `id`, nullptr when none attached (or torn down).
    [[nodiscard]] GuestOsItf* find_guest_os(arch::VmId id);
    /// Point `core`'s profiler context and TrustZone world at `vm`.
    void set_core_context(arch::CoreId core, const Vm& vm);

    // Typed call handlers, one per table row. Privilege and argument range
    // checks already happened in the gate; handlers do semantic validation
    // (target exists, state machine, ownership) and the work.
    HfResult on_version(arch::CoreId core, arch::VmId caller, const abi::Empty&);
    HfResult on_vm_get_count(arch::CoreId core, arch::VmId caller,
                             const abi::Empty&);
    HfResult on_vcpu_get_count(arch::CoreId core, arch::VmId caller,
                               const abi::VcpuGetCountArgs& a);
    HfResult on_vm_get_info(arch::CoreId core, arch::VmId caller,
                            const abi::VmGetInfoArgs& a);
    HfResult on_vcpu_run(arch::CoreId core, arch::VmId caller,
                         const abi::VcpuRunArgs& a);
    HfResult on_vm_configure(arch::CoreId core, arch::VmId caller,
                             const abi::VmConfigureArgs& a);
    HfResult on_msg_send(arch::CoreId core, arch::VmId caller,
                         const abi::MsgSendArgs& a);
    HfResult on_msg_wait(arch::CoreId core, arch::VmId caller, const abi::Empty&);
    HfResult on_yield(arch::CoreId core, arch::VmId caller, const abi::Empty&);
    HfResult on_rx_release(arch::CoreId core, arch::VmId caller,
                           const abi::Empty&);
    HfResult on_mem_share(arch::CoreId core, arch::VmId caller,
                          const abi::MemShareArgs& a);
    HfResult on_mem_lend(arch::CoreId core, arch::VmId caller,
                         const abi::MemLendArgs& a);
    HfResult on_mem_donate(arch::CoreId core, arch::VmId caller,
                           const abi::MemDonateArgs& a);
    HfResult on_mem_reclaim(arch::CoreId core, arch::VmId caller,
                            const abi::MemReclaimArgs& a);
    HfResult on_interrupt_enable(arch::CoreId core, arch::VmId caller,
                                 const abi::InterruptEnableArgs& a);
    HfResult on_interrupt_get(arch::CoreId core, arch::VmId caller,
                              const abi::Empty&);
    HfResult on_interrupt_inject(arch::CoreId core, arch::VmId caller,
                                 const abi::InterruptInjectArgs& a);
    HfResult on_vtimer_set(arch::CoreId core, arch::VmId caller,
                           const abi::VtimerSetArgs& a);
    HfResult on_vtimer_cancel(arch::CoreId core, arch::VmId caller,
                              const abi::VtimerCancelArgs& a);

    enum class MemSend : std::uint8_t { kShare, kLend, kDonate };
    /// The one FF-A memory transaction behind FFA_MEM_SHARE, _LEND and
    /// _DONATE: the same checks, in the same order, for every kind
    /// (docs/ABI.md, "Memory transactions"), then the kind's effects.
    HfResult mem_send(arch::VmId caller, const abi::MemShareArgs& a, MemSend kind);
    /// Undo one share or lend: unmap the borrower window, give a lender its
    /// RWX back, count it. Returns the next grant. FFA_MEM_RECLAIM and
    /// destroy_vm both revoke through here.
    GrantList::iterator revoke(GrantList::iterator grant);

    /// The stage-2 check every SPM-mediated guest access runs, in order:
    /// walk, permissions, TrustZone world, DFITAGCHECK. Returns the PA, or
    /// nullopt when any step faults.
    std::optional<arch::PhysAddr> stage2_access(const Vm& vm, arch::IpaAddr ipa,
                                                arch::Access access);
    /// DFITAGCHECK, the last step of stage2_access. True when the access is
    /// clean; a violation counts, records, fires the hook and returns false.
    /// One predicted branch when no frame is tagged.
    bool tag_check(arch::VmId accessor, arch::IpaAddr ipa, arch::PhysAddr pa,
                   arch::Access access);
    /// Allocate + fill + measure + tag one critical region.
    void protect_new_region(const std::string& name, std::uint64_t pages);
    /// Free a critical region (per-VM stage-2 table block on partition
    /// teardown); freeing drops its tags and scrubs it. Embargoed regions
    /// keep their frames forever.
    void release_critical(const std::string& name);
    [[nodiscard]] crypto::Digest measure_region(arch::PhysAddr base,
                                                std::uint64_t pages) const;

    arch::Platform* platform_;
    Manifest manifest_;  ///< empty once boot() has admitted its entries
    IrqRouter router_;
    bool booted_ = false;

    std::vector<Vm*> vms_;  // index = id - 1; objects live in the platform arena
    PrimaryOsItf* primary_os_ = nullptr;
    std::unordered_map<arch::VmId, GuestOsItf*> guest_os_;
    std::unordered_map<arch::Runnable*, Vcpu*> ctx_to_vcpu_;
    std::vector<Vcpu*> vcpu_on_core_;  // running vcpu per core, nullptr if none

    std::vector<std::pair<std::string, crypto::Digest>> measurements_;
    GrantList grants_;
    std::map<arch::VmId, std::vector<std::string>> device_map_;
    std::vector<CriticalRegion> critical_;
    bool critical_armed_ = false;
    Stats stats_;
    /// Transition sinks; every admitted VCPU points at this one list.
    AuditSinkList audit_sinks_;
    std::vector<HypercallInterceptor*> interceptors_;  ///< sorted by Stage
    obs::MetricsRegistry::Handle vcpu_run_hist_ = 0;  ///< hf.vcpu_run_us
    /// publish_metrics' "hf.*" gauges, one per Stats field in field order.
    std::array<obs::MetricsRegistry::Handle, 19> stats_gauges_{};
    bool stats_gauges_registered_ = false;
};

}  // namespace hpcsec::hafnium
