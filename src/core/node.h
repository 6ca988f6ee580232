// hpcsec::core::Node — the paper's system, assembled.
//
// A Node is one securely partitioned compute node: the ARM platform, the
// Hafnium SPM, a scheduling primary VM (Kitten or Linux), an isolated
// compute VM running a Kitten guest, and optionally the super-secondary
// "login" VM that owns I/O and drives job control. A Node can also be
// built in the native configuration (Kitten on bare metal, no hypervisor),
// which is the paper's baseline.
//
// This is the public entry point of the library; see examples/quickstart.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "check/check.h"
#include "core/attest.h"
#include "core/signature.h"
#include "hafnium/spm.h"
#include "kitten/guest.h"
#include "kitten/kitten.h"
#include "linux_fwk/guest.h"
#include "linux_fwk/linux.h"
#include "workloads/selfish.h"
#include "workloads/workload.h"

namespace hpcsec::core {

/// Which kernel schedules the node (the paper's three configurations).
enum class SchedulerKind : std::uint8_t {
    kNativeKitten,   ///< Fig. 4 baseline: Kitten on bare metal
    kKittenPrimary,  ///< Fig. 5: Kitten secondary VM, Kitten scheduler VM
    kLinuxPrimary,   ///< Fig. 6: Kitten secondary VM, Linux scheduler VM
};

[[nodiscard]] std::string to_string(SchedulerKind k);

struct NodeConfig {
    arch::PlatformConfig platform = arch::PlatformConfig::pine_a64();
    SchedulerKind scheduler = SchedulerKind::kKittenPrimary;
    std::uint64_t seed = 42;

    /// Compute (secondary) VM shape. vcpus == 0 means one per core.
    std::uint64_t compute_mem_bytes = 256ull << 20;
    int compute_vcpus = 0;
    /// Place the compute VM in the TrustZone secure world (requires a
    /// secure RAM carve-out in the platform config).
    bool secure_compute_vm = false;

    /// Host the Linux login VM (the paper's super-secondary extension).
    bool with_super_secondary = false;
    std::uint64_t login_mem_bytes = 128ull << 20;
    hafnium::IrqRoutingPolicy routing = hafnium::IrqRoutingPolicy::kAllToPrimary;

    kitten::KittenConfig kitten{};
    linux_fwk::LinuxConfig linux{};
    kitten::GuestConfig guest{};
    linux_fwk::LinuxGuestConfig login{};

    /// Isolation-invariant auditor (src/check). kOff keeps the audit hooks
    /// detached (their cost is one predicted branch per site); kSampled
    /// scans every `check_period` hypercalls or every
    /// check::Auditor::Options::event_period sim events; kStrict scans every
    /// hypercall and throws on a violation.
    check::Mode check_mode = check::Mode::kOff;
    int check_period = 64;

    /// Attach a CallMetricsInterceptor at boot: per-call-number invocation
    /// and error counters published as "hf.call.*" / "hf.call_err.*".
    bool call_metrics = false;

    /// Arm HDFI-style integrity tags over SPM-critical state at boot
    /// (Spm::protect_critical_state): stage-2 table frames, attestation log,
    /// Lamport key material, manifest. Off by default so the tags-off hot
    /// path keeps its one-predicted-branch floor.
    bool protect_critical = false;

    /// When set, VM images must verify against `trusted_keys` at boot.
    bool verify_signatures = false;
    std::vector<SignedImage> signed_images;
    std::vector<crypto::LamportPublicKey> trusted_keys;
};

class Node {
public:
    explicit Node(NodeConfig config);
    ~Node();
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /// Full boot: measured boot chain -> (SPM -> primary VM -> guests) or
    /// native Kitten. Throws on manifest/signature failures.
    void boot();
    [[nodiscard]] bool booted() const { return booted_; }

    // --- workload execution ----------------------------------------------------
    /// Run a parallel workload to completion on the compute partition
    /// (secondary VM, or bare metal natively). Returns elapsed seconds.
    /// Throws std::logic_error once the compute VM has been retired.
    double run_workload(wl::ParallelWorkload& workload, double timeout_s = 600.0);

    /// Run a workload on a specific (e.g. dynamically created) VM.
    double run_workload_on(arch::VmId vm, wl::ParallelWorkload& workload,
                           double timeout_s = 600.0);

    /// Run the selfish-detour spinner for `seconds` of simulated time.
    /// Throws std::logic_error once the compute VM has been retired.
    void run_selfish(wl::SelfishBenchmark& selfish, double seconds);

    // --- dynamic partitioning (paper §VII future work) --------------------------
    /// Launch a signed VM image after boot. The signature must verify
    /// against a key enrolled at provisioning time (the enrolled keystore is
    /// measured into the boot chain) — "Hafnium is able to verify VM
    /// signatures using a known public key that is included as part of the
    /// trusted boot sequence". Returns the new VM id; the partition gets a
    /// Kitten guest personality and VCPU proxies in the primary.
    arch::VmId launch_dynamic_vm(const SignedImage& image,
                                 std::uint64_t mem_bytes, int vcpus,
                                 arch::World world = arch::World::kNonSecure);

    /// Stop and tear down a dynamically launched VM; its memory is scrubbed
    /// and returned to the allocator.
    void destroy_dynamic_vm(arch::VmId id);

    // --- fault-tolerant lifecycle (src/resil/ drives these) ---------------------
    /// Permanently stop a secondary partition (boot-time compute or dynamic):
    /// VCPUs are pulled off the cores and the proxies reaped, stage-2 memory
    /// is scrubbed and reclaimed, grants revoked. The node keeps serving the
    /// remaining partitions — this is the quarantine primitive.
    void retire_vm(arch::VmId id);

    /// Tear a crashed/hung secondary down and relaunch it from its manifest
    /// spec. The image is re-verified against the boot-time measurement, the
    /// restart is recorded in the attestation chain, and any workload that
    /// was running on the partition is reattached (by VM name) so it resumes
    /// from its last barrier state. Returns the new VM id (ids are never
    /// reused).
    arch::VmId restart_vm(arch::VmId id);

    /// Guest personality of a VM (the boot-time compute VM or a dynamic one).
    [[nodiscard]] kitten::KittenGuestOs* guest_of(arch::VmId id);

    /// Pre-stage a signed image so the login VM can launch it by index over
    /// the job-control channel.
    std::size_t stage_image(SignedImage image);
    [[nodiscard]] const std::vector<SignedImage>& staged_images() const {
        return staged_images_;
    }

    /// Let the node run idle/background work for `seconds`.
    void run_for(double seconds);

    // --- observability -------------------------------------------------------
    /// Publish every component's stats (SPM, kernels, guests, engine, core
    /// usage) into the platform's metrics registry and return a snapshot.
    obs::MetricsSnapshot publish_metrics();

    // --- components ---------------------------------------------------------------
    [[nodiscard]] const NodeConfig& config() const { return config_; }
    arch::Platform& platform() { return *platform_; }
    [[nodiscard]] hafnium::Spm* spm() { return spm_.get(); }
    /// nullptr natively or when check_mode is kOff.
    [[nodiscard]] check::Auditor* auditor() { return auditor_.get(); }
    [[nodiscard]] kitten::KittenKernel* kitten() { return kitten_.get(); }
    [[nodiscard]] linux_fwk::LinuxKernel* linux_kernel() { return linux_.get(); }
    /// nullptr natively and once the compute VM has been retired.
    [[nodiscard]] kitten::KittenGuestOs* compute_guest();
    [[nodiscard]] linux_fwk::LinuxGuestOs* login_guest() { return login_guest_.get(); }
    [[nodiscard]] hafnium::Vm* compute_vm();
    [[nodiscard]] hafnium::Vm* login_vm();
    [[nodiscard]] hafnium::PrimaryOsItf* primary_os();
    AttestationChain& attestation() { return chain_; }
    ImageVerifier& verifier() { return verifier_; }

    /// Build a deterministic synthetic VM image (for manifests/tests).
    [[nodiscard]] static std::vector<std::uint8_t> make_image(const std::string& name,
                                                              std::size_t bytes = 4096);

private:
    void boot_native();
    void boot_hafnium();
    /// The one admission path behind launch_dynamic_vm and restart_vm:
    /// create the partition in the SPM, extend the chain with
    /// `chain_label + name` and the SPM's measurement, start its guest and
    /// hand it to the primary. Returns the new VM id.
    arch::VmId admit(const hafnium::VmSpec& spec, const std::string& chain_label);
    /// Create and start the Kitten guest personality of VM `id`.
    void start_guest(arch::VmId id);
    /// The compute VM, or std::logic_error once it has been retired.
    hafnium::Vm& live_compute_vm(const char* caller);
    /// Mount the workload's threads on the VM's guest, kick its VCPUs and
    /// record the workload so restart_vm reattaches it.
    void attach(hafnium::Vm& vm, wl::ParallelWorkload& workload);
    /// Run until the workload finishes; throws on timeout. Returns elapsed
    /// seconds.
    double run_to_finish(wl::ParallelWorkload& workload, double timeout_s);
    void kick_vcpus(hafnium::Vm& vm, int count);
    void reprice_workload_cores(wl::ParallelWorkload& workload);

    NodeConfig config_;
    std::unique_ptr<arch::Platform> platform_;
    std::unique_ptr<hafnium::Spm> spm_;
    /// Boot-time interceptors (after spm_: they die first, the SPM never
    /// invokes its chain from its own destructor).
    std::unique_ptr<hafnium::TelemetryInterceptor> telemetry_;
    std::unique_ptr<hafnium::CallMetricsInterceptor> call_metrics_;
    std::unique_ptr<hafnium::ProfilingInterceptor> profiling_;
    std::unique_ptr<check::Auditor> auditor_;  ///< after spm_: detaches first
    std::unique_ptr<kitten::KittenKernel> kitten_;
    std::unique_ptr<linux_fwk::LinuxKernel> linux_;
    /// Every Kitten guest personality: the compute VM's and the dynamic ones.
    std::map<arch::VmId, std::unique_ptr<kitten::KittenGuestOs>> guests_;
    std::unique_ptr<linux_fwk::LinuxGuestOs> login_guest_;
    AttestationChain chain_;
    ImageVerifier verifier_;
    /// Workloads attached to a partition, keyed by VM name (ids change
    /// across restarts, names do not). restart_vm reattaches them.
    std::map<std::string, wl::ParallelWorkload*> reattach_;
    std::vector<SignedImage> staged_images_;
    bool booted_ = false;
};

}  // namespace hpcsec::core
