#include "core/node.h"

#include <stdexcept>

namespace hpcsec::core {

namespace {
constexpr char kComputeVmName[] = "compute";
constexpr char kLoginVmName[] = "login";
}  // namespace

std::string to_string(SchedulerKind k) {
    switch (k) {
        case SchedulerKind::kNativeKitten: return "Native";
        case SchedulerKind::kKittenPrimary: return "Kitten";
        case SchedulerKind::kLinuxPrimary: return "Linux";
    }
    return "?";
}

Node::Node(NodeConfig config) : config_(std::move(config)) {}
Node::~Node() = default;

std::vector<std::uint8_t> Node::make_image(const std::string& name,
                                           std::size_t bytes) {
    // Deterministic synthetic "kernel image": a header plus a keyed stream.
    std::vector<std::uint8_t> img;
    img.reserve(bytes);
    std::uint64_t state = 0;
    for (const char c : name) state = state * 131 + static_cast<unsigned char>(c);
    for (std::size_t i = 0; i < bytes; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        img.push_back(static_cast<std::uint8_t>(state >> 56));
    }
    return img;
}

hafnium::Vm* Node::compute_vm() {
    return spm_ ? spm_->find_vm(kComputeVmName) : nullptr;
}

hafnium::Vm* Node::login_vm() {
    return spm_ ? spm_->find_vm(kLoginVmName) : nullptr;
}

hafnium::PrimaryOsItf* Node::primary_os() {
    if (kitten_ && kitten_->is_primary_vm()) return kitten_.get();
    return linux_.get();
}

void Node::boot() {
    if (booted_) throw std::logic_error("Node::boot: already booted");
    if (config_.secure_compute_vm && config_.platform.secure_ram_bytes == 0) {
        // TrustZone partitions are static: carve out secure RAM at boot.
        config_.platform.secure_ram_bytes = config_.compute_mem_bytes + (64ull << 20);
    }
    platform_ = std::make_unique<arch::Platform>(config_.platform, config_.seed);

    // --- measured boot: TF-A stages, then the system software ---------------
    // Each boot-stage image is hashed as it is made and kept no longer.
    chain_.extend("tf-a-bl2", make_image("tf-a-bl2"));
    chain_.extend("tf-a-bl31", make_image("tf-a-bl31"));
    if (config_.verify_signatures) {
        for (const auto& key : config_.trusted_keys) verifier_.enroll(key);
        chain_.extend_digest("image-keystore", verifier_.keystore_measurement());
        for (const auto& img : config_.signed_images) {
            if (!verifier_.verify(img)) {
                throw std::runtime_error("Node::boot: image signature check failed for " +
                                         img.name);
            }
        }
    }

    if (config_.scheduler == SchedulerKind::kNativeKitten) {
        boot_native();
    } else {
        boot_hafnium();
    }
    booted_ = true;
}

void Node::boot_native() {
    chain_.extend("kitten-native-arm64", make_image("kitten-native-arm64"));
    kitten_ = std::make_unique<kitten::KittenKernel>(*platform_, config_.kitten);
    kitten_->boot();
}

void Node::boot_hafnium() {
    chain_.extend("hafnium-spm", make_image("hafnium-spm"));

    hafnium::Manifest manifest;
    {
        hafnium::VmSpec primary;
        primary.name = config_.scheduler == SchedulerKind::kKittenPrimary
                           ? "kitten-primary"
                           : "linux-primary";
        primary.role = hafnium::VmRole::kPrimary;
        primary.mem_bytes = 128ull << 20;
        primary.vcpu_count = config_.platform.ncores;
        primary.image = make_image(primary.name);
        manifest.vms.push_back(std::move(primary));
    }
    if (config_.with_super_secondary) {
        hafnium::VmSpec login;
        login.name = kLoginVmName;
        login.role = hafnium::VmRole::kSuperSecondary;
        login.mem_bytes = config_.login_mem_bytes;
        login.vcpu_count = 1;
        for (const auto& dev : config_.platform.devices) login.devices.push_back(dev.name);
        login.image = make_image("linux-login");
        manifest.vms.push_back(std::move(login));
    }
    {
        hafnium::VmSpec compute;
        compute.name = kComputeVmName;
        compute.role = hafnium::VmRole::kSecondary;
        compute.mem_bytes = config_.compute_mem_bytes;
        compute.vcpu_count =
            config_.compute_vcpus > 0 ? config_.compute_vcpus : config_.platform.ncores;
        compute.world = config_.secure_compute_vm ? arch::World::kSecure
                                                  : arch::World::kNonSecure;
        compute.image = make_image("kitten-guest");
        if (config_.verify_signatures) {
            // Require a matching signed image for the compute partition.
            bool found = false;
            for (const auto& img : config_.signed_images) {
                if (img.name == kComputeVmName) {
                    compute.image = img.bytes;
                    found = true;
                }
            }
            if (!found) {
                throw std::runtime_error(
                    "Node::boot: signature verification enabled but no signed "
                    "compute image provided");
            }
        }
        manifest.vms.push_back(std::move(compute));
    }

    spm_ = std::make_unique<hafnium::Spm>(*platform_, std::move(manifest),
                                          config_.routing);

    // The kHypercall trace instant comes from the interceptor chain, not an
    // inline recorder call in the SPM hot path; attach it before boot so the
    // event stream starts with the first hypercall, as it always did.
    telemetry_ = std::make_unique<hafnium::TelemetryInterceptor>(*platform_);
    spm_->attach_interceptor(telemetry_.get());
    if (config_.call_metrics) {
        call_metrics_ = std::make_unique<hafnium::CallMetricsInterceptor>(
            platform_->metrics());
        spm_->attach_interceptor(call_metrics_.get());
    }
    if (platform_->config().profile) {
        profiling_ = std::make_unique<hafnium::ProfilingInterceptor>(*platform_);
        spm_->attach_interceptor(profiling_.get());
        // Collapsed stacks / perf-top print FFA call names, not raw numbers.
        platform_->profiler().set_call_namer([](unsigned n) {
            return hafnium::to_string(static_cast<hafnium::Call>(n));
        });
    }

    // Attach the invariant auditor before boot so the whole boot sequence
    // (stage-2 construction, first VCPU transitions) is already audited.
    if (config_.check_mode != check::Mode::kOff) {
        auditor_ = std::make_unique<check::Auditor>(
            *spm_, check::Auditor::Options{.mode = config_.check_mode,
                                           .period = config_.check_period});
    }

    if (config_.scheduler == SchedulerKind::kKittenPrimary) {
        kitten_ = std::make_unique<kitten::KittenKernel>(*platform_, *spm_,
                                                         config_.kitten);
    } else {
        linux_ = std::make_unique<linux_fwk::LinuxKernel>(*platform_, *spm_,
                                                          config_.linux);
    }

    spm_->boot();
    // Extend the chain with the SPM's own image measurements (in manifest
    // order), exactly what an attested Hafnium boot would log.
    for (const auto& [name, digest] : spm_->measurements()) {
        chain_.extend_digest(name, digest);
    }

    // Tag SPM-critical state before any guest instruction runs, so there is
    // no boot window in which an early-compromised partition could touch it
    // unchecked.
    if (config_.protect_critical) spm_->protect_critical_state();

    if (kitten_) kitten_->boot();
    if (linux_) linux_->boot();

    // Guest personalities.
    const arch::VmId compute_id = compute_vm()->id();
    start_guest(compute_id);
    if (config_.with_super_secondary) {
        login_guest_ = std::make_unique<linux_fwk::LinuxGuestOs>(*spm_, *login_vm(),
                                                                 config_.login);
        login_guest_->start();
    }

    // The primary launches the super-secondary first ("it then immediately
    // launches the super-secondary VM instance"), then the compute VM.
    if (hafnium::Vm* login = login_vm()) primary_os()->launch_vm(login->id());
    primary_os()->launch_vm(compute_id);
}

// ---------------------------------------------------------------------------
// Workload execution
// ---------------------------------------------------------------------------

void Node::kick_vcpus(hafnium::Vm& vm, int count) {
    for (int i = 0; i < count && i < vm.vcpu_count(); ++i) {
        hafnium::Vcpu& vcpu = vm.vcpu(i);
        if (vcpu.state() == hafnium::VcpuState::kBlocked) {
            spm_->wake_vcpu(vcpu);
        } else if (vcpu.state() == hafnium::VcpuState::kOff) {
            spm_->make_vcpu_ready(vcpu);
            primary_os()->on_vcpu_wake(vcpu);
        } else if (vcpu.state() == hafnium::VcpuState::kReady) {
            primary_os()->on_vcpu_wake(vcpu);
        }
    }
}

void Node::reprice_workload_cores(wl::ParallelWorkload& workload) {
    // Barrier release while threads busy-wait: re-price the spinning chunks
    // so the refilled work drains at the right rate (zero-cost bookkeeping).
    for (int c = 0; c < platform_->ncores(); ++c) {
        arch::Executor& ex = platform_->core(c).exec();
        arch::Runnable* cur = ex.current();
        if (cur == nullptr) continue;
        for (int i = 0; i < workload.nthreads(); ++i) {
            if (cur == &workload.thread(i)) {
                ex.reprice();
                break;
            }
        }
    }
}

hafnium::Vm& Node::live_compute_vm(const char* caller) {
    hafnium::Vm* vm = compute_vm();
    if (vm == nullptr) {
        throw std::logic_error(std::string(caller) + ": the compute VM has been retired");
    }
    return *vm;
}

void Node::attach(hafnium::Vm& vm, wl::ParallelWorkload& workload) {
    kitten::KittenGuestOs& guest = *guest_of(vm.id());
    workload.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < workload.nthreads(); ++i) {
        guest.set_thread(i, &workload.thread(i));
    }
    guest.wake_runnable_vcpus();
    // Resolve the guest by VM name at release time: the partition may have
    // been restarted (new id, new personality) between barrier phases, and a
    // release can fire while it is down entirely.
    const std::string name = vm.name();
    workload.on_release = [this, name, &workload] {
        if (hafnium::Vm* v = spm_->find_vm(name)) {
            if (kitten::KittenGuestOs* g = guest_of(v->id())) {
                g->wake_runnable_vcpus();
            }
        }
        reprice_workload_cores(workload);
    };
    kick_vcpus(vm, workload.nthreads());
    reattach_[name] = &workload;
}

double Node::run_to_finish(wl::ParallelWorkload& workload, double timeout_s) {
    auto& engine = platform_->engine();
    const sim::SimTime start = engine.now();
    workload.on_finished = [this, &engine, &workload](sim::SimTime) {
        // Kick the now-done spin chunks so they retire cleanly (each VCPU
        // blocks / each native thread parks), then stop the clock.
        reprice_workload_cores(workload);
        engine.stop();
    };
    engine.run_until(start + engine.clock().from_seconds(timeout_s));
    reattach_.clear();
    if (!workload.finished()) {
        throw std::runtime_error("Node::run_workload: '" + workload.spec().name +
                                 "' did not finish within the timeout");
    }
    return engine.clock().to_seconds(workload.finish_time() - start);
}

double Node::run_workload(wl::ParallelWorkload& workload, double timeout_s) {
    if (!booted_) throw std::logic_error("Node::run_workload: boot first");
    if (config_.scheduler != SchedulerKind::kNativeKitten) {
        return run_workload_on(live_compute_vm("Node::run_workload").id(), workload,
                               timeout_s);
    }
    workload.set_mode(arch::TranslationMode::kNative);
    std::vector<kitten::KThread*> threads;
    for (int i = 0; i < workload.nthreads(); ++i) {
        threads.push_back(&kitten_->add_app_thread(
            i % platform_->ncores(), &workload.thread(i),
            workload.spec().name + "-t" + std::to_string(i)));
    }
    workload.on_release = [this, threads, &workload] {
        for (kitten::KThread* t : threads) {
            if (t->ctx->remaining_units() > 0) kitten_->wake(*t);
        }
        reprice_workload_cores(workload);
    };
    return run_to_finish(workload, timeout_s);
}

double Node::run_workload_on(arch::VmId vm_id, wl::ParallelWorkload& workload,
                             double timeout_s) {
    if (!booted_ || spm_ == nullptr) {
        throw std::logic_error("Node::run_workload_on: needs a booted hafnium node");
    }
    if (guest_of(vm_id) == nullptr) {
        throw std::invalid_argument("Node::run_workload_on: VM has no guest kernel");
    }
    attach(spm_->vm(vm_id), workload);
    return run_to_finish(workload, timeout_s);
}

void Node::run_selfish(wl::SelfishBenchmark& selfish, double seconds) {
    if (!booted_) throw std::logic_error("Node::run_selfish: boot first");
    wl::ParallelWorkload& w = selfish.workload();
    if (config_.scheduler == SchedulerKind::kNativeKitten) {
        w.set_mode(arch::TranslationMode::kNative);
        for (int i = 0; i < w.nthreads(); ++i) {
            kitten_->add_app_thread(i % platform_->ncores(), &w.thread(i),
                                    "selfish-t" + std::to_string(i));
        }
    } else {
        attach(live_compute_vm("Node::run_selfish"), w);
    }
    run_for(seconds);
    reattach_.clear();
}

void Node::run_for(double seconds) {
    auto& engine = platform_->engine();
    engine.run_until(engine.now() + engine.clock().from_seconds(seconds));
}

obs::MetricsSnapshot Node::publish_metrics() {
    if (platform_ == nullptr) return {};
    platform_->publish_metrics();
    if (spm_) spm_->publish_metrics();
    if (auditor_) auditor_->publish_metrics();
    auto& m = platform_->metrics();
    const auto set = [&m](const char* name, double v) { m.set(m.gauge(name), v); };
    if (kitten_) {
        const auto& s = kitten_->stats();
        set("kitten.ticks", static_cast<double>(s.ticks));
        set("kitten.dispatches", static_cast<double>(s.dispatches));
        set("kitten.forwarded_irqs", static_cast<double>(s.forwarded_irqs));
        set("kitten.resched_ipis", static_cast<double>(s.resched_ipis));
    }
    if (linux_) {
        const auto& s = linux_->stats();
        set("linux.ticks", static_cast<double>(s.ticks));
        set("linux.dispatches", static_cast<double>(s.dispatches));
        set("linux.kworker_wakes", static_cast<double>(s.kworker_wakes));
        set("linux.softirqs", static_cast<double>(s.softirqs));
        set("linux.preemptions_by_noise",
            static_cast<double>(s.preemptions_by_noise));
        set("linux.forwarded_irqs", static_cast<double>(s.forwarded_irqs));
        set("linux.noise_cycles", s.noise_cycles);
    }
    if (kitten::KittenGuestOs* guest = compute_guest()) {
        const auto& s = guest->stats();
        set("guest.ticks", static_cast<double>(s.ticks));
        set("guest.messages", static_cast<double>(s.messages));
    }
    if (login_guest_) {
        const auto& s = login_guest_->stats();
        set("login.ticks", static_cast<double>(s.ticks));
        set("login.device_irqs", static_cast<double>(s.device_irqs));
        set("login.messages", static_cast<double>(s.messages));
    }
    return m.snapshot();
}

// ---------------------------------------------------------------------------
// Dynamic partitioning (paper §VII)
// ---------------------------------------------------------------------------

kitten::KittenGuestOs* Node::guest_of(arch::VmId id) {
    const auto it = guests_.find(id);
    return it == guests_.end() ? nullptr : it->second.get();
}

kitten::KittenGuestOs* Node::compute_guest() {
    hafnium::Vm* vm = compute_vm();
    return vm == nullptr ? nullptr : guest_of(vm->id());
}

void Node::start_guest(arch::VmId id) {
    auto guest =
        std::make_unique<kitten::KittenGuestOs>(*spm_, spm_->vm(id), config_.guest);
    guest->start();
    guests_[id] = std::move(guest);
}

arch::VmId Node::admit(const hafnium::VmSpec& spec, const std::string& chain_label) {
    const arch::VmId id = spm_->create_vm(spec);
    // Runtime measurements extend the chain like a TPM's runtime PCR; the
    // digest is the one the SPM took of the image it admitted.
    chain_.extend_digest(chain_label + spec.name, spm_->measurements().back().second);
    start_guest(id);
    primary_os()->launch_vm(id);
    return id;
}

std::size_t Node::stage_image(SignedImage image) {
    staged_images_.push_back(std::move(image));
    return staged_images_.size() - 1;
}

arch::VmId Node::launch_dynamic_vm(const SignedImage& image,
                                   std::uint64_t mem_bytes, int vcpus,
                                   arch::World world) {
    if (!booted_ || spm_ == nullptr) {
        throw std::logic_error("launch_dynamic_vm: needs a booted hafnium node");
    }
    // The paper's trust requirement: without hardware attestation of
    // runtime-supplied images, the SPM must verify a signature against a
    // key from the trusted boot sequence. No enrolled keys -> no dynamic VMs.
    if (verifier_.enrolled() == 0) {
        throw std::runtime_error(
            "launch_dynamic_vm: no trusted signing keys enrolled at boot");
    }
    if (!verifier_.verify(image)) {
        throw std::runtime_error("launch_dynamic_vm: signature verification failed for " +
                                 image.name);
    }

    hafnium::VmSpec spec;
    spec.name = image.name;
    spec.role = hafnium::VmRole::kSecondary;
    spec.mem_bytes = mem_bytes;
    spec.vcpu_count = vcpus;
    spec.world = world;
    spec.image = image.bytes;
    return admit(spec, "runtime:");
}

void Node::destroy_dynamic_vm(arch::VmId id) { retire_vm(id); }

// ---------------------------------------------------------------------------
// Fault-tolerant lifecycle
// ---------------------------------------------------------------------------

void Node::retire_vm(arch::VmId id) {
    if (spm_ == nullptr) throw std::logic_error("Node::retire_vm: no SPM");
    hafnium::Vm& vm = spm_->vm(id);
    if (vm.destroyed) return;
    // Pull its VCPUs off the cores without requeueing them, then reap the
    // proxies (a kYield notification would let the scheduler re-enter the
    // VM before stop_vm runs).
    for (int v = 0; v < vm.vcpu_count(); ++v) {
        spm_->force_stop_vcpu(vm.vcpu(v), /*notify_primary=*/false);
    }
    primary_os()->stop_vm(id);
    spm_->destroy_vm(id);
    guests_.erase(id);
}

arch::VmId Node::restart_vm(arch::VmId id) {
    if (!booted_ || spm_ == nullptr) {
        throw std::logic_error("Node::restart_vm: needs a booted hafnium node");
    }
    hafnium::Vm& old = spm_->vm(id);
    if (old.role() != hafnium::VmRole::kSecondary) {
        throw std::invalid_argument("Node::restart_vm: only secondaries restart");
    }
    hafnium::VmSpec spec = old.spec();
    // The relaunch must run exactly the code that was attested: pin the
    // expected hash to the partition's *first* (boot/launch-time)
    // measurement so create_vm re-verifies the image.
    for (const auto& [name, digest] : spm_->measurements()) {
        if (name == spec.name) {
            spec.expected_hash = digest;
            break;
        }
    }
    retire_vm(id);
    const arch::VmId nid = admit(spec, "restart:");

    // Resume whatever workload was attached to the partition when it died.
    if (const auto it = reattach_.find(spec.name); it != reattach_.end()) {
        attach(spm_->vm(nid), *it->second);
    }
    return nid;
}

}  // namespace hpcsec::core
