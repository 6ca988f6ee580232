// Dynamic partitioning: the paper's §VII future-work design, working.
//
// Hafnium-as-shipped requires every partition to exist at boot. This
// example shows the extension this library implements on top: signed VM
// images launched at runtime, verified against keys provisioned into the
// trusted boot sequence, measured into a runtime attestation register, and
// torn down with their memory scrubbed and reclaimed.
#include <cstdio>

#include "core/harness.h"
#include "core/node.h"
#include "core/signature.h"
#include "workloads/nas.h"

int main() {
    using namespace hpcsec;

    // Provisioning: three one-time signing keys (one per launchable image).
    core::ImageSigner key_a(std::vector<std::uint8_t>(32, 0xa1));
    core::ImageSigner key_b(std::vector<std::uint8_t>(32, 0xb2));
    core::ImageSigner key_evil(std::vector<std::uint8_t>(32, 0xee));

    core::NodeConfig cfg =
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 2026);
    cfg.trusted_keys = {key_a.public_key(), key_b.public_key()};
    cfg.verify_signatures = false;
    core::Node node(cfg);
    node.boot();
    node.verifier().enroll(key_a.public_key());
    node.verifier().enroll(key_b.public_key());
    // key_evil is deliberately NOT enrolled.

    const auto frames0 = node.platform().mem().allocated_frames();
    std::printf("booted with %d VMs, %llu frames allocated\n\n",
                node.spm()->vm_count(),
                static_cast<unsigned long long>(frames0));

    // 1. Launch a signed batch job at runtime and run NAS CG in it.
    auto img_a = key_a.sign("batch-cg", core::Node::make_image("batch-cg"));
    const arch::VmId job = node.launch_dynamic_vm(*img_a, 128ull << 20, 4);
    std::printf("launched 'batch-cg' as vm%d (%d vcpus, 128 MiB)\n", job,
                node.spm()->vm(job).vcpu_count());

    wl::WorkloadSpec spec = wl::nas_cg_spec();
    spec.units_per_thread_step /= 4;
    wl::ParallelWorkload cg(spec);
    const double secs = node.run_workload_on(job, cg);
    std::printf("  NAS CG inside the dynamic partition: %.2f Mop/s in %.2f s\n",
                cg.score(secs), secs);

    // 2. An image signed with an unenrolled key is refused.
    auto img_evil = key_evil.sign("trojan", core::Node::make_image("trojan"));
    try {
        node.launch_dynamic_vm(*img_evil, 64ull << 20, 1);
        std::printf("\ntrojan launched — BUG!\n");
    } catch (const std::exception& e) {
        std::printf("\nunenrolled image refused: %s\n", e.what());
    }

    // 3. Tear the job down; memory is scrubbed and reclaimed. The job leaves
    // a secret mid-frame first, where a word-0-only wipe would miss it.
    constexpr arch::IpaAddr kSecretIpa = 0x1008;
    node.spm()->vm_write64(job, kSecretIpa, 0x5ec2e7);
    node.destroy_dynamic_vm(job);
    std::printf("\ndestroyed vm%d; frames back to %llu (started at %llu)\n", job,
                static_cast<unsigned long long>(node.platform().mem().allocated_frames()),
                static_cast<unsigned long long>(frames0));

    // 4. The attestation log records the runtime launch forever.
    std::printf("\nruntime attestation log entries:\n");
    for (const auto& stage : node.attestation().log()) {
        if (stage.name.rfind("runtime:", 0) == 0) {
            std::printf("  %-24s %.16s...\n", stage.name.c_str(),
                        crypto::to_hex(stage.measurement).c_str());
        }
    }

    // 5. Reuse the freed memory for the next signed job.
    auto img_b = key_b.sign("batch-lu", core::Node::make_image("batch-lu"));
    const arch::VmId job2 = node.launch_dynamic_vm(*img_b, 128ull << 20, 4);
    std::printf("\nrelaunched as vm%d at PA %#llx (window reused: %s)\n", job2,
                static_cast<unsigned long long>(node.spm()->vm(job2).mem_base),
                node.spm()->vm(job2).mem_base == node.spm()->vm(job).mem_base
                    ? "yes"
                    : "no");

    // 6. The new job reads zeros where the old one left its secret.
    std::uint64_t leftover = 0;
    node.spm()->vm_read64(job2, kSecretIpa, leftover);
    std::printf("previous job's secret at IPA %#llx: %s\n",
                static_cast<unsigned long long>(kSecretIpa),
                leftover == 0 ? "scrubbed" : "LEAKED (bug!)");
    return leftover == 0 ? 0 : 1;
}
