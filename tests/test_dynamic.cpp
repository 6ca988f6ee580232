// Dynamic-partitioning tests (paper §VII future work): runtime VM creation
// gated on signature verification, teardown with memory reclaim, and the
// isolation invariants holding across churn.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/harness.h"
#include "core/jobs.h"
#include "core/node.h"
#include "core/signature.h"

namespace hpcsec::core {
namespace {

std::vector<std::uint8_t> seed(std::uint8_t fill) {
    return std::vector<std::uint8_t>(32, fill);
}

// Every fixture test runs under both primaries: admission, launch, run and
// teardown go through the primary's launch_vm/stop_vm.
struct DynamicFixture : ::testing::TestWithParam<SchedulerKind> {
    ImageSigner signer{seed(50)};
    NodeConfig cfg;
    std::unique_ptr<Node> node;

    void SetUp() override {
        cfg = Harness::default_config(GetParam(), 11);
        cfg.trusted_keys = {signer.public_key()};
        cfg.verify_signatures = false;  // boot-time compute VM unsigned here
        node = std::make_unique<Node>(cfg);
        node->boot();
        // Enroll the provisioned key (boot does this when verify_signatures
        // is on; do it explicitly for the dynamic-only path).
        node->verifier().enroll(signer.public_key());
    }

    SignedImage make_signed(const std::string& name, ImageSigner& s) {
        auto img = s.sign(name, Node::make_image(name));
        EXPECT_TRUE(img.has_value()) << "one-time key already used";
        return *img;
    }
};

TEST_P(DynamicFixture, LaunchSignedVmAtRuntime) {
    const int before = node->spm()->vm_count();
    const arch::VmId id =
        node->launch_dynamic_vm(make_signed("burst-job", signer), 64ull << 20, 2);
    EXPECT_EQ(node->spm()->vm_count(), before + 1);
    hafnium::Vm& vm = node->spm()->vm(id);
    EXPECT_EQ(vm.role(), hafnium::VmRole::kSecondary);
    EXPECT_EQ(vm.vcpu_count(), 2);
    EXPECT_TRUE(node->platform().mem().owned_span(vm.mem_base, vm.mem_bytes(), id));
    // Measured into the runtime chain with the SPM's own measurement.
    const auto& [spm_name, spm_digest] = node->spm()->measurements().at(id - 1);
    EXPECT_EQ(spm_name, "burst-job");
    const auto& log = node->attestation().log();
    const auto entry = std::find_if(log.begin(), log.end(), [](const BootStage& s) {
        return s.name == "runtime:burst-job";
    });
    ASSERT_NE(entry, log.end());
    EXPECT_EQ(entry->measurement, spm_digest);
    EXPECT_TRUE(node->attestation().replay_matches());
}

TEST_P(DynamicFixture, UnsignedLaunchRejected) {
    ImageSigner rogue(seed(51));  // key NOT enrolled
    EXPECT_THROW(
        node->launch_dynamic_vm(make_signed("evil", rogue), 64ull << 20, 2),
        std::runtime_error);
}

TEST_P(DynamicFixture, TamperedImageRejected) {
    SignedImage img = make_signed("job", signer);
    img.bytes[17] ^= 0x80;
    EXPECT_THROW(node->launch_dynamic_vm(img, 64ull << 20, 2), std::runtime_error);
}

TEST_P(DynamicFixture, NoEnrolledKeysMeansNoDynamicVms) {
    NodeConfig bare = Harness::default_config(GetParam(), 12);
    Node node2(bare);
    node2.boot();
    EXPECT_THROW(
        node2.launch_dynamic_vm(make_signed("job", signer), 64ull << 20, 1),
        std::runtime_error);
}

TEST_P(DynamicFixture, DynamicVmRunsWork) {
    const arch::VmId id =
        node->launch_dynamic_vm(make_signed("job", signer), 64ull << 20, 4);
    wl::WorkloadSpec s;
    s.name = "dyn";
    s.nthreads = 4;
    s.supersteps = 3;
    s.units_per_thread_step = 100000;
    s.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(s);
    const double secs = node->run_workload_on(id, w, 30.0);
    EXPECT_TRUE(w.finished());
    EXPECT_GT(secs, 0.0);
}

TEST_P(DynamicFixture, DestroyReclaimsMemory) {
    const auto frames_before = node->platform().mem().allocated_frames();
    const arch::VmId id =
        node->launch_dynamic_vm(make_signed("ephemeral", signer), 64ull << 20, 2);
    EXPECT_GT(node->platform().mem().allocated_frames(), frames_before);
    node->destroy_dynamic_vm(id);
    EXPECT_EQ(node->platform().mem().allocated_frames(), frames_before);
    EXPECT_TRUE(node->spm()->vm(id).destroyed);
    // A destroyed VM can no longer be entered or messaged.
    EXPECT_EQ(node->spm()
                  ->hypercall(0, arch::kPrimaryVmId, hafnium::Call::kVcpuRun,
                              {id, 0, 0, 0})
                  .error,
              hafnium::HfError::kNotFound);
    std::uint64_t v = 0;
    EXPECT_FALSE(node->spm()->vm_read64(id, 0x1000, v));
}

TEST_P(DynamicFixture, DestroyWhileRunningIsForcedOffCores) {
    const arch::VmId id =
        node->launch_dynamic_vm(make_signed("spinner", signer), 64ull << 20, 4);
    wl::ParallelWorkload w(wl::spinner_spec(4));
    w.set_mode(arch::TranslationMode::kTwoStage);
    for (int i = 0; i < 4; ++i) node->guest_of(id)->set_thread(i, &w.thread(i));
    node->guest_of(id)->wake_runnable_vcpus();
    for (int i = 0; i < 4; ++i) {
        node->spm()->make_vcpu_ready(node->spm()->vm(id).vcpu(i));
        node->primary_os()->on_vcpu_wake(node->spm()->vm(id).vcpu(i));
    }
    node->run_for(0.2);
    EXPECT_GT(node->spm()->vm(id).vcpu(0).runs, 0u);
    node->destroy_dynamic_vm(id);  // must not throw despite running VCPUs
    EXPECT_TRUE(node->spm()->vm(id).destroyed);
    node->run_for(0.2);  // node keeps ticking fine afterwards
}

TEST_P(DynamicFixture, MemoryReuseAcrossChurnStaysIsolated) {
    // Launch/destroy repeatedly; a later VM reusing earlier frames must not
    // see stale data (frames are scrubbed). One Lamport key signs exactly
    // one image, so each generation gets its own provisioned signer.
    ImageSigner gen1_signer(seed(53));
    node->verifier().enroll(gen1_signer.public_key());
    const arch::VmId a =
        node->launch_dynamic_vm(make_signed("gen0", signer), 32ull << 20, 1);
    ASSERT_TRUE(node->spm()->vm_write64(a, 0x2000, 0xdeadbeef));
    node->destroy_dynamic_vm(a);
    const arch::VmId b =
        node->launch_dynamic_vm(make_signed("gen1", gen1_signer), 32ull << 20, 1);
    // Same physical window is reused (first-fit)...
    EXPECT_EQ(node->spm()->vm(b).mem_base, node->spm()->vm(a).mem_base);
    std::uint64_t leaked = 1;
    ASSERT_TRUE(node->spm()->vm_read64(b, 0x2000, leaked));
    EXPECT_EQ(leaked, 0u) << "stale data leaked across partition churn";
}

TEST_P(DynamicFixture, CannotDestroyPrimary) {
    EXPECT_THROW(node->spm()->destroy_vm(arch::kPrimaryVmId), std::invalid_argument);
}

TEST_P(DynamicFixture, DuplicateNameRejected) {
    (void)node->launch_dynamic_vm(make_signed("dup", signer), 32ull << 20, 1);
    ImageSigner signer2(seed(52));
    node->verifier().enroll(signer2.public_key());
    EXPECT_THROW(
        node->launch_dynamic_vm(make_signed("dup", signer2), 32ull << 20, 1),
        std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Primaries, DynamicFixture,
                         ::testing::Values(SchedulerKind::kKittenPrimary,
                                           SchedulerKind::kLinuxPrimary),
                         [](const ::testing::TestParamInfo<SchedulerKind>& info) {
                             return to_string(info.param);
                         });

TEST(DynamicJobChannel, CreateAndDestroyViaJobChannel) {
    // Full paper workflow: login VM stages a job and manages it remotely.
    // JobControl drives a Kitten primary, so this node is always Kitten.
    ImageSigner signer(seed(50));
    NodeConfig jcfg = Harness::default_config(SchedulerKind::kKittenPrimary, 13);
    jcfg.with_super_secondary = true;
    jcfg.trusted_keys = {signer.public_key()};
    Node jnode(jcfg);
    jnode.boot();
    jnode.verifier().enroll(signer.public_key());
    ImageSigner s2(seed(60));
    jnode.verifier().enroll(s2.public_key());
    const std::size_t idx = jnode.stage_image(*s2.sign("batch-job", Node::make_image("batch-job")));
    JobControl jobs(jnode);

    JobCommand create;
    create.op = JobOp::kCreateVm;
    create.arg = idx;
    create.vm = 32;   // MiB
    create.vcpu = 2;
    const auto created = jobs.request(create, 3.0);
    ASSERT_TRUE(created.has_value());
    EXPECT_EQ(created->status, 0);
    const auto new_id = static_cast<arch::VmId>(created->value);
    EXPECT_EQ(jnode.spm()->vm(new_id).name(), "batch-job");

    JobCommand destroy;
    destroy.op = JobOp::kDestroyVm;
    destroy.vm = new_id;
    const auto destroyed = jobs.request(destroy, 3.0);
    ASSERT_TRUE(destroyed.has_value());
    EXPECT_EQ(destroyed->status, 0);
    EXPECT_TRUE(jnode.spm()->vm(new_id).destroyed);
}

}  // namespace
}  // namespace hpcsec::core
