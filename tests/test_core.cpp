// Integration-layer tests: attestation chain, image signatures, job-control
// protocol and channel, Node assembly in every configuration.
#include <gtest/gtest.h>

#include "core/attest.h"
#include "core/harness.h"
#include "core/jobproto.h"
#include "core/jobs.h"
#include "core/node.h"
#include "core/signature.h"

namespace hpcsec::core {
namespace {

std::vector<std::uint8_t> seed(std::uint8_t fill) {
    return std::vector<std::uint8_t>(32, fill);
}

// --- AttestationChain --------------------------------------------------------

TEST(Attestation, ExtendChangesAccumulator) {
    AttestationChain c;
    const crypto::Digest before = c.accumulator();
    c.extend("bl2", Node::make_image("bl2"));
    EXPECT_FALSE(crypto::digest_equal(before, c.accumulator()));
    EXPECT_EQ(c.log().size(), 1u);
}

TEST(Attestation, OrderMatters) {
    AttestationChain a, b;
    a.extend("x", Node::make_image("x"));
    a.extend("y", Node::make_image("y"));
    b.extend("y", Node::make_image("y"));
    b.extend("x", Node::make_image("x"));
    EXPECT_FALSE(crypto::digest_equal(a.accumulator(), b.accumulator()));
}

TEST(Attestation, ReplayMatchesHonestLog) {
    AttestationChain c;
    c.extend("bl2", Node::make_image("bl2"));
    c.extend("hafnium", Node::make_image("hafnium"));
    EXPECT_TRUE(c.replay_matches());
}

TEST(Attestation, ReplayDetectsTamperedLog) {
    AttestationChain c;
    c.extend("bl2", Node::make_image("bl2"));
    c.extend("hafnium", Node::make_image("hafnium"));
    auto log = c.log();
    log[1].measurement[0] ^= 1;  // attacker rewrites the log entry
    EXPECT_FALSE(
        crypto::digest_equal(AttestationChain::replay(log), c.accumulator()));
}

TEST(Attestation, QuoteVerifies) {
    AttestationChain c;
    c.extend("image", Node::make_image("image"));
    auto key = crypto::LamportKeyPair::generate(seed(1));
    const crypto::Digest nonce = crypto::Sha256::hash("verifier nonce");
    const auto q = c.quote(key, nonce);
    ASSERT_TRUE(q.has_value());
    EXPECT_TRUE(AttestationChain::verify_quote(*q, c.accumulator(), key.public_key()));
}

TEST(Attestation, QuoteRejectsWrongExpectedValue) {
    AttestationChain c;
    c.extend("image", Node::make_image("image"));
    auto key = crypto::LamportKeyPair::generate(seed(2));
    const auto q = c.quote(key, crypto::Sha256::hash("n"));
    ASSERT_TRUE(q.has_value());
    crypto::Digest other{};
    EXPECT_FALSE(AttestationChain::verify_quote(*q, other, key.public_key()));
}

TEST(Attestation, QuoteIsOneTimePerKey) {
    AttestationChain c;
    c.extend("image", Node::make_image("image"));
    auto key = crypto::LamportKeyPair::generate(seed(3));
    ASSERT_TRUE(c.quote(key, crypto::Sha256::hash("n1")).has_value());
    EXPECT_FALSE(c.quote(key, crypto::Sha256::hash("n2")).has_value());
}

// --- Image signatures ---------------------------------------------------------

TEST(Signature, SignedImageVerifies) {
    ImageSigner signer(seed(10));
    ImageVerifier verifier;
    verifier.enroll(signer.public_key());
    const auto img = signer.sign("compute", Node::make_image("compute"));
    ASSERT_TRUE(img.has_value());
    EXPECT_TRUE(verifier.verify(*img));
}

TEST(Signature, TamperedImageRejected) {
    ImageSigner signer(seed(11));
    ImageVerifier verifier;
    verifier.enroll(signer.public_key());
    auto img = signer.sign("compute", Node::make_image("compute"));
    ASSERT_TRUE(img.has_value());
    img->bytes[5] ^= 0xff;
    EXPECT_FALSE(verifier.verify(*img));
}

TEST(Signature, UnenrolledKeyRejected) {
    ImageSigner signer(seed(12));
    ImageVerifier verifier;  // nothing enrolled
    const auto img = signer.sign("compute", Node::make_image("compute"));
    ASSERT_TRUE(img.has_value());
    EXPECT_FALSE(verifier.verify(*img));
}

TEST(Signature, KeystoreMeasurementTracksEnrollment) {
    ImageSigner s1(seed(13)), s2(seed(14));
    ImageVerifier v;
    const crypto::Digest m0 = v.keystore_measurement();
    v.enroll(s1.public_key());
    const crypto::Digest m1 = v.keystore_measurement();
    v.enroll(s2.public_key());
    const crypto::Digest m2 = v.keystore_measurement();
    EXPECT_FALSE(crypto::digest_equal(m0, m1));
    EXPECT_FALSE(crypto::digest_equal(m1, m2));
}

// --- Job protocol ----------------------------------------------------------------

TEST(JobProto, CommandRoundTrip) {
    JobCommand cmd;
    cmd.op = JobOp::kMigrateVcpu;
    cmd.vm = 3;
    cmd.vcpu = 1;
    cmd.arg = 2;
    cmd.tag = 77;
    const auto decoded = decode_command(encode(cmd));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, JobOp::kMigrateVcpu);
    EXPECT_EQ(decoded->vm, 3u);
    EXPECT_EQ(decoded->vcpu, 1u);
    EXPECT_EQ(decoded->arg, 2u);
    EXPECT_EQ(decoded->tag, 77u);
}

TEST(JobProto, ReplyRoundTrip) {
    JobReply r;
    r.tag = 5;
    r.status = -1;
    r.value = 0xbeef;
    const auto decoded = decode_reply(encode(r));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, -1);
    EXPECT_EQ(decoded->value, 0xbeefu);
}

TEST(JobProto, RejectsBadMagicAndShortFrames) {
    EXPECT_FALSE(decode_command({1, 2, 3}).has_value());
    EXPECT_FALSE(decode_command({0, 1, 2, 3, 4, 5}).has_value());
    EXPECT_FALSE(decode_reply({kJobMagic, 0, 0, 0}).has_value());
    // Out-of-range opcode.
    EXPECT_FALSE(decode_command({kJobMagic, 99, 0, 0, 0, 0}).has_value());
}

// --- Node assembly -----------------------------------------------------------------

TEST(Node, BootChainCoversAllStages) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 1);
    cfg.with_super_secondary = true;
    Node node(cfg);
    node.boot();
    const auto& log = node.attestation().log();
    std::vector<std::string> names;
    for (const auto& stage : log) names.push_back(stage.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"tf-a-bl2", "tf-a-bl31", "hafnium-spm",
                                        "kitten-primary", "login", "compute"}));
    EXPECT_TRUE(node.attestation().replay_matches());
}

TEST(Node, NativeBootChainHasNoHypervisor) {
    Node node(Harness::default_config(SchedulerKind::kNativeKitten, 1));
    node.boot();
    for (const auto& stage : node.attestation().log()) {
        EXPECT_EQ(stage.name.find("hafnium"), std::string::npos);
    }
}

TEST(Node, DoubleBootThrows) {
    Node node(Harness::default_config(SchedulerKind::kNativeKitten, 1));
    node.boot();
    EXPECT_THROW(node.boot(), std::logic_error);
}

TEST(Node, RunBeforeBootThrows) {
    Node node(Harness::default_config(SchedulerKind::kNativeKitten, 1));
    wl::ParallelWorkload w(wl::spinner_spec(4));
    EXPECT_THROW(node.run_workload(w, 1.0), std::logic_error);
}

TEST(Node, SignatureVerificationGateBoots) {
    ImageSigner signer(seed(20));
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 1);
    cfg.verify_signatures = true;
    cfg.trusted_keys = {signer.public_key()};
    const auto img = signer.sign("compute", Node::make_image("kitten-guest"));
    ASSERT_TRUE(img.has_value());
    cfg.signed_images = {*img};
    Node node(cfg);
    node.boot();
    EXPECT_TRUE(node.booted());
    // The keystore measurement is part of the boot chain.
    bool found = false;
    for (const auto& s : node.attestation().log()) {
        found |= s.name == "image-keystore";
    }
    EXPECT_TRUE(found);
}

TEST(Node, SignatureVerificationRejectsTamperedImage) {
    ImageSigner signer(seed(21));
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 1);
    cfg.verify_signatures = true;
    cfg.trusted_keys = {signer.public_key()};
    auto img = signer.sign("compute", Node::make_image("kitten-guest"));
    ASSERT_TRUE(img.has_value());
    img->bytes[0] ^= 1;
    cfg.signed_images = {*img};
    Node node(cfg);
    EXPECT_THROW(node.boot(), std::runtime_error);
}

TEST(Node, SignatureVerificationRequiresComputeImage) {
    ImageSigner signer(seed(22));
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 1);
    cfg.verify_signatures = true;
    cfg.trusted_keys = {signer.public_key()};
    const auto img = signer.sign("other", Node::make_image("other"));
    cfg.signed_images = {*img};
    Node node(cfg);
    EXPECT_THROW(node.boot(), std::runtime_error);
}

TEST(Node, SecureComputeVmLandsInSecureWorld) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 1);
    cfg.secure_compute_vm = true;
    Node node(cfg);
    node.boot();
    hafnium::Vm* vm = node.compute_vm();
    ASSERT_NE(vm, nullptr);
    EXPECT_EQ(vm->world(), arch::World::kSecure);
    EXPECT_EQ(node.platform().mem().world_of(vm->mem_base), arch::World::kSecure);
    // And it still runs work.
    wl::WorkloadSpec s;
    s.name = "tiny";
    s.nthreads = 4;
    s.supersteps = 2;
    s.units_per_thread_step = 10000;
    s.profile.cycles_per_unit = 10;
    wl::ParallelWorkload w(s);
    EXPECT_GT(node.run_workload(w, 30.0), 0.0);
}

TEST(Node, SuperSecondaryOwnsDevices) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 1);
    cfg.with_super_secondary = true;
    Node node(cfg);
    node.boot();
    ASSERT_NE(node.login_vm(), nullptr);
    EXPECT_EQ(node.spm()->devices_of(node.login_vm()->id()).size(),
              node.platform().config().devices.size());
    EXPECT_TRUE(node.spm()->devices_of(arch::kPrimaryVmId).empty());
}

TEST(Node, MakeImageIsDeterministicPerName) {
    EXPECT_EQ(Node::make_image("a"), Node::make_image("a"));
    EXPECT_NE(Node::make_image("a"), Node::make_image("b"));
    EXPECT_EQ(Node::make_image("a", 128).size(), 128u);
}

// --- JobControl end-to-end ------------------------------------------------------------

struct JobFixture : ::testing::TestWithParam<arch::Isa> {
    NodeConfig cfg = [] {
        NodeConfig c = Harness::default_config(SchedulerKind::kKittenPrimary, 5);
        c.with_super_secondary = true;
        c.platform.isa = GetParam();
        return c;
    }();
    Node node{cfg};
    std::unique_ptr<JobControl> jobs;

    void SetUp() override {
        node.boot();
        jobs = std::make_unique<JobControl>(node);
    }

    std::int64_t status_of(JobOp op, std::uint64_t vm, std::uint64_t vcpu = 0,
                           std::uint64_t arg = 0) {
        JobCommand cmd;
        cmd.op = op;
        cmd.vm = vm;
        cmd.vcpu = vcpu;
        cmd.arg = arg;
        const auto reply = jobs->request(cmd, 3.0);
        return reply ? reply->status : kStatusTimeout;
    }

    /// VCPU-proxy threads the Kitten primary still schedules.
    int live_proxies() {
        int n = 0;
        for (const auto& t : node.kitten()->threads()) {
            if (t->kind == kitten::KThread::Kind::kVcpuProxy &&
                t->state != kitten::KThread::State::kExited) {
                ++n;
            }
        }
        return n;
    }
};

constexpr JobOp kVmTargetedOps[] = {JobOp::kLaunchVm, JobOp::kStopVm,
                                    JobOp::kMigrateVcpu, JobOp::kDestroyVm};

TEST_P(JobFixture, PingPong) {
    JobCommand cmd;
    cmd.op = JobOp::kPing;
    const auto reply = jobs->request(cmd, 3.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, 0);
    EXPECT_EQ(reply->value, 0x706f6e67u);
    EXPECT_EQ(jobs->commands_processed(), 1u);
}

TEST_P(JobFixture, QueryVmReturnsPackedInfo) {
    JobCommand cmd;
    cmd.op = JobOp::kQueryVm;
    cmd.vm = node.compute_vm()->id();
    const auto reply = jobs->request(cmd, 3.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, 0);
    EXPECT_EQ(reply->value & 0xffff, 4u);  // vcpus
}

TEST_P(JobFixture, MigrateVcpuViaChannel) {
    JobCommand cmd;
    cmd.op = JobOp::kMigrateVcpu;
    cmd.vm = node.compute_vm()->id();
    cmd.vcpu = 2;
    cmd.arg = 0;
    const auto reply = jobs->request(cmd, 3.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, 0);
    EXPECT_EQ(node.compute_vm()->vcpu(2).assigned_core, 0);
}

TEST_P(JobFixture, BadVmIdReportsError) {
    JobCommand cmd;
    cmd.op = JobOp::kStopVm;
    cmd.vm = 99;
    const auto reply = jobs->request(cmd, 3.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, -1);
}

TEST_P(JobFixture, MultipleSequentialRequests) {
    for (int i = 0; i < 3; ++i) {
        JobCommand cmd;
        cmd.op = JobOp::kPing;
        const auto reply = jobs->request(cmd, 3.0);
        ASSERT_TRUE(reply.has_value()) << "request " << i;
    }
    EXPECT_EQ(jobs->commands_processed(), 3u);
}

TEST_P(JobFixture, OnlySecondariesAreVmTargets) {
    // The primary and the login VM host the channel; an id past VmId's
    // range must not alias the compute VM's.
    const int proxies = live_proxies();
    const std::uint64_t targets[] = {arch::kPrimaryVmId, node.login_vm()->id(),
                                     0x10000u + node.compute_vm()->id()};
    for (const JobOp op : kVmTargetedOps) {
        for (const std::uint64_t vm : targets) {
            EXPECT_EQ(status_of(op, vm), -1)
                << "op " << static_cast<int>(op) << " vm " << vm;
        }
    }
    EXPECT_EQ(live_proxies(), proxies);
}

TEST_P(JobFixture, RetiredVmIsNoLongerATarget) {
    const arch::VmId compute = node.compute_vm()->id();
    node.retire_vm(compute);
    const int proxies = live_proxies();
    for (const JobOp op : kVmTargetedOps) {
        EXPECT_EQ(status_of(op, compute), -1) << "op " << static_cast<int>(op);
    }
    EXPECT_EQ(live_proxies(), proxies);
}

TEST_P(JobFixture, LaunchKeepsOneProxyPerVcpu) {
    const arch::VmId compute = node.compute_vm()->id();
    const int proxies = live_proxies();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(status_of(JobOp::kLaunchVm, compute), 0);
        EXPECT_EQ(live_proxies(), proxies) << "launch " << i;
    }
    EXPECT_EQ(status_of(JobOp::kStopVm, compute), 0);
    EXPECT_EQ(live_proxies(), proxies - 4);
    EXPECT_EQ(status_of(JobOp::kLaunchVm, compute), 0);
    EXPECT_EQ(live_proxies(), proxies);
}

TEST_P(JobFixture, MigrateArgumentsDoNotAlias) {
    // 2^32 + 1 must not name VCPU 1, nor 2^32 + 3 core 3.
    const arch::VmId compute = node.compute_vm()->id();
    const arch::CoreId before = node.compute_vm()->vcpu(1).assigned_core;
    EXPECT_EQ(status_of(JobOp::kMigrateVcpu, compute, (1ull << 32) + 1, 3), -1);
    EXPECT_EQ(status_of(JobOp::kMigrateVcpu, compute, 1, (1ull << 32) + 3), -1);
    EXPECT_EQ(node.compute_vm()->vcpu(1).assigned_core, before);
}

TEST_P(JobFixture, MigrateAfterRelaunchMovesTheLiveProxy) {
    const arch::VmId compute = node.compute_vm()->id();
    ASSERT_EQ(status_of(JobOp::kStopVm, compute), 0);
    ASSERT_EQ(status_of(JobOp::kLaunchVm, compute), 0);
    EXPECT_EQ(status_of(JobOp::kMigrateVcpu, compute, /*vcpu=*/1, /*arg=*/3), 0);
    const hafnium::Vcpu& vcpu = node.compute_vm()->vcpu(1);
    EXPECT_EQ(vcpu.assigned_core, 3);
    for (const auto& t : node.kitten()->threads()) {
        if (t->vcpu == &vcpu && t->state != kitten::KThread::State::kExited) {
            EXPECT_EQ(t->core, 3) << t->name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothIsas, JobFixture,
                         ::testing::Values(arch::Isa::kArm, arch::Isa::kRiscv),
                         [](const ::testing::TestParamInfo<arch::Isa>& info) {
                             return arch::to_string(info.param);
                         });

TEST(JobControl, RequiresKittenPrimaryWithLogin) {
    Node bare(Harness::default_config(SchedulerKind::kKittenPrimary, 2));
    bare.boot();
    EXPECT_THROW(JobControl j(bare), std::logic_error);
}

// --- IRQ routing policies ---------------------------------------------------------------

TEST(Routing, SelectivePolicySkipsPrimary) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 3);
    cfg.with_super_secondary = true;
    cfg.routing = hafnium::IrqRoutingPolicy::kSelective;
    Node node(cfg);
    node.boot();
    int seen = -1;
    node.login_guest()->device_irq_hook = [&](int irq) { seen = irq; };

    node.platform().irqc().raise_external(32);
    node.run_for(0.05);
    EXPECT_EQ(seen, 32);
    // Direct routing: the SPM forwarded it without a primary hypercall.
    EXPECT_GE(node.spm()->stats().forwarded_device_irqs, 1u);
    EXPECT_EQ(node.kitten()->stats().forwarded_irqs, 0u);
}

TEST(Routing, ForwardPolicyGoesThroughPrimary) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 3);
    cfg.with_super_secondary = true;
    cfg.routing = hafnium::IrqRoutingPolicy::kAllToPrimary;
    Node node(cfg);
    node.boot();
    int seen = -1;
    node.login_guest()->device_irq_hook = [&](int irq) { seen = irq; };

    node.platform().irqc().raise_external(32);
    node.run_for(0.05);
    EXPECT_EQ(seen, 32);
    EXPECT_GE(node.kitten()->stats().forwarded_irqs, 1u);
}

// --- Harness ----------------------------------------------------------------------------

TEST(HarnessTest, RowHasAllThreeConfigs) {
    Harness::Options opt;
    opt.trials = 2;
    Harness h(opt);
    wl::WorkloadSpec s;
    s.name = "quick";
    s.metric = "op/s";
    s.nthreads = 4;
    s.supersteps = 2;
    s.units_per_thread_step = 20000;
    s.profile.cycles_per_unit = 10;
    s.metric_per_unit = 1.0;
    const ExperimentRow row = h.run_row(s);
    for (const auto& cell : row.cells) {
        EXPECT_EQ(cell.n, 2);
        EXPECT_GT(cell.mean, 0.0);
    }
    const std::string raw = Harness::format_raw({row});
    EXPECT_NE(raw.find("Native"), std::string::npos);
    EXPECT_NE(raw.find("quick"), std::string::npos);
    const std::string norm = Harness::format_normalized({row});
    EXPECT_NE(norm.find("1"), std::string::npos);
}

TEST(HarnessTest, SelfishExperimentShapes) {
    const auto native =
        run_selfish_experiment(SchedulerKind::kNativeKitten, 3.0, 123);
    const auto kitten =
        run_selfish_experiment(SchedulerKind::kKittenPrimary, 3.0, 123);
    const auto linux_cfg =
        run_selfish_experiment(SchedulerKind::kLinuxPrimary, 3.0, 123);
    // Paper's qualitative claims:
    //  - Kitten-primary detour count is the same order as native;
    EXPECT_LT(kitten.detours_all_cores, native.detours_all_cores * 4);
    //  - Kitten-primary amplitudes are slightly larger;
    EXPECT_GT(kitten.max_detour_us, native.max_detour_us);
    //  - Linux is dramatically noisier in count and total lost time.
    EXPECT_GT(linux_cfg.detours_all_cores, kitten.detours_all_cores * 5);
    EXPECT_GT(linux_cfg.total_detour_us_all, kitten.total_detour_us_all * 5);
    const std::string text = format_selfish(native);
    EXPECT_NE(text.find("config=Native"), std::string::npos);
}

}  // namespace
}  // namespace hpcsec::core
