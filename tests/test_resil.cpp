// Fault-tolerant VM lifecycle (src/resil/): heartbeat watchdog detection,
// quarantine-and-restart with deterministic backoff, job-channel
// timeout/retry hardening, and a chaos soak across every scheduler
// configuration — all under the strict isolation auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "check/check.h"
#include "core/harness.h"
#include "core/jobs.h"
#include "core/node.h"
#include "resil/chaos.h"
#include "resil/resil.h"
#include "workloads/randomaccess.h"
#include "workloads/selfish.h"
#include "workloads/workload.h"

namespace hpcsec {
namespace {

using core::Harness;
using core::Node;
using core::NodeConfig;
using core::SchedulerKind;

// Kills VCPU 0 of whichever live VM currently answers to `name`, every
// `period_s`, up to `shots` times. Restarted instances get a fresh id but
// keep the name, so the killer keeps finding the live incarnation.
struct RecurringKiller {
    Node& node;
    double period_s;
    int shots;

    void arm() {
        auto& eng = node.platform().engine();
        eng.at(eng.now() + eng.clock().from_seconds(period_s), [this] {
            if (hafnium::Vm* vm = node.spm()->find_vm("compute")) {
                hafnium::Vcpu& v = vm->vcpu(0);
                if (v.state() != hafnium::VcpuState::kAborted) {
                    node.spm()->abort_vcpu(v);
                }
            }
            if (--shots > 0) arm();
        });
    }
};

// --- satellite: guest-reachable throws became HfError returns ----------------

struct RunningFixture : ::testing::Test {
    Node node{Harness::default_config(SchedulerKind::kKittenPrimary, 31)};
    std::unique_ptr<wl::ParallelWorkload> work;

    void SetUp() override {
        node.boot();
        work = std::make_unique<wl::ParallelWorkload>(wl::spinner_spec(4));
        work->set_mode(arch::TranslationMode::kTwoStage);
        for (int i = 0; i < 4; ++i) {
            node.compute_guest()->set_thread(i, &work->thread(i));
        }
        node.compute_guest()->wake_runnable_vcpus();
        for (int i = 0; i < 4; ++i) {
            node.spm()->make_vcpu_ready(node.compute_vm()->vcpu(i));
            node.primary_os()->on_vcpu_wake(node.compute_vm()->vcpu(i));
        }
        node.run_for(0.1);
    }
};

TEST_F(RunningFixture, VcpuRunOnBusyCoreReturnsBusyNotThrow) {
    // A buggy primary driver with stale bookkeeping re-runs a VCPU whose
    // core is still mid-context. Hafnium must refuse, not bring down the
    // node. The probe fires from event context and retries until it
    // catches the core mid-chunk (exec().running() is only true there).
    auto& eng = node.platform().engine();
    bool hit = false;
    std::function<void()> probe = [this, &eng, &hit, &probe] {
        hafnium::Vcpu& v = node.compute_vm()->vcpu(1);
        const arch::CoreId core = v.running_core;
        if (core >= 0 && node.platform().core(core).exec().running() &&
            v.state() == hafnium::VcpuState::kRunning) {
            v.set_state(hafnium::VcpuState::kReady);
            const std::uint64_t before = node.spm()->stats().bad_state_calls;
            const hafnium::HfResult r = node.spm()->hypercall(
                core, arch::kPrimaryVmId, hafnium::Call::kVcpuRun,
                {node.compute_vm()->id(), 1, 0, 0});
            EXPECT_EQ(r.error, hafnium::HfError::kBusy);
            EXPECT_EQ(node.spm()->stats().bad_state_calls, before + 1);
            v.set_state(hafnium::VcpuState::kRunning);
            hit = true;
            return;
        }
        eng.at(eng.now() + eng.clock().from_seconds(1e-6), probe);
    };
    eng.at(eng.now() + eng.clock().from_seconds(1e-6), probe);
    node.run_for(0.5);
    EXPECT_TRUE(hit);
}

// --- watchdog detection ------------------------------------------------------

TEST_F(RunningFixture, WatchdogDetectsCrashAndRestarts) {
    resil::PolicyConfig pc;
    pc.backoff_base_s = 0.02;
    resil::Supervisor sup(node, pc);
    sup.supervise(node.compute_vm()->id());
    sup.start();

    const arch::VmId old_id = node.compute_vm()->id();
    const crypto::Digest boot_measurement =
        node.spm()->measurements().at(old_id - 1).second;
    node.spm()->abort_vcpu(node.compute_vm()->vcpu(0));
    node.run_for(1.0);

    EXPECT_EQ(sup.stats().crashes, 1u);
    EXPECT_EQ(sup.stats().restarts, 1u);
    EXPECT_EQ(sup.health_of("compute"), resil::VmHealth::kHealthy);
    // Restart allocated a fresh partition id; the old one stays retired.
    EXPECT_NE(sup.current_id("compute"), old_id);
    EXPECT_TRUE(node.spm()->vm(old_id).destroyed);
    // The chain records the relaunch with the image measured at boot.
    const auto& log = node.attestation().log();
    const auto restart =
        std::find_if(log.begin(), log.end(), [](const core::BootStage& s) {
            return s.name == "restart:compute";
        });
    ASSERT_NE(restart, log.end());
    EXPECT_EQ(restart->measurement, boot_measurement);
    EXPECT_TRUE(node.attestation().replay_matches());
}

TEST_F(RunningFixture, WatchdogDetectsHungVcpu) {
    resil::PolicyConfig pc;
    pc.hang_timeout_s = 0.2;
    pc.backoff_base_s = 0.02;
    resil::Supervisor sup(node, pc);
    sup.supervise(node.compute_vm()->id());
    sup.start();
    // Let every VCPU beat under supervision first — hang detection only
    // covers VCPUs that have proven they tick.
    node.run_for(0.3);

    // A buggy guest cancels its own virtual timer: the VCPU keeps spinning
    // but heartbeats stop — the crash path never fires, only the hang path.
    hafnium::Vcpu& v = node.compute_vm()->vcpu(2);
    ASSERT_TRUE(v.vtimer_armed);
    node.spm()->hypercall(v.running_core, node.compute_vm()->id(),
                          hafnium::Call::kVtimerCancel,
                          {0, static_cast<std::uint64_t>(v.index()), 0, 0});
    node.run_for(2.0);

    EXPECT_GE(sup.stats().hangs, 1u);
    EXPECT_GE(sup.stats().restarts, 1u);
    EXPECT_EQ(sup.stats().crashes, 0u);
}

// --- restart policy ----------------------------------------------------------

TEST(RestartPolicy, BackoffScheduleIsSeedDeterministic) {
    auto run_once = [](std::uint64_t seed) {
        Node node(Harness::default_config(SchedulerKind::kKittenPrimary, seed));
        node.boot();
        resil::PolicyConfig pc;
        pc.restart_budget = 10;
        resil::Supervisor sup(node, pc);
        sup.supervise(node.compute_vm()->id());
        sup.start();
        RecurringKiller killer{node, 0.4, 6};
        killer.arm();
        node.run_for(4.0);
        EXPECT_GE(sup.backoff_log().size(), 3u);
        return sup.backoff_log();
    };
    const std::vector<double> a = run_once(77);
    const std::vector<double> b = run_once(77);
    const std::vector<double> c = run_once(78);
    EXPECT_EQ(a, b);  // same seed: bit-identical recovery schedule
    ASSERT_EQ(a.size(), c.size());
    EXPECT_NE(a, c);  // different seed: different jitter
    // Bounded exponential growth: each delay stays under the cap plus
    // jitter, and the base schedule grows until capped.
    for (double d : a) {
        EXPECT_GT(d, 0.0);
        EXPECT_LE(d, 2.0 * 1.1);
    }
}

TEST(RestartPolicy, QuarantineAfterBudgetLeavesNodeServing) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 41);
    cfg.with_super_secondary = true;
    Node node(cfg);
    node.boot();
    core::JobControl jobs(node);

    resil::PolicyConfig pc;
    pc.restart_budget = 2;
    pc.backoff_base_s = 0.02;
    resil::Supervisor sup(node, pc);
    sup.supervise(node.compute_vm()->id());
    sup.start();
    RecurringKiller killer{node, 0.3, 8};
    killer.arm();
    node.run_for(4.0);

    EXPECT_EQ(sup.stats().quarantines, 1u);
    EXPECT_EQ(sup.health_of("compute"), resil::VmHealth::kQuarantined);
    // Quarantine reclaims the partition: its memory and cores are back with
    // the hypervisor, and nothing answers to the name anymore.
    EXPECT_EQ(node.spm()->find_vm("compute"), nullptr);

    // Graceful degradation, not node death: the login VM's job channel to
    // the primary still works.
    core::JobCommand ping;
    ping.op = core::JobOp::kPing;
    const core::JobReply r = jobs.request_reliable(ping);
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.value, 0x706f6e67u);
}

// --- end-to-end recovery under strict audit ----------------------------------

TEST(Recovery, CrashedWorkloadCompletesAfterRestartUnderStrictCheck) {
    NodeConfig cfg = Harness::default_config(SchedulerKind::kKittenPrimary, 51);
    cfg.check_mode = check::Mode::kStrict;
    Node node(cfg);
    node.boot();

    resil::PolicyConfig pc;
    pc.backoff_base_s = 0.02;
    resil::Supervisor sup(node, pc);
    sup.supervise(node.compute_vm()->id());
    sup.start();

    auto& eng = node.platform().engine();
    eng.at(eng.now() + eng.clock().from_seconds(0.2), [&node] {
        if (hafnium::Vm* vm = node.spm()->find_vm("compute")) {
            node.spm()->abort_vcpu(vm->vcpu(1));
        }
    });

    wl::ParallelWorkload work(wl::randomaccess_spec());
    const double seconds = node.run_workload(work, 120.0);
    EXPECT_GT(seconds, 0.0);
    EXPECT_EQ(sup.stats().crashes, 1u);
    EXPECT_EQ(sup.stats().restarts, 1u);
    ASSERT_NE(node.auditor(), nullptr);
    ASSERT_NO_THROW(node.auditor()->validate());
    EXPECT_TRUE(node.auditor()->failures().empty());
}

// Quarantine (retire_vm, a ContainmentEngine kill, a spent restart budget)
// leaves the node without a compute VM: the run calls refuse, not crash.
TEST(Recovery, RunCallsThrowOnceComputeVmIsRetired) {
    for (SchedulerKind kind :
         {SchedulerKind::kKittenPrimary, SchedulerKind::kLinuxPrimary}) {
        SCOPED_TRACE(core::to_string(kind));
        Node node(Harness::default_config(kind, 71));
        node.boot();
        node.retire_vm(node.compute_vm()->id());
        EXPECT_EQ(node.compute_vm(), nullptr);
        EXPECT_EQ(node.compute_guest(), nullptr);

        wl::ParallelWorkload work(wl::spinner_spec(4));
        EXPECT_THROW((void)node.run_workload(work, 1.0), std::logic_error);
        wl::SelfishBenchmark selfish(4, node.platform().engine().clock());
        EXPECT_THROW(node.run_selfish(selfish, 0.1), std::logic_error);
        node.run_for(0.1);  // the primary keeps ticking
    }
}

// --- job-channel hardening ---------------------------------------------------

struct JobChannelFixture : ::testing::Test {
    NodeConfig cfg = [] {
        NodeConfig c = Harness::default_config(SchedulerKind::kKittenPrimary, 61);
        c.with_super_secondary = true;
        return c;
    }();
    Node node{cfg};
    std::unique_ptr<core::JobControl> jobs;

    void SetUp() override {
        node.boot();
        jobs = std::make_unique<core::JobControl>(node);
    }

    static core::JobCommand ping() {
        core::JobCommand cmd;
        cmd.op = core::JobOp::kPing;
        return cmd;
    }
};

TEST_F(JobChannelFixture, LostRepliesTimeOutInsteadOfHanging) {
    // Black-hole the control task: commands arrive but nothing ever answers.
    jobs->control_ctx().handler = [](const core::JobCommand&) {};
    core::JobControl::RetryPolicy pol;
    pol.attempt_timeout_s = 0.01;
    pol.max_attempts = 2;
    const core::JobReply r = jobs->request_reliable(ping(), pol);
    EXPECT_EQ(r.status, core::kStatusTimeout);
    EXPECT_EQ(jobs->channel_stats().timeouts, 1u);
    EXPECT_EQ(jobs->channel_stats().retransmits, 1u);
    // Legacy API maps the same failure to nullopt.
    EXPECT_FALSE(jobs->request(ping(), 0.01).has_value());
}

TEST_F(JobChannelFixture, RetransmitRecoversFromDroppedCommand) {
    const auto orig = jobs->control_ctx().handler;
    int calls = 0;
    jobs->control_ctx().handler = [&calls, orig](const core::JobCommand& c) {
        if (calls++ == 0) return;  // first delivery vanishes
        orig(c);
    };
    core::JobControl::RetryPolicy pol;
    pol.attempt_timeout_s = 0.05;
    pol.max_attempts = 4;
    const core::JobReply r = jobs->request_reliable(ping(), pol);
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.value, 0x706f6e67u);
    EXPECT_GE(jobs->channel_stats().retransmits, 1u);
    EXPECT_GE(calls, 2);
}

TEST_F(JobChannelFixture, ReplayCacheAnswersDuplicateCommandsWithoutReexecution) {
    const auto orig = jobs->control_ctx().handler;
    jobs->control_ctx().handler = [orig](const core::JobCommand& c) {
        orig(c);
        orig(c);  // duplicate delivery of the same tag
    };
    const core::JobReply r = jobs->request_reliable(ping());
    EXPECT_EQ(r.status, 0);
    // The second execution hit the reply cache instead of re-running the
    // command.
    EXPECT_EQ(jobs->channel_stats().replayed_replies, 1u);
    EXPECT_EQ(jobs->commands_processed(), 1u);
}

TEST_F(JobChannelFixture, StaleRepliesAreSuppressed) {
    // Attempts expire long before the ~25k-cycle control task can answer,
    // so every reply to the first request arrives stale.
    core::JobControl::RetryPolicy pol;
    pol.attempt_timeout_s = 1e-6;
    pol.max_attempts = 2;
    const core::JobReply r1 = jobs->request_reliable(ping(), pol);
    EXPECT_EQ(r1.status, core::kStatusTimeout);
    // The next (patient) request pumps the stale replies through; they must
    // be dropped, and the fresh request must still succeed.
    const core::JobReply r2 = jobs->request_reliable(ping());
    EXPECT_EQ(r2.status, 0);
    EXPECT_GE(jobs->channel_stats().duplicate_replies, 1u);
}

// --- chaos soak --------------------------------------------------------------

TEST(ChaosSoak, AllConfigsSurviveFaultsWithZeroFindings) {
    for (const SchedulerKind kind : core::kAllConfigs) {
        Harness::Options hopt;
        hopt.trials = 1;
        hopt.base_seed = 71;
        hopt.timeout_s = 600.0;
        hopt.config_factory = [](SchedulerKind k, std::uint64_t seed) {
            NodeConfig cfg = Harness::default_config(k, seed);
            cfg.check_mode = check::Mode::kStrict;  // native: no SPM, audit off
            return cfg;
        };
        struct Rig {
            std::unique_ptr<resil::Supervisor> sup;
            std::unique_ptr<resil::ChaosInjector> chaos;
        };
        std::uint64_t injections = 0;
        hopt.pre_trial = [&injections](SchedulerKind, std::uint64_t,
                                       Node& n) -> std::shared_ptr<void> {
            auto rig = std::make_shared<Rig>();
            if (n.spm() != nullptr && n.compute_vm() != nullptr) {
                resil::PolicyConfig pc;
                pc.restart_budget = 1000;  // soak: recover forever, never die
                pc.backoff_base_s = 0.02;
                rig->sup = std::make_unique<resil::Supervisor>(n, pc);
                rig->sup->supervise(n.compute_vm()->id());
                rig->sup->start();
            }
            resil::ChaosConfig cc;
            cc.rate_hz = 5.0;
            rig->chaos = std::make_unique<resil::ChaosInjector>(n, cc);
            rig->chaos->start();
            // Count via a raw pointer grab before the rig dies with the trial.
            struct Counter {
                Rig* rig;
                std::uint64_t* out;
                ~Counter() { *out += rig->chaos->stats().injections; }
            };
            return std::shared_ptr<void>(new Counter{rig.get(), &injections},
                                         [rig](void* p) {
                                             delete static_cast<Counter*>(p);
                                         });
        };
        Harness harness(hopt);
        const core::TrialResult r =
            harness.run_trial(kind, wl::randomaccess_spec(), 71);
        EXPECT_GT(r.seconds, 0.0) << "config " << static_cast<int>(kind);
        EXPECT_EQ(r.check_failures, 0u)
            << "config " << static_cast<int>(kind) << "\n" << r.check_report;
    }
    SUCCEED();
}

}  // namespace
}  // namespace hpcsec
