// Login-VM job control: the paper's super-secondary design in action.
//
// Boots a node with the Linux "login" VM owning the devices, then drives
// the full job-control path: login VM -> secure mailbox channel -> Kitten
// control task -> Hafnium hypercalls. Demonstrates ping, VM query, VCPU
// migration, and stop/relaunch of the compute VM — plus the privilege
// boundary (the login VM cannot call HF_VCPU_RUN itself). Exits 1 when any
// request times out or answers a nonzero status.
#include <cstdio>

#include "core/harness.h"
#include "core/jobs.h"
#include "core/node.h"

int main() {
    using namespace hpcsec;

    core::NodeConfig cfg =
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 99);
    cfg.with_super_secondary = true;
    core::Node node(cfg);
    node.boot();

    std::printf("node up: %d VMs\n", node.spm()->vm_count());
    for (int id = 1; id <= node.spm()->vm_count(); ++id) {
        hafnium::Vm& vm = node.spm()->vm(static_cast<arch::VmId>(id));
        std::printf("  vm%d %-16s role=%-15s devices=%zu\n", id, vm.name().c_str(),
                    to_string(vm.role()).c_str(),
                    node.spm()->devices_of(vm.id()).size());
    }

    // The privilege boundary first: a direct HF_VCPU_RUN from the login VM
    // must be refused by the SPM ("does not have ... the ability to assume
    // control over CPU cores").
    const auto denied = hf::vcpu_run(*node.spm(), 0, node.login_vm()->id(),
                                     node.compute_vm()->id(), /*vcpu=*/0);
    std::printf("\nlogin VM calling HF_VCPU_RUN directly: %s\n",
                to_string(denied.error).c_str());

    // Now the sanctioned path: the job-control channel.
    core::JobControl jobs(node);

    bool failed = false;
    auto request = [&](core::JobCommand cmd, const char* what) {
        const auto reply = jobs.request(cmd, 3.0);
        if (reply) {
            std::printf("  %-28s -> status=%lld value=%#llx\n", what,
                        static_cast<long long>(reply->status),
                        static_cast<unsigned long long>(reply->value));
            if (reply->status != 0) failed = true;
        } else {
            std::printf("  %-28s -> TIMEOUT\n", what);
            failed = true;
        }
    };

    std::printf("\njob-control session from the login VM:\n");
    core::JobCommand ping;
    ping.op = core::JobOp::kPing;
    request(ping, "ping");

    core::JobCommand query;
    query.op = core::JobOp::kQueryVm;
    query.vm = node.compute_vm()->id();
    request(query, "query compute VM");

    core::JobCommand migrate;
    migrate.op = core::JobOp::kMigrateVcpu;
    migrate.vm = node.compute_vm()->id();
    migrate.vcpu = 3;
    migrate.arg = 1;
    request(migrate, "migrate vcpu3 -> core1");
    std::printf("    vcpu3 now assigned to core %d\n",
                node.compute_vm()->vcpu(3).assigned_core);

    core::JobCommand stop;
    stop.op = core::JobOp::kStopVm;
    stop.vm = node.compute_vm()->id();
    request(stop, "stop compute VM");

    core::JobCommand launch;
    launch.op = core::JobOp::kLaunchVm;
    launch.vm = node.compute_vm()->id();
    request(launch, "relaunch compute VM");

    std::printf("\ncontrol task processed %llu commands; SPM saw %llu messages\n",
                static_cast<unsigned long long>(jobs.commands_processed()),
                static_cast<unsigned long long>(node.spm()->stats().messages));
    return failed ? 1 : 0;
}
