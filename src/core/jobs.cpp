#include "core/jobs.h"

#include <limits>
#include <stdexcept>

namespace hpcsec::core {

namespace {

/// True when the request names a partition the control task may schedule:
/// a plain secondary that has not been torn down. The primary and the
/// login VM host the channel itself and are never job targets. Checked on
/// the wire value, so an id past VmId's range cannot alias a low one.
bool live_secondary(hafnium::Spm& spm, std::uint64_t id) {
    if (id == 0 || id > static_cast<std::uint64_t>(spm.vm_count())) return false;
    const hafnium::Vm& vm = spm.vm(static_cast<arch::VmId>(id));
    return vm.role() == hafnium::VmRole::kSecondary && !vm.destroyed;
}

}  // namespace

void ControlTaskCtx::enqueue(JobCommand cmd) {
    // sca-suppress(hot-path-alloc): job-control commands are control-plane
    // operations (launch/destroy), not the per-event dispatch path.
    inbox_.push_back(cmd);
    if (remaining_ <= 0.0) remaining_ = budget_;
}

void ControlTaskCtx::advance(double units, sim::SimTime /*now*/) {
    if (units < remaining_) {
        remaining_ -= units;
        return;
    }
    remaining_ = 0.0;
    if (inbox_.empty()) return;
    const JobCommand cmd = inbox_.front();
    inbox_.pop_front();
    ++processed_;
    if (handler) handler(cmd);
    if (!inbox_.empty()) remaining_ = budget_;
}

JobControl::JobControl(Node& node) : node_(&node) {
    if (!node.booted() || node.spm() == nullptr || node.kitten() == nullptr ||
        !node.kitten()->is_primary_vm() || node.login_vm() == nullptr) {
        throw std::logic_error(
            "JobControl: needs a booted Kitten-primary node with a login VM");
    }
    hafnium::Spm& spm = *node.spm();
    kitten::KittenKernel& kernel = *node.kitten();

    // Mailbox pages. The primary allocates from its kernel heap (buddy);
    // the login VM uses a fixed window in its own IPA space.
    const auto send_off = kernel.kmem().alloc(arch::kPageSize);
    const auto recv_off = kernel.kmem().alloc(arch::kPageSize);
    if (!send_off || !recv_off) throw std::runtime_error("JobControl: kmem exhausted");
    // Mailboxes live inside each VM's own RAM window (the primary and the
    // login VM are identity-mapped, so offsets are relative to ipa_base).
    constexpr arch::IpaAddr kHeapOffset = 0x20'0000;
    const arch::IpaAddr primary_base = spm.primary_vm().ipa_base;
    const arch::IpaAddr login_base = node.login_vm()->ipa_base;
    primary_send_ = primary_base + kHeapOffset + *send_off;
    primary_recv_ = primary_base + kHeapOffset + *recv_off;
    login_send_ = login_base + 0x1000;
    login_recv_ = login_base + 0x2000;

    const arch::VmId primary_id = arch::kPrimaryVmId;
    const arch::VmId login_id = node.login_vm()->id();
    auto check = [](const hafnium::HfResult& r, const char* what) {
        if (!r.ok()) throw std::runtime_error(std::string("JobControl: ") + what);
    };
    check(hf::vm_configure(spm, 0, primary_id, primary_send_, primary_recv_),
          "primary mailbox configure failed");
    check(hf::vm_configure(spm, 0, login_id, login_send_, login_recv_),
          "login mailbox configure failed");

    // Session keys for the authenticated channel, derived from the measured
    // boot state (both ends observe the same accumulator at provisioning).
    const crypto::Digest& acc = node.attestation().accumulator();
    cmd_key_ = derive_channel_key(acc, "hpcsec:jobctl:cmd");
    reply_key_ = derive_channel_key(acc, "hpcsec:jobctl:reply");

    // Control task on core 0 of the primary.
    ctl_.handler = [this](const JobCommand& cmd) { execute(cmd); };
    ctl_thread_ = &kernel.add_control_task(0, &ctl_, "control");

    // Message plumbing.
    kernel.message_hook = [this](arch::VmId from) { on_primary_message(from); };
    node.login_guest()->message_hook = [this] { on_login_message(); };
}

bool JobControl::try_send_words(arch::VmId from, arch::VmId to,
                                const std::vector<std::uint64_t>& words) {
    hafnium::Spm& spm = *node_->spm();
    const arch::IpaAddr send = from == arch::kPrimaryVmId ? primary_send_ : login_send_;
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (!spm.vm_write64(from, send + i * 8, words[i])) {
            throw std::runtime_error("JobControl: send buffer write failed");
        }
    }
    return hf::msg_send(spm, 0, from, to,
                        static_cast<std::uint32_t>(words.size() * 8))
        .ok();
}

void JobControl::on_primary_message(arch::VmId from) {
    hafnium::Spm& spm = *node_->spm();
    hafnium::Vm& primary = spm.primary_vm();
    if (!primary.mailbox.recv_full) return;
    std::vector<std::uint64_t> words(primary.mailbox.recv_size / 8);
    for (std::size_t i = 0; i < words.size(); ++i) {
        spm.vm_read64(arch::kPrimaryVmId, primary_recv_ + i * 8, words[i]);
    }
    hf::rx_release(spm, 0, arch::kPrimaryVmId);
    (void)from;
    const auto payload = unseal(words, cmd_key_, cmd_recv_ctr_);
    if (!payload) {
        ++rejected_frames_;  // forged, corrupted, or replayed
        return;
    }
    if (const auto cmd = decode_command(*payload)) {
        ctl_.enqueue(*cmd);
        node_->kitten()->wake(*ctl_thread_);
    }
}

void JobControl::on_login_message() {
    hafnium::Spm& spm = *node_->spm();
    hafnium::Vm& login = *node_->login_vm();
    if (!login.mailbox.recv_full) return;
    std::vector<std::uint64_t> words(login.mailbox.recv_size / 8);
    for (std::size_t i = 0; i < words.size(); ++i) {
        spm.vm_read64(login.id(), login_recv_ + i * 8, words[i]);
    }
    hf::rx_release(spm, login.vcpu(0).assigned_core, login.id());
    const auto payload = unseal(words, reply_key_, reply_recv_ctr_);
    if (!payload) {
        ++rejected_frames_;
        return;
    }
    if (const auto reply = decode_reply(*payload)) {
        if (awaiting_tag_ != 0 && reply->tag == awaiting_tag_) {
            pending_reply_ = *reply;
        } else {
            // A reply for a request we already answered (retransmit raced
            // the original) or gave up on: suppress, don't clobber state.
            ++channel_stats_.duplicate_replies;
        }
    }
}

void JobControl::execute(const JobCommand& cmd) {
    if (const auto it = reply_cache_.find(cmd.tag); it != reply_cache_.end()) {
        // Duplicate command (a login-side retransmit whose original went
        // through): resend the recorded reply without re-executing, so
        // lifecycle operations stay idempotent under retry.
        ++channel_stats_.replayed_replies;
        queue_reply(it->second);
        return;
    }
    kitten::KittenKernel& kernel = *node_->kitten();
    hafnium::Spm& spm = *node_->spm();
    JobReply reply;
    reply.tag = cmd.tag;
    switch (cmd.op) {
        case JobOp::kPing:
            reply.value = 0x706f6e67;  // "pong"
            break;
        case JobOp::kLaunchVm:
        case JobOp::kStopVm:
        case JobOp::kMigrateVcpu:
        case JobOp::kDestroyVm: {
            if (!live_secondary(spm, cmd.vm)) {
                reply.status = -1;
                break;
            }
            const auto id = static_cast<arch::VmId>(cmd.vm);
            constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
            if (cmd.op == JobOp::kLaunchVm) {
                kernel.launch_vm(id);
            } else if (cmd.op == JobOp::kStopVm) {
                kernel.stop_vm(id);
            } else if (cmd.op == JobOp::kDestroyVm) {
                try {
                    node_->destroy_dynamic_vm(id);
                } catch (const std::exception&) {
                    reply.status = -1;
                }
            } else if (cmd.vcpu > kIntMax || cmd.arg > kIntMax ||
                       !kernel.migrate_vcpu(id, static_cast<int>(cmd.vcpu),
                                            static_cast<arch::CoreId>(cmd.arg))) {
                // Words past int range are refused, not narrowed onto a
                // low VCPU index or core.
                reply.status = -1;
            }
            break;
        }
        case JobOp::kCreateVm: {
            // arg = staged-image index, vcpu = vcpu count, vm = mem MiB.
            const auto& staged = node_->staged_images();
            if (cmd.arg >= staged.size()) {
                reply.status = -1;
                break;
            }
            try {
                const std::uint64_t mem =
                    (cmd.vm != 0 ? cmd.vm : 64) << 20;  // MiB -> bytes
                const int vcpus = cmd.vcpu != 0 ? static_cast<int>(cmd.vcpu) : 1;
                reply.value = node_->launch_dynamic_vm(staged[cmd.arg], mem, vcpus);
            } catch (const std::exception&) {
                reply.status = -2;  // signature/resource failure
            }
            break;
        }
        case JobOp::kQueryVm: {
            const hafnium::HfResult r =
                hf::vm_get_info(spm, 0, arch::kPrimaryVmId, cmd.vm);
            reply.status = r.ok() ? 0 : -1;
            reply.value = static_cast<std::uint64_t>(r.value);
            break;
        }
    }
    constexpr std::size_t kReplyCacheSize = 32;
    reply_cache_[cmd.tag] = reply;
    reply_cache_order_.push_back(cmd.tag);
    while (reply_cache_order_.size() > kReplyCacheSize) {
        reply_cache_.erase(reply_cache_order_.front());
        reply_cache_order_.pop_front();
    }
    queue_reply(reply);
}

void JobControl::queue_reply(const JobReply& reply) {
    reply_outbox_.push_back(reply);
    flush_replies();
}

void JobControl::flush_replies() {
    while (!reply_outbox_.empty()) {
        // Seal at send time so every (re)attempt carries a fresh counter —
        // the login side only requires monotonicity, gaps are fine.
        if (!try_send_words(arch::kPrimaryVmId, node_->login_vm()->id(),
                            seal(encode(reply_outbox_.front()), reply_key_,
                                 ++reply_send_ctr_))) {
            // Login mailbox still holds an unconsumed frame: park the reply
            // and retry shortly instead of throwing inside an engine event.
            ++channel_stats_.deferred_replies;
            if (!flush_pending_) {
                flush_pending_ = true;
                auto& engine = node_->platform().engine();
                engine.at(engine.now() + engine.clock().from_millis(1.0),
                          [this] {
                              flush_pending_ = false;
                              flush_replies();
                          },
                          sim::kPrioKernel);
            }
            return;
        }
        reply_outbox_.pop_front();
    }
}

std::optional<JobReply> JobControl::request(const JobCommand& cmd_in,
                                            double timeout_s) {
    // Legacy single-shot semantics on top of the hardened path.
    const JobReply r =
        request_reliable(cmd_in, RetryPolicy{timeout_s, /*max_attempts=*/1});
    if (r.status == kStatusTimeout) return std::nullopt;
    return r;
}

JobReply JobControl::request_reliable(const JobCommand& cmd_in,
                                      const RetryPolicy& policy) {
    JobCommand cmd = cmd_in;
    cmd.tag = next_tag_++;
    pending_reply_.reset();
    awaiting_tag_ = cmd.tag;
    auto& engine = node_->platform().engine();

    for (int attempt = 0; attempt < std::max(1, policy.max_attempts); ++attempt) {
        if (attempt > 0) ++channel_stats_.retransmits;
        // Same tag every attempt (the control side's replay cache keeps
        // re-execution idempotent), fresh counter every frame. A busy
        // primary mailbox just means this attempt waits; the next one
        // retransmits.
        (void)try_send_words(node_->login_vm()->id(), arch::kPrimaryVmId,
                             seal(encode(cmd), cmd_key_, ++cmd_send_ctr_));
        const sim::SimTime deadline =
            engine.now() + engine.clock().from_seconds(policy.attempt_timeout_s);
        // Pump the simulation in slices until the reply lands.
        while (engine.now() < deadline) {
            if (pending_reply_ && pending_reply_->tag == cmd.tag) break;
            engine.run_until(std::min<sim::SimTime>(
                deadline, engine.now() + engine.clock().from_millis(10.0)));
        }
        if (pending_reply_ && pending_reply_->tag == cmd.tag) {
            awaiting_tag_ = 0;
            return *pending_reply_;
        }
    }
    awaiting_tag_ = 0;
    ++channel_stats_.timeouts;
    JobReply timed_out;
    timed_out.tag = cmd.tag;
    timed_out.status = kStatusTimeout;
    return timed_out;
}

}  // namespace hpcsec::core
