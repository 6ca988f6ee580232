// audited_memops: one Kitten-primary node with compute and login VMs under
// check::Mode::kStrict, driven by a seeded op sequence: FF-A share, lend,
// donate and reclaim; vm_read64 through granted windows; short run_for
// slices; and launches and destroys of signed dynamic partitions. Every
// hypercall runs a full isolation scan, so the memory map is read
// (owner_of) far more often than it is written — the mirror image of
// fleet_boot, where a gain for allocation that costs lookups would hide.
//
// The sequence is generated against a small model of the SPM's ownership
// state, so every op's return code (and every read's value) is known by
// construction. About one op in ten is a malformed window (unaligned owner
// IPA, zero pages, or a borrower IPA beyond the stage-2 input range) whose
// expected answer is kInvalid. The seed shuffles a fixed mix of steps, and
// the dynamic partitions are small next to the 512 MiB every audit scans,
// so the audited work per sequence barely depends on the seed.
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "bench.h"
#include "core/harness.h"
#include "core/signature.h"
#include "hafnium/abi.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kComputeMiB = 256;
constexpr std::uint64_t kSlotPages = 16;
constexpr std::uint64_t kSlotBytes = kSlotPages * arch::kPageSize;
constexpr std::uint64_t kSlotCount = (kComputeMiB << 20) / kSlotBytes;
constexpr std::size_t kPoolSlots = 64;   ///< compute slots the sequence touches
constexpr int kImages = 3;               ///< signed dynamic images (one launch each)
constexpr std::uint64_t kDynamicMiB[kImages] = {4, 8, 6};
constexpr double kSliceS = 10.0;         ///< simulated seconds per run_for
/// Borrower windows start above every RAM window (login and primary are
/// identity-mapped near 1 GiB; secondaries start at IPA 0).
constexpr arch::IpaAddr kHoleBase = 0x80'0000'0000ull;
constexpr arch::IpaAddr kBeyondIpa = 1ull << 52;

enum class Kind { kShare, kLend, kDonate, kReclaim, kRead, kRunFor, kLaunch, kDestroy };

/// Generator steps per sequence, by kind. A malformed window is a
/// share/lend/donate step with a broken argument.
enum class Step { kBadWindow, kShare, kLend, kReclaim, kDonate, kRead, kRunFor, kLaunch, kDestroy };
constexpr std::pair<Step, int> kStepMix[] = {
    {Step::kBadWindow, 10}, {Step::kShare, 15}, {Step::kLend, 15},
    {Step::kReclaim, 15},   {Step::kDonate, 10}, {Step::kRead, 15},
    {Step::kRunFor, 12},    {Step::kLaunch, 3}, {Step::kDestroy, 2},
};

struct Op {
    Kind kind = Kind::kRead;
    hafnium::HfError expect = hafnium::HfError::kOk;
    int target = 0;                 ///< partition: 0 = login, k = k-th launch
    arch::IpaAddr owner_ipa = 0;    ///< compute IPA (memory calls)
    std::uint64_t pages = 0;
    arch::IpaAddr borrower_ipa = 0;
    int reader = -1;                ///< kRead: -1 = compute, else partition
    arch::IpaAddr ipa = 0;          ///< kRead address in the reader's space
    bool expect_ok = false;         ///< kRead: access allowed?
    std::uint64_t value = 0;        ///< kRead: expected word when allowed
};

std::uint64_t pattern(std::uint64_t seed, arch::IpaAddr ipa) {
    std::uint64_t s = seed ^ (ipa * 0x9e3779b97f4a7c15ull);
    return sim::splitmix64(s);
}

/// Builds the op sequence against a model of compute's slots, the live
/// grants and the live partitions.
class Generator {
public:
    Generator(std::uint64_t seed, std::uint64_t pattern_seed)
        : rng_(seed), pattern_seed_(pattern_seed) {
        std::set<std::uint64_t> picked;
        while (picked.size() < kPoolSlots) picked.insert(rng_.next_below(kSlotCount));
        free_.assign(picked.begin(), picked.end());
        pool_ = free_;
        live_.push_back(0);  // the login VM
    }

    std::vector<Op> run() {
        std::vector<Step> steps;
        for (const auto& [step, n] : kStepMix) steps.insert(steps.end(), n, step);
        for (std::size_t i = steps.size(); i > 1; --i) {
            std::swap(steps[i - 1], steps[rng_.next_below(i)]);
        }
        for (const Step step : steps) {
            switch (step) {
                case Step::kBadWindow: bad_window(); break;
                case Step::kShare: grant(Kind::kShare); break;
                case Step::kLend: grant(Kind::kLend); break;
                case Step::kReclaim:
                    // Nothing to reclaim yet: share instead, keeping the
                    // hypercall count of the sequence.
                    if (grants_.empty()) {
                        grant(Kind::kShare);
                    } else {
                        reclaim(rng_.next_below(grants_.size()));
                    }
                    break;
                case Step::kDonate: donate(); break;
                case Step::kRead: read_random(); break;
                case Step::kRunFor: ops_.push_back(Op{Kind::kRunFor}); break;
                case Step::kLaunch: launch(); break;
                case Step::kDestroy: destroy(); break;
            }
        }
        return ops_;
    }

    [[nodiscard]] const std::vector<std::uint64_t>& pool() const { return pool_; }

private:
    struct Grant {
        std::uint64_t slot;
        std::uint64_t pages;
        int target;
        arch::IpaAddr borrower_ipa;
        bool lend;
    };

    static arch::IpaAddr slot_ipa(std::uint64_t slot) { return slot * kSlotBytes; }

    std::uint64_t take_free_slot() {
        const std::size_t i = rng_.next_below(free_.size());
        const std::uint64_t slot = free_[i];
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
        return slot;
    }

    int pick_target() { return live_[rng_.next_below(live_.size())]; }

    arch::IpaAddr next_hole() { return kHoleBase + (holes_++) * kSlotBytes; }

    void read(int reader, arch::IpaAddr ipa, bool ok, arch::IpaAddr source_ipa) {
        Op op{Kind::kRead};
        op.reader = reader;
        op.ipa = ipa;
        op.expect_ok = ok;
        op.value = ok ? pattern(pattern_seed_, source_ipa) : 0;
        ops_.push_back(op);
    }

    void bad_window() {
        Op op{};
        const std::uint64_t call = rng_.next_below(3);
        op.kind = call == 0 ? Kind::kShare : call == 1 ? Kind::kLend : Kind::kDonate;
        op.expect = hafnium::HfError::kInvalid;
        op.target = pick_target();
        op.owner_ipa = slot_ipa(pool_[rng_.next_below(pool_.size())]);
        op.pages = 1 + rng_.next_below(kSlotPages);
        op.borrower_ipa = next_hole();
        switch (rng_.next_below(3)) {
            case 0: op.owner_ipa += 8; break;          // unaligned
            case 1: op.pages = 0; break;               // empty window
            default: op.borrower_ipa = kBeyondIpa; break;  // past the IPA range
        }
        ops_.push_back(op);
    }

    void grant(Kind kind) {
        if (free_.empty()) return;
        Grant g{take_free_slot(), 1 + rng_.next_below(kSlotPages), pick_target(),
                next_hole(), kind == Kind::kLend};
        Op op{kind};
        op.target = g.target;
        op.owner_ipa = slot_ipa(g.slot);
        op.pages = g.pages;
        op.borrower_ipa = g.borrower_ipa;
        ops_.push_back(op);
        grants_.push_back(g);
        const std::uint64_t page = rng_.next_below(g.pages) * arch::kPageSize;
        read(g.target, g.borrower_ipa + page, true, slot_ipa(g.slot) + page);
        if (g.lend) read(-1, slot_ipa(g.slot) + page, false, 0);
    }

    void reclaim(std::size_t i) {
        const Grant g = grants_[i];
        grants_.erase(grants_.begin() + static_cast<std::ptrdiff_t>(i));
        Op op{Kind::kReclaim};
        op.target = g.target;
        op.owner_ipa = slot_ipa(g.slot);
        ops_.push_back(op);
        read(g.target, g.borrower_ipa, false, 0);
        read(-1, slot_ipa(g.slot), true, slot_ipa(g.slot));
        free_.push_back(g.slot);
    }

    void donate() {
        if (free_.empty()) return;
        const std::uint64_t slot = take_free_slot();
        Op op{Kind::kDonate};
        op.target = pick_target();
        op.owner_ipa = slot_ipa(slot);
        op.pages = 1 + rng_.next_below(kSlotPages);
        op.borrower_ipa = next_hole();
        ops_.push_back(op);
        read(op.target, op.borrower_ipa, true, op.owner_ipa);
        read(-1, op.owner_ipa, false, 0);
    }

    void read_random() {
        if (!grants_.empty() && rng_.next_below(2) == 0) {
            const Grant& g = grants_[rng_.next_below(grants_.size())];
            const std::uint64_t page = rng_.next_below(g.pages) * arch::kPageSize;
            read(g.target, g.borrower_ipa + page, true, slot_ipa(g.slot) + page);
        } else if (!free_.empty()) {
            const arch::IpaAddr ipa =
                slot_ipa(free_[rng_.next_below(free_.size())]) +
                rng_.next_below(kSlotPages) * arch::kPageSize;
            read(-1, ipa, true, ipa);
        }
    }

    void launch() {
        Op op{Kind::kLaunch};
        op.target = ++launched_;
        ops_.push_back(op);
        live_.push_back(launched_);
    }

    void destroy() {
        if (live_.size() < 2) {  // no dynamic partition is up
            read_random();
            return;
        }
        // Destroy a dynamic partition; reclaim its grants first so every
        // reclaim stays an explicit, checked op.
        const std::size_t li = 1 + rng_.next_below(live_.size() - 1);
        const int victim = live_[li];
        for (std::size_t i = grants_.size(); i > 0; --i) {
            if (grants_[i - 1].target == victim) reclaim(i - 1);
        }
        Op op{Kind::kDestroy};
        op.target = victim;
        ops_.push_back(op);
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(li));
    }

    sim::Rng rng_;
    std::uint64_t pattern_seed_;
    std::vector<std::uint64_t> pool_;
    std::vector<std::uint64_t> free_;
    std::vector<Grant> grants_;
    std::vector<int> live_;
    int launched_ = 0;
    std::uint64_t holes_ = 0;
    std::vector<Op> ops_;
};

const char* kind_name(Kind k) {
    switch (k) {
        case Kind::kShare: return "share";
        case Kind::kLend: return "lend";
        case Kind::kDonate: return "donate";
        case Kind::kReclaim: return "reclaim";
        case Kind::kRead: return "read";
        case Kind::kRunFor: return "run_for";
        case Kind::kLaunch: return "launch";
        case Kind::kDestroy: return "destroy";
    }
    return "?";
}

class AuditedMemops final : public Workload {
public:
    explicit AuditedMemops(std::uint64_t seed) {
        sim::Rng rng(seed);
        node_seed_ = rng.next_u64();
        pattern_seed_ = rng.next_u64();
        Generator gen(rng.next_u64(), pattern_seed_);
        ops_ = gen.run();
        pool_ = gen.pool();
        for (int i = 0; i < kImages; ++i) {
            std::vector<std::uint8_t> key_seed(32);
            for (auto& b : key_seed) b = static_cast<std::uint8_t>(rng.next_u64());
            signers_.emplace_back(key_seed);
            const std::string name = "dyn" + std::to_string(i);
            images_.push_back(*signers_.back().sign(name, core::Node::make_image(name)));
        }
    }

    Rep run_rep(bool traced, int /*jobs*/) override {
        Rep rep;
        rep.traced = traced;
        Ledger ledger;
        Ledger* lg = traced ? &ledger : nullptr;
        const Clock::time_point start = Clock::now();
        if (lg) lg->enter(kBench);
        try {
            run_node(rep, lg);
        } catch (const std::exception& e) {
            rep.fail(std::string("exception: ") + e.what());
            while (lg && ledger.open()) lg->leave();
            if (lg) lg->enter(kBench);
        }
        if (lg) {
            lg->leave();
            rep.self_s = ledger.self_s();
        }
        rep.wall_s = seconds(start, Clock::now());
        return rep;
    }

private:
    void run_node(Rep& rep, Ledger* lg) {
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kKittenPrimary, node_seed_);
        cfg.compute_mem_bytes = kComputeMiB << 20;
        cfg.with_super_secondary = true;
        cfg.check_mode = check::Mode::kStrict;

        heap::reset_peak();
        const std::int64_t heap_base = heap::live_bytes();
        const Clock::time_point t0 = Clock::now();
        if (lg) lg->enter(kBoot);
        std::optional<core::Node> node;
        node.emplace(std::move(cfg));
        node->boot();
        if (lg) lg->leave();
        const Clock::time_point t1 = Clock::now();
        rep.setup_s = seconds(t0, t1);
        rep.boot_ms.push_back(rep.setup_s * 1e3);
        count_boot(*node, rep);

        hafnium::Spm& spm = *node->spm();
        const hafnium::Vm& compute = *node->compute_vm();
        const arch::VmId compute_id = compute.id();
        for (const auto& signer : signers_) node->verifier().enroll(signer.public_key());
        for (const std::uint64_t slot : pool_) {
            for (std::uint64_t p = 0; p < kSlotPages; ++p) {
                const arch::IpaAddr ipa = slot * kSlotBytes + p * arch::kPageSize;
                spm.vm_write64(compute_id, ipa, pattern(pattern_seed_, ipa));
            }
        }

        std::vector<arch::VmId> partitions(kImages + 1, 0);
        partitions[0] = node->login_vm()->id();
        std::string& w = rep.witness;
        {
            HypercallTimer hc(spm, lg);
            std::optional<DispatchClock> dc;
            if (lg) dc.emplace(node->platform().engine());
            for (std::size_t i = 0; i < ops_.size(); ++i) {
                const Op& op = ops_[i];
                ++rep.attempted;
                char line[160];
                const std::string outcome =
                    execute(*node, op, partitions, rep, lg, dc ? &*dc : nullptr);
                std::snprintf(line, sizeof line, "%zu %s %s\n", i, kind_name(op.kind),
                              outcome.c_str());
                w += line;
            }
            rep.hypercall_us = hc.total_us;
            rep.handler_us = hc.handler_us;
            rep.audit_us = hc.audit_us;
        }

        // Ownership fingerprint: the owner of every page the sequence could
        // touch, plus the live grant list.
        arch::MemoryMap& mem = node->platform().mem();
        for (const std::uint64_t slot : pool_) {
            w += "slot " + std::to_string(slot) + ":";
            for (std::uint64_t p = 0; p < kSlotPages; ++p) {
                const auto owner =
                    mem.owner_of(compute.mem_base + slot * kSlotBytes + p * arch::kPageSize);
                w += owner && owner->allocated ? " " + std::to_string(owner->vm) : " -";
            }
            w += "\n";
        }
        for (const auto& g : spm.grants()) {
            char line[160];
            std::snprintf(line, sizeof line, "grant %d->%d %llx %llx %llu %d\n", g.owner,
                          g.borrower, static_cast<unsigned long long>(g.owner_ipa),
                          static_cast<unsigned long long>(g.borrower_ipa),
                          static_cast<unsigned long long>(g.pages), g.exclusive ? 1 : 0);
            w += line;
        }
        check::Auditor& auditor = *node->auditor();
        auditor.validate();
        if (!auditor.failures().empty()) rep.fail("auditor: " + auditor.report());
        w += "audits " + std::to_string(auditor.audits()) + "\n";
        count_run(*node, rep);
        const double heap_peak = static_cast<double>(heap::peak_bytes() - heap_base);
        rep.counts["arena.bytes_per_node"] +=
            static_cast<double>(node->platform().arena().bytes_used());

        const Clock::time_point t2 = Clock::now();
        if (lg) lg->enter(kTeardown);
        node.reset();
        if (lg) lg->leave();
        const Clock::time_point t3 = Clock::now();
        rep.teardown_ms.push_back(seconds(t2, t3) * 1e3);
        // One node per rep: its lifecycle is boot, the op sequence and
        // teardown, leaving out only the fingerprint and checks above.
        rep.node_ms.push_back((seconds(t0, t2) + seconds(t2, t3)) * 1e3);
        rep.node_heap_bytes.push_back(heap_peak);
    }

    /// Run one op; returns its witness text and records any mismatch.
    std::string execute(core::Node& node, const Op& op,
                        std::vector<arch::VmId>& partitions, Rep& rep, Ledger* lg,
                        DispatchClock* dc) {
        hafnium::Spm& spm = *node.spm();
        const arch::VmId compute = node.compute_vm()->id();
        const auto expect_rc = [&](const hafnium::HfResult& r) {
            if (r.error != op.expect) {
                rep.fail(std::string(kind_name(op.kind)) + " returned " +
                         hafnium::to_string(r.error) + ", expected " +
                         hafnium::to_string(op.expect));
            }
            return hafnium::to_string(r.error);
        };
        const arch::VmId target = partitions[static_cast<std::size_t>(op.target)];
        switch (op.kind) {
            case Kind::kShare:
            case Kind::kLend:
            case Kind::kDonate:
            case Kind::kReclaim: {
                if (lg) lg->enter(kMemops);
                hafnium::HfResult r;
                if (op.kind == Kind::kShare) {
                    r = hf::mem_share(spm, 0, compute, target, op.owner_ipa, op.pages,
                                      op.borrower_ipa);
                } else if (op.kind == Kind::kLend) {
                    r = hf::mem_lend(spm, 0, compute, target, op.owner_ipa, op.pages,
                                     op.borrower_ipa);
                } else if (op.kind == Kind::kDonate) {
                    r = hf::mem_donate(spm, 0, compute, target, op.owner_ipa, op.pages,
                                       op.borrower_ipa);
                } else {
                    r = hf::mem_reclaim(spm, 0, compute, target, op.owner_ipa);
                }
                if (lg) lg->leave();
                return expect_rc(r);
            }
            case Kind::kRead: {
                const arch::VmId reader =
                    op.reader < 0 ? compute : partitions[static_cast<std::size_t>(op.reader)];
                std::uint64_t value = 0;
                if (lg) lg->enter(kMemops);
                const bool ok = spm.vm_read64(reader, op.ipa, value);
                if (lg) lg->leave();
                if (ok != op.expect_ok || (ok && value != op.value)) {
                    rep.fail("read vm" + std::to_string(reader) + " ipa " +
                             std::to_string(op.ipa) + " gave " + (ok ? "a wrong word" : "a fault"));
                }
                return ok ? std::to_string(value) : "fault";
            }
            case Kind::kRunFor: {
                sim::Engine& engine = node.platform().engine();
                const double before = static_cast<double>(engine.events_executed());
                const Clock::time_point r0 = Clock::now();
                if (lg) lg->enter(kRun);
                node.run_for(kSliceS);
                if (lg) lg->leave();
                const double run_s = seconds(r0, Clock::now());
                if (dc != nullptr) dc->close(rep);
                const double events = static_cast<double>(engine.events_executed()) - before;
                rep.run_s += run_s;
                rep.run_events += events;
                rep.run_ms.push_back(run_s * 1e3);
                rep.config_run_s["kitten"] += run_s;
                return std::to_string(static_cast<unsigned long long>(events));
            }
            case Kind::kLaunch: {
                const int image = op.target - 1;
                if (lg) lg->enter(kLifecycle);
                const arch::VmId id = node.launch_dynamic_vm(
                    images_[static_cast<std::size_t>(image)], kDynamicMiB[image] << 20, 1);
                if (lg) lg->leave();
                partitions[static_cast<std::size_t>(op.target)] = id;
                return "vm" + std::to_string(id);
            }
            case Kind::kDestroy: {
                if (lg) lg->enter(kLifecycle);
                node.destroy_dynamic_vm(target);
                if (lg) lg->leave();
                return "vm" + std::to_string(target);
            }
        }
        return "?";
    }

    std::uint64_t node_seed_ = 0;
    std::uint64_t pattern_seed_ = 0;
    std::vector<Op> ops_;
    std::vector<std::uint64_t> pool_;
    std::vector<core::ImageSigner> signers_;
    std::vector<core::SignedImage> images_;
};

}  // namespace

std::unique_ptr<Workload> make_audited_memops(std::uint64_t seed) {
    return std::make_unique<AuditedMemops>(seed);
}

}  // namespace perfbench
