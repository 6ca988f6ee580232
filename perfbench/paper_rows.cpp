// paper_rows: core::Harness::run_rows over the Fig. 7/8 specs (HPCG,
// Stream, RandomAccess) and the Fig. 9/10 NAS suite, across Native, Kitten
// and Linux — what users run to regenerate the figures. Run time dominates:
// the Linux-primary cells load the engine queue and timer wheel, the SPM
// gate and world switches, and the kernel tick paths; boot is a minor share.
//
// The seed picks the harness base seed (hence every trial seed). Timed reps
// run at jobs 2; the first rep of an untraced run goes at jobs 1, both to
// measure per-node heap on one thread and to prove that format_raw plus
// format_metrics_json are identical at jobs 1 and jobs 2. Phase times come
// from the Harness hooks: config_factory opens a trial, pre_trial closes its
// boot, post_trial closes its run, and the next config_factory on the same
// worker closes its teardown.
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/harness.h"
#include "paper_reference.h"
#include "workloads/hpcg.h"
#include "workloads/nas.h"
#include "workloads/randomaccess.h"
#include "workloads/stream.h"

namespace perfbench {
namespace {

constexpr int kTrials = 2;
constexpr int kJobs = 2;
/// A Linux-primary trial makes tens of thousands of hypercalls; keeping
/// every 64th bounds the sample memory and the clock reads.
constexpr std::uint64_t kSampleEvery = 64;

const char* config_name(core::SchedulerKind kind) {
    switch (kind) {
        case core::SchedulerKind::kNativeKitten: return "native";
        case core::SchedulerKind::kKittenPrimary: return "kitten";
        case core::SchedulerKind::kLinuxPrimary: return "linux";
    }
    return "?";
}

/// Probes attached to one trial node between boot and the end of its run.
struct Attachment {
    Attachment(core::Node& node, Ledger* ledger) {
        if (hafnium::Spm* spm = node.spm()) hc.emplace(*spm, ledger, kSampleEvery);
        if (ledger != nullptr) dc.emplace(node.platform().engine());
    }
    std::optional<HypercallTimer> hc;
    std::optional<DispatchClock> dc;
};

/// Per-worker phase clock driven by the Harness hooks. The harness runs its
/// hooks mutually exclusive (or on one thread at jobs 1), so the map needs
/// no lock of its own.
class TrialClock {
public:
    TrialClock(Rep& rep, Ledger* ledger, bool measure_heap)
        : rep_(&rep), ledger_(ledger), measure_heap_(measure_heap) {}

    void start() {
        const Clock::time_point now = Clock::now();
        Trial& t = trials_[std::this_thread::get_id()];
        if (t.open) close(t, now);
        t = Trial{};
        t.open = true;
        t.start = now;
        if (measure_heap_) {
            heap::reset_peak();
            t.heap_base = heap::live_bytes();
        }
        if (ledger_ != nullptr) ledger_->enter(kBoot);
    }

    std::shared_ptr<void> booted(core::Node& node) {
        if (ledger_ != nullptr) ledger_->leave();
        Trial& t = trials_[std::this_thread::get_id()];
        t.booted = Clock::now();
        const double boot_s = seconds(t.start, t.booted);
        rep_->setup_s += boot_s;
        rep_->boot_ms.push_back(boot_s * 1e3);
        count_boot(node, *rep_);
        t.events_at_boot =
            static_cast<double>(node.platform().engine().events_executed());
        auto attachment = std::make_shared<Attachment>(node, ledger_);
        t.attachment = attachment.get();
        if (ledger_ != nullptr) ledger_->enter(kRun);
        t.run_start = Clock::now();
        return attachment;
    }

    void ran(core::SchedulerKind kind, core::Node& node) {
        const Clock::time_point now = Clock::now();
        if (ledger_ != nullptr) ledger_->leave();
        Trial& t = trials_[std::this_thread::get_id()];
        t.ran = now;
        const double run_s = seconds(t.run_start, now);
        rep_->run_s += run_s;
        rep_->run_ms.push_back(run_s * 1e3);
        rep_->config_run_s[config_name(kind)] += run_s;
        rep_->run_events +=
            static_cast<double>(node.platform().engine().events_executed()) -
            t.events_at_boot;
        count_run(node, *rep_);
        rep_->counts["arena.bytes_per_node"] +=
            static_cast<double>(node.platform().arena().bytes_used());
        if (measure_heap_) {
            // The trial node owns a private arena, so its chunks are already
            // inside the heap peak.
            rep_->node_heap_bytes.push_back(
                static_cast<double>(heap::peak_bytes() - t.heap_base));
        }
        if (t.attachment->dc) t.attachment->dc->close(*rep_);
        if (t.attachment->hc) {
            const HypercallTimer& hc = *t.attachment->hc;
            rep_->hypercall_us.insert(rep_->hypercall_us.end(), hc.total_us.begin(),
                                      hc.total_us.end());
            rep_->handler_us.insert(rep_->handler_us.end(), hc.handler_us.begin(),
                                    hc.handler_us.end());
            rep_->audit_us.insert(rep_->audit_us.end(), hc.audit_us.begin(),
                                  hc.audit_us.end());
        }
        t.attachment = nullptr;
        if (ledger_ != nullptr) ledger_->enter(kTeardown);
    }

    /// After run_rows returns. At jobs > 1 a worker's last teardown ends
    /// somewhere inside the pool join, so it cannot be timed: that trial's
    /// lifecycle sample ends with its run instead.
    void finish(bool serial) {
        const Clock::time_point now = Clock::now();
        for (auto& [id, t] : trials_) {
            if (!t.open) continue;
            if (serial) {
                close(t, now);
            } else {
                rep_->node_ms.push_back(seconds(t.start, t.ran) * 1e3);
                t.open = false;
            }
        }
    }

private:
    struct Trial {
        bool open = false;
        Clock::time_point start{}, booted{}, run_start{}, ran{};
        double events_at_boot = 0.0;
        std::int64_t heap_base = 0;
        Attachment* attachment = nullptr;
    };

    void close(Trial& t, Clock::time_point now) {
        if (ledger_ != nullptr) ledger_->leave();
        rep_->teardown_ms.push_back(seconds(t.ran, now) * 1e3);
        rep_->node_ms.push_back(seconds(t.start, now) * 1e3);
        t.open = false;
    }

    Rep* rep_;
    Ledger* ledger_;
    bool measure_heap_;
    std::map<std::thread::id, Trial> trials_;
};

/// Mean |sim - paper| / paper over the normalized Kitten/Native and
/// Linux/Native cells, in percent. The Native column is calibrated to the
/// paper, so the normalized cells are held out from tuning.
double model_error_pct(const std::vector<core::ExperimentRow>& rows, Rep& rep) {
    double sum = 0.0;
    int cells = 0;
    for (const auto& row : rows) {
        const PaperRow* paper = nullptr;
        for (const auto& p : kPaperRows) {
            if (p.workload == row.workload) paper = &p;
        }
        if (paper == nullptr) {
            rep.fail("no paper reference for " + row.workload);
            continue;
        }
        const double native = row.cells[0].mean;
        const double sim[2] = {row.cells[1].mean / native, row.cells[2].mean / native};
        const double ref[2] = {paper->kitten / paper->native,
                               paper->linux_primary / paper->native};
        for (int c = 0; c < 2; ++c) {
            sum += std::fabs(sim[c] - ref[c]) / ref[c];
            ++cells;
        }
    }
    return cells > 0 ? 100.0 * sum / cells : 0.0;
}

class PaperRows final : public Workload {
public:
    explicit PaperRows(std::uint64_t seed) : base_seed_(seed) {
        specs_ = {wl::hpcg_spec(), wl::stream_spec(), wl::randomaccess_spec()};
        for (auto& spec : wl::nas_suite()) specs_.push_back(std::move(spec));
    }

    [[nodiscard]] int jobs() const override { return kJobs; }

    Rep run_rep(bool traced, int jobs) override {
        Rep rep;
        rep.traced = traced;
        rep.jobs = jobs;
        Ledger ledger;
        Ledger* lg = traced ? &ledger : nullptr;
        TrialClock clock(rep, lg, jobs == 1);

        core::Harness::Options opt;
        opt.trials = kTrials;
        opt.jobs = jobs;
        opt.base_seed = base_seed_;
        opt.config_factory = [&clock](core::SchedulerKind kind, std::uint64_t seed) {
            clock.start();
            return core::Harness::default_config(kind, seed);
        };
        opt.pre_trial = [&clock](core::SchedulerKind, std::uint64_t, core::Node& node) {
            return clock.booted(node);
        };
        opt.post_trial = [&clock](core::SchedulerKind kind, std::uint64_t,
                                  core::Node& node) { clock.ran(kind, node); };

        const Clock::time_point start = Clock::now();
        if (lg) lg->enter(kBench);
        std::vector<core::ExperimentRow> rows;
        try {
            rows = core::Harness(opt).run_rows(specs_);
        } catch (const std::exception& e) {
            rep.fail(std::string("run_rows: ") + e.what());
        }
        clock.finish(jobs == 1);
        rep.attempted = static_cast<std::uint64_t>(specs_.size()) *
                        core::kAllConfigs.size() * kTrials;
        for (const auto& row : rows) {
            for (const auto& cell : row.cells) {
                if (cell.n != kTrials || !(cell.mean > 0.0) || !std::isfinite(cell.mean)) {
                    rep.fail("bad cell in row " + row.workload);
                }
            }
        }
        rep.counts["model_error_pct"] = rows.empty() ? 0.0 : model_error_pct(rows, rep);
        rep.witness = core::Harness::format_raw(rows) +
                      core::Harness::format_metrics_json(rows);
        if (lg) {
            lg->leave();
            rep.self_s = ledger.self_s();
        }
        rep.wall_s = seconds(start, Clock::now());
        return rep;
    }

private:
    std::uint64_t base_seed_;
    std::vector<wl::WorkloadSpec> specs_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_rows(std::uint64_t seed) {
    return std::make_unique<PaperRows>(seed);
}

}  // namespace perfbench
