#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace hpcsec::obs {

const char* to_string(ProfPath p) {
    switch (p) {
        case ProfPath::kWorldSwitch: return "world-switch";
        case ProfPath::kHypercall: return "hypercall";
        case ProfPath::kStage2Walk: return "stage2-walk";
        case ProfPath::kVgicRoute: return "vgic-route";
        case ProfPath::kIrqRoute: return "irq-route";
        case ProfPath::kTimerTick: return "timer-tick";
        case ProfPath::kSchedule: return "schedule";
    }
    return "?";
}

void CycleProfiler::enable(int ncores) {
    if (enabled_ && ncores == ncores_) return;
    enabled_ = true;
    ncores_ = ncores;
    current_.assign(static_cast<std::size_t>(ncores), 0);
    // Slot 0..ncores-1: the EL2/host context of each core, pre-allocated so
    // current_ always points at a valid slot.
    if (slots_.empty()) {
        slots_.reserve(static_cast<std::size_t>(ncores) * 2);
        for (int c = 0; c < ncores; ++c) {
            Slot s;
            s.vm = 0;
            s.core = c;
            slots_.push_back(std::move(s));
        }
    }
    for (int c = 0; c < ncores; ++c) {
        current_[static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(c);
    }
}

CycleProfiler::Slot& CycleProfiler::slot_for(int core, int vm) {
    for (auto& s : slots_) {
        if (s.vm == vm && s.core == core) return s;
    }
    Slot s;
    s.vm = vm;
    s.core = core;
    // sca-suppress(hot-path-alloc): one slot per distinct (vm, core)
    // context — the table is warmed within the first dispatches.
    slots_.push_back(std::move(s));
    return slots_.back();
}

void CycleProfiler::set_context_slow(int core, int vm) {
    if (core < 0 || core >= ncores_) return;
    const Slot& s = slot_for(core, vm);
    current_[static_cast<std::size_t>(core)] =
        static_cast<std::uint32_t>(&s - slots_.data());
}

void CycleProfiler::charge_slow(int core, ProfPath p, sim::Cycles cycles) {
    if (core < 0 || core >= ncores_) return;
    Slot& s = slots_[current_[static_cast<std::size_t>(core)]];
    PathCell& cell = s.paths[static_cast<std::size_t>(p)];
    cell.cycles += static_cast<std::uint64_t>(cycles);
    ++cell.count;
}

void CycleProfiler::count_call_slow(int core, unsigned call_number) {
    if (core < 0 || core >= ncores_) return;
    Slot& s = slots_[current_[static_cast<std::size_t>(core)]];
    if (s.calls.size() <= call_number) s.calls.resize(call_number + 1);
    ++s.calls[call_number].count;
    ++s.paths[static_cast<std::size_t>(ProfPath::kHypercall)].count;
}

void CycleProfiler::on_dispatch(sim::SimTime now, int priority) {
    (void)priority;
    if (!enabled_ || sample_period_ == 0) return;
    if (++dispatches_ % sample_period_ != 0) return;
    CounterSample sample;
    sample.when = now;
    for (std::size_t p = 0; p < kProfPathCount; ++p) {
        sample.cycles[p] = total(static_cast<ProfPath>(p));
    }
    // sca-suppress(hot-path-alloc): the profiler is opt-in (profile=false
    // keeps the dispatch probe detached); armed runs trade the zero-alloc
    // budget for attribution data.
    samples_.push_back(sample);
}

std::uint64_t CycleProfiler::total(ProfPath p) const {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.paths[static_cast<std::size_t>(p)].cycles;
    return sum;
}

std::uint64_t CycleProfiler::total_cycles() const {
    std::uint64_t sum = 0;
    for (std::size_t p = 0; p < kProfPathCount; ++p) {
        sum += total(static_cast<ProfPath>(p));
    }
    return sum;
}

CycleProfiler::PathCell CycleProfiler::call_total(unsigned call_number) const {
    PathCell out;
    for (const auto& s : slots_) {
        if (call_number < s.calls.size()) {
            out.cycles += s.calls[call_number].cycles;
            out.count += s.calls[call_number].count;
        }
    }
    return out;
}

void CycleProfiler::merge(const CycleProfiler& other) {
    if (!enabled_) {
        enabled_ = true;
        ncores_ = other.ncores_;
        current_.assign(static_cast<std::size_t>(std::max(ncores_, 0)), 0);
    }
    for (const auto& os : other.slots_) {
        Slot& s = slot_for(os.core, os.vm);
        for (std::size_t p = 0; p < kProfPathCount; ++p) {
            s.paths[p].cycles += os.paths[p].cycles;
            s.paths[p].count += os.paths[p].count;
        }
        if (s.calls.size() < os.calls.size()) s.calls.resize(os.calls.size());
        for (std::size_t n = 0; n < os.calls.size(); ++n) {
            s.calls[n].cycles += os.calls[n].cycles;
            s.calls[n].count += os.calls[n].count;
        }
    }
}

void CycleProfiler::clear() {
    for (auto& s : slots_) {
        s.paths.fill(PathCell{});
        s.calls.clear();
    }
    samples_.clear();
    dispatches_ = 0;
}

std::string CycleProfiler::call_name(unsigned call_number) const {
    if (call_namer_) {
        std::string name = call_namer_(call_number);
        if (!name.empty()) return name;
    }
    return "call_" + std::to_string(call_number);
}

void CycleProfiler::write_collapsed(std::ostream& os) const {
    for (const auto& s : slots_) {
        const std::string prefix =
            "vm" + std::to_string(s.vm) + ";core" + std::to_string(s.core) + ";";
        for (std::size_t p = 0; p < kProfPathCount; ++p) {
            const auto path = static_cast<ProfPath>(p);
            const PathCell& cell = s.paths[p];
            if (cell.count == 0) continue;
            if (path == ProfPath::kHypercall && !s.calls.empty()) {
                // Expanded per-call leaves below; skip the aggregate frame
                // so cycles are not double-counted in the flamegraph.
                continue;
            }
            os << prefix << to_string(path) << ' ' << cell.cycles << '\n';
        }
        for (std::size_t n = 0; n < s.calls.size(); ++n) {
            if (s.calls[n].count == 0) continue;
            os << prefix << to_string(ProfPath::kHypercall) << ';'
               << call_name(static_cast<unsigned>(n)) << ' ' << s.calls[n].cycles
               << '\n';
        }
    }
}

std::string CycleProfiler::perf_top(const sim::ClockSpec& clock,
                                    std::size_t max_rows) const {
    struct RowRef {
        std::string label;
        PathCell cell;
    };
    std::vector<RowRef> rows;
    for (const auto& s : slots_) {
        const std::string prefix =
            "vm" + std::to_string(s.vm) + "/core" + std::to_string(s.core) + "/";
        for (std::size_t p = 0; p < kProfPathCount; ++p) {
            if (s.paths[p].count == 0) continue;
            rows.push_back({prefix + to_string(static_cast<ProfPath>(p)),
                            s.paths[p]});
        }
        for (std::size_t n = 0; n < s.calls.size(); ++n) {
            if (s.calls[n].count == 0) continue;
            rows.push_back({prefix + "hypercall/" +
                                call_name(static_cast<unsigned>(n)),
                            s.calls[n]});
        }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const RowRef& a, const RowRef& b) {
                         return a.cell.cycles > b.cell.cycles;
                     });
    const std::uint64_t grand = total_cycles();
    std::ostringstream os;
    os << "cycle attribution (total " << grand << " cycles, "
       << clock.to_micros(static_cast<sim::Cycles>(grand)) << " us):\n";
    const std::size_t n = std::min(rows.size(), max_rows);
    for (std::size_t i = 0; i < n; ++i) {
        const double pct =
            grand != 0 ? 100.0 * static_cast<double>(rows[i].cell.cycles) /
                             static_cast<double>(grand)
                       : 0.0;
        char line[160];
        std::snprintf(line, sizeof(line), "  %6.2f%%  %12llu cy  %8llu x  %s\n",
                      pct,
                      static_cast<unsigned long long>(rows[i].cell.cycles),
                      static_cast<unsigned long long>(rows[i].cell.count),
                      rows[i].label.c_str());
        os << line;
    }
    if (rows.size() > n) os << "  ... " << rows.size() - n << " more rows\n";
    return os.str();
}

}  // namespace hpcsec::obs
