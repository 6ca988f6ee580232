#include "obs/timeline.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace hpcsec::obs {

namespace {

/// Calls fn(core, start, end, kind) for every non-empty 'W'/'O'/'T' piece,
/// in recording order. A work chunk splits at its refill cycles.
template <typename Fn>
void for_each_piece(const std::vector<Event>& events, Fn&& fn) {
    for (const Event& e : events) {
        if (!e.is_span()) continue;
        if (e.type == EventType::kOverhead) {
            fn(e.core, e.start, e.end, 'O');
        } else if (e.type == EventType::kWorkChunk) {
            const sim::SimTime split =
                std::min(e.end, e.start + static_cast<sim::Cycles>(e.a0));
            if (split > e.start) fn(e.core, e.start, split, 'T');
            if (e.end > split) fn(e.core, split, e.end, 'W');
        }
    }
}

}  // namespace

sim::Cycles timeline_total(const std::vector<Event>& events, char kind,
                           int core, sim::SimTime from, sim::SimTime to) {
    sim::Cycles sum = 0;
    for_each_piece(events, [&](int c, sim::SimTime start, sim::SimTime end,
                               char k) {
        if (k != kind || (core >= 0 && c != core)) return;
        const sim::SimTime lo = std::max(start, from);
        const sim::SimTime hi = std::min(end, to);
        if (hi > lo) sum += hi - lo;
    });
    return sum;
}

std::string render_timeline(const std::vector<Event>& events,
                            sim::SimTime from, sim::SimTime to, int ncores,
                            int cols) {
    if (to <= from || cols <= 0 || ncores <= 0) return {};
    const double bucket =
        static_cast<double>(to - from) / static_cast<double>(cols);

    // weight[core][col][kind-index]; kinds: 0 '#'(W), 1 'o'(O), 2 't'(T)
    std::vector<std::vector<std::array<double, 3>>> weight(
        static_cast<std::size_t>(ncores),
        std::vector<std::array<double, 3>>(static_cast<std::size_t>(cols),
                                           {0.0, 0.0, 0.0}));
    const auto kind_index = [](char k) {
        switch (k) {
            case 'W': return 0;
            case 'O': return 1;
            default: return 2;
        }
    };
    for_each_piece(events, [&](int core, sim::SimTime start, sim::SimTime end,
                               char kind) {
        if (core < 0 || core >= ncores || end <= from || start >= to) return;
        const sim::SimTime lo = std::max(start, from);
        const sim::SimTime hi = std::min(end, to);
        const int c0 = static_cast<int>(static_cast<double>(lo - from) / bucket);
        const int c1 = std::min(
            cols - 1, static_cast<int>(static_cast<double>(hi - 1 - from) / bucket));
        for (int c = c0; c <= c1; ++c) {
            const double cell_lo = static_cast<double>(from) + c * bucket;
            const double cell_hi = cell_lo + bucket;
            const double overlap = std::min(static_cast<double>(hi), cell_hi) -
                                   std::max(static_cast<double>(lo), cell_lo);
            if (overlap > 0) {
                weight[static_cast<std::size_t>(core)][static_cast<std::size_t>(c)]
                      [static_cast<std::size_t>(kind_index(kind))] += overlap;
            }
        }
    });

    static constexpr char kGlyph[3] = {'#', 'o', 't'};
    std::ostringstream os;
    for (int core = 0; core < ncores; ++core) {
        os << "core" << core << " |";
        for (int c = 0; c < cols; ++c) {
            const auto& w = weight[static_cast<std::size_t>(core)]
                                  [static_cast<std::size_t>(c)];
            const double busy = w[0] + w[1] + w[2];
            if (busy < bucket * 0.05) {
                os << '.';
                continue;
            }
            // Overhead/transients are what the strip exists to show:
            // highlight them whenever they are a meaningful share of the
            // bucket, even if workload cycles dominate in absolute terms.
            if (w[1] + w[2] >= bucket * 0.10) {
                os << (w[1] >= w[2] ? kGlyph[1] : kGlyph[2]);
            } else {
                os << kGlyph[0];
            }
        }
        os << "|\n";
    }
    return os.str();
}

}  // namespace hpcsec::obs
