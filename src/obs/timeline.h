// Execution timeline: a read-only view over recorded executor spans.
//
// The Executor records one kWorkChunk span per on-CPU chunk (a0 = the
// TLB-refill cycles at its start) and one kOverhead span per charge, in
// Category::kWorkload. This view splits them into three kinds — 'W'
// workload, 'O' kernel/hypervisor overhead, 'T' TLB-refill transient —
// and renders them as an ASCII Gantt strip: the quickest way to *see*
// Fig. 5 vs Fig. 6 style noise. Other event types are ignored.
#pragma once

#include <string>
#include <vector>

#include "obs/events.h"
#include "sim/time.h"

namespace hpcsec::obs {

/// Total time of one kind ('W', 'O' or 'T') on one core (or all cores with
/// core == -1), clamped to the window [from, to).
[[nodiscard]] sim::Cycles timeline_total(const std::vector<Event>& events,
                                         char kind, int core = -1,
                                         sim::SimTime from = 0,
                                         sim::SimTime to = sim::kTimeNever);

/// Render [from, to) as one text row per core, `cols` characters wide.
/// Each cell shows the kind that dominates its time bucket:
/// '#' workload, 'o' overhead, 't' transient, '.' idle.
[[nodiscard]] std::string render_timeline(const std::vector<Event>& events,
                                          sim::SimTime from, sim::SimTime to,
                                          int ncores, int cols = 100);

}  // namespace hpcsec::obs
