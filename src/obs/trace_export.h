// Chrome trace-event JSON exporter (Perfetto / chrome://tracing loadable).
//
// Each node configuration is a trace "process" (pid), each physical core a
// "thread" (tid). Spans (VM runs, work chunks, overhead charges) become
// complete ("X") events, instants become "i" events, and per-reason VM-exit
// counts are synthesized into cumulative counter ("C") tracks so the exit
// mix is visible as a timeline graph.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.h"
#include "sim/time.h"

namespace hpcsec::obs {

class TraceExporter {
public:
    explicit TraceExporter(sim::ClockSpec clock) : clock_(clock) {}

    /// Add one process (e.g. one scheduler configuration) worth of events.
    /// `pid` must be unique per process; `ncores` names tid metadata rows.
    void add_process(int pid, const std::string& name, int ncores,
                     std::vector<Event> events);

    /// One generic counter track: cumulative `value` samples over time
    /// rendered as a Perfetto "C" graph (the profiler's per-path cycle
    /// tracks use this). Attach to an added process's pid.
    struct CounterTrack {
        std::string name;
        std::vector<std::pair<sim::SimTime, double>> samples;
    };
    void add_counter_tracks(int pid, std::vector<CounterTrack> tracks);

    /// Write the full trace as {"traceEvents":[...]}. One event per line.
    void write(std::ostream& os) const;
    /// Returns false (and writes nothing) when the file cannot be opened.
    bool write_file(const std::string& path) const;

private:
    struct Process {
        int pid;
        std::string name;
        int ncores;
        std::vector<Event> events;
        std::vector<CounterTrack> counters;
    };

    sim::ClockSpec clock_;
    std::vector<Process> processes_;
};

}  // namespace hpcsec::obs
