#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/profiler.h"

namespace hpcsec::obs {

namespace {

/// Exit-reason track names, matching hafnium::ExitReason's enumerators.
constexpr const char* kExitNames[4] = {"preempted", "yield", "blocked", "aborted"};

std::string fmt_us(double us) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

/// Named args per event type (keeps the Perfetto UI readable).
void write_args(std::ostream& os, const Event& e) {
    os << "\"args\":{";
    switch (e.type) {
        case EventType::kVmRun:
        case EventType::kVmExit:
            os << "\"vm\":" << e.a0 << ",\"vcpu\":" << e.a1 << ",\"exit\":\""
               << (e.a2 >= 0 && e.a2 < 4 ? kExitNames[e.a2] : "?") << "\"";
            break;
        case EventType::kIrqDeliver:
            os << "\"irq\":" << e.a0 << ",\"dest\":" << e.a1;
            break;
        case EventType::kVirqInject:
            os << "\"virq\":" << e.a0 << ",\"vm\":" << e.a1;
            break;
        case EventType::kHypercall:
            os << "\"call\":" << e.a0 << ",\"caller\":" << e.a1;
            break;
        case EventType::kGuestTick:
            os << "\"vm\":" << e.a0 << ",\"vcpu\":" << e.a1;
            break;
        case EventType::kWorkChunk:
            os << "\"refill\":" << e.a0;
            break;
        case EventType::kOverhead:
            os << "\"path\":\"" << to_string(static_cast<ProfPath>(e.a0)) << "\"";
            break;
        default:
            os << "\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << ",\"a2\":" << e.a2;
            break;
    }
    os << "}";
}

}  // namespace

void TraceExporter::add_process(int pid, const std::string& name, int ncores,
                                std::vector<Event> events) {
    // sca-suppress(hot-path-alloc): the exporter runs post-mortem / at end
    // of run, never on the dispatch path.
    processes_.push_back({pid, name, ncores, std::move(events), {}});
}

void TraceExporter::add_counter_tracks(int pid, std::vector<CounterTrack> tracks) {
    for (auto& p : processes_) {
        if (p.pid != pid) continue;
        for (auto& t : tracks) p.counters.push_back(std::move(t));
        return;
    }
    // No events for this pid yet: carry the tracks on an empty process.
    processes_.push_back({pid, "counters", 0, {}, std::move(tracks)});
}

void TraceExporter::write(std::ostream& os) const {
    os << "{\"traceEvents\":[\n";
    bool first = true;
    const auto emit = [&](const std::string& line) {
        if (!first) os << ",\n";
        first = false;
        os << line;
    };

    for (const auto& p : processes_) {
        // Metadata: process/thread names.
        emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
             std::to_string(p.pid) + ",\"args\":{\"name\":\"" + p.name + "\"}}");
        for (int c = 0; c < p.ncores; ++c) {
            emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                 std::to_string(p.pid) + ",\"tid\":" + std::to_string(c) +
                 ",\"args\":{\"name\":\"core " + std::to_string(c) + "\"}}");
        }

        // Cumulative per-reason exit counters (one "C" track per process).
        std::uint64_t exits[4] = {0, 0, 0, 0};
        std::vector<const Event*> exit_events;
        for (const auto& e : p.events) {
            // sca-suppress(hot-path-alloc): post-mortem export path.
            if (e.type == EventType::kVmExit) exit_events.push_back(&e);
        }
        std::stable_sort(exit_events.begin(), exit_events.end(),
                         [](const Event* a, const Event* b) { return a->start < b->start; });
        for (const Event* e : exit_events) {
            if (e->a2 >= 0 && e->a2 < 4) ++exits[e->a2];
            std::string line = "{\"ph\":\"C\",\"name\":\"vm_exits\",\"pid\":" +
                               std::to_string(p.pid) +
                               ",\"ts\":" + fmt_us(clock_.to_micros(e->start)) +
                               ",\"args\":{";
            for (int r = 0; r < 4; ++r) {
                if (r != 0) line += ",";
                line += "\"" + std::string(kExitNames[r]) + "\":" + std::to_string(exits[r]);
            }
            line += "}}";
            emit(line);
        }

        // Generic counter tracks (e.g. profiler cycle attribution).
        for (const auto& track : p.counters) {
            for (const auto& [when, value] : track.samples) {
                emit("{\"ph\":\"C\",\"name\":\"" + track.name + "\",\"pid\":" +
                     std::to_string(p.pid) +
                     ",\"ts\":" + fmt_us(clock_.to_micros(when)) +
                     ",\"args\":{\"value\":" + fmt_us(value) + "}}");
            }
        }

        // Spans and instants, sorted per core so every tid's ts column is
        // monotonically non-decreasing (spans are recorded at their *end*
        // in sim order, so a raw dump would interleave).
        std::vector<const Event*> ordered;
        ordered.reserve(p.events.size());
        // sca-suppress(hot-path-alloc): post-mortem export path.
        for (const auto& e : p.events) ordered.push_back(&e);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const Event* a, const Event* b) {
                             if (a->core != b->core) return a->core < b->core;
                             if (a->start != b->start) return a->start < b->start;
                             return (a->end - a->start) > (b->end - b->start);
                         });
        for (const Event* e : ordered) {
            std::string line = "{\"name\":\"";
            line += to_string(e->type);
            line += "\",\"cat\":\"hpcsec\",\"ph\":\"";
            if (e->is_span()) {
                line += "X\",\"ts\":" + fmt_us(clock_.to_micros(e->start)) +
                        ",\"dur\":" + fmt_us(clock_.to_micros(e->end - e->start));
            } else {
                line += "i\",\"s\":\"t\",\"ts\":" + fmt_us(clock_.to_micros(e->start));
            }
            line += ",\"pid\":" + std::to_string(p.pid) +
                    ",\"tid\":" + std::to_string(e->core) + ",";
            std::ostringstream args;
            write_args(args, *e);
            line += args.str();
            line += "}";
            emit(line);
        }
    }
    os << "\n]}\n";
}

bool TraceExporter::write_file(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    write(f);
    return f.good();
}

}  // namespace hpcsec::obs
