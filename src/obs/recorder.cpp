#include "obs/recorder.h"

#include <array>
#include <cstdlib>
#include <string>
#include <utility>

namespace hpcsec::obs {

namespace {
constexpr std::array<std::pair<const char*, Category>, 10> kCategoryNames{{
    {"irq", Category::kIrq},
    {"sched", Category::kSched},
    {"hyp", Category::kHyp},
    {"vm", Category::kVm},
    {"workload", Category::kWorkload},
    {"boot", Category::kBoot},
    {"channel", Category::kChannel},
    {"check", Category::kCheck},
    {"resil", Category::kResil},
    {"all", Category::kAll},
}};
}  // namespace

const char* category_name(Category c) {
    for (const auto& [name, cat] : kCategoryNames) {
        if (cat == c) return name;
    }
    return "?";
}

bool parse_category_list(const std::string& list, std::uint32_t& out,
                         std::string& error) {
    out = 0;
    error.clear();
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!tok.empty()) {
            bool matched = false;
            for (const auto& [name, cat] : kCategoryNames) {
                if (tok == name) {
                    out |= to_mask(cat);
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                // Raw bitmask tokens ("0x305", "773") OR in verbatim.
                char* end = nullptr;
                const unsigned long long raw = std::strtoull(tok.c_str(), &end, 0);
                if (end != nullptr && *end == '\0' && end != tok.c_str()) {
                    out |= static_cast<std::uint32_t>(raw);
                    matched = true;
                }
            }
            if (!matched) {
                error = "unknown trace category '" + tok + "' (valid: ";
                for (std::size_t i = 0; i < kCategoryNames.size(); ++i) {
                    if (i != 0) error += ",";
                    error += kCategoryNames[i].first;
                }
                error += ", or a numeric mask like 0x305)";
                return false;
            }
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return true;
}

const char* to_string(EventType t) {
    switch (t) {
        case EventType::kVmRun: return "vm-run";
        case EventType::kWorkChunk: return "work-chunk";
        case EventType::kOverhead: return "overhead";
        case EventType::kDetour: return "detour";
        case EventType::kVmExit: return "vm-exit";
        case EventType::kIrqDeliver: return "irq-deliver";
        case EventType::kVirqInject: return "virq-inject";
        case EventType::kHypercall: return "hypercall";
        case EventType::kGuestTick: return "guest-tick";
        case EventType::kKernelTick: return "kernel-tick";
        case EventType::kContextSwitch: return "context-switch";
        case EventType::kNoisePreempt: return "noise-preempt";
        case EventType::kBarrierStep: return "barrier-step";
        case EventType::kCheckFail: return "check-fail";
        case EventType::kResilFault: return "resil-fault";
        case EventType::kResilAction: return "resil-action";
        case EventType::kChaosInject: return "chaos-inject";
        case EventType::kTagViolation: return "tag-violation";
        case EventType::kContainAction: return "contain-action";
    }
    return "?";
}

std::size_t SpanRecorder::count(EventType t) const {
    std::size_t n = 0;
    for (const auto& e : events_) {
        if (e.type == t) ++n;
    }
    return n;
}

void SpanRecorder::record(Event e) {
    if (flight_ != nullptr) flight_->push(e);
    // Retain only when the event's category is enabled proper; an armed
    // flight recorder routes everything here but keeps only its rings.
    if ((mask_ & to_mask(category_of(e.type))) == 0) return;
    // sca-suppress(hot-path-alloc): category retention is opt-in via
    // obs_mask; a disarmed recorder returns before this line.
    events_.push_back(e);
}

}  // namespace hpcsec::obs
