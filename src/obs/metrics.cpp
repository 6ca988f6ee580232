#include "obs/metrics.h"

#include <ostream>
#include <stdexcept>

namespace hpcsec::obs {

namespace {
const char* kind_name(MetricKind k) {
    switch (k) {
        case MetricKind::kCounter: return "counter";
        case MetricKind::kGauge: return "gauge";
        case MetricKind::kHistogram: return "histogram";
    }
    return "?";
}

void write_json_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
    }
    os << '"';
}
}  // namespace

const MetricsSnapshot::Metric* MetricsSnapshot::find(const std::string& name) const {
    for (const auto& m : metrics) {
        if (m.name == name) return &m;
    }
    return nullptr;
}

double MetricsSnapshot::value_of(const std::string& name) const {
    const Metric* m = find(name);
    return m != nullptr ? m->value : 0.0;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
    os << "{\"metrics\":[";
    bool first = true;
    for (const auto& m : metrics) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"name\":";
        write_json_string(os, m.name);
        os << ",\"kind\":\"" << kind_name(m.kind) << "\",\"value\":" << m.value;
        if (m.kind == MetricKind::kHistogram) {
            os << ",\"count\":" << m.stats.count() << ",\"mean\":" << m.stats.mean()
               << ",\"stdev\":" << m.stats.stddev() << ",\"min\":" << m.stats.min()
               << ",\"max\":" << m.stats.max() << ",\"buckets\":[";
            for (std::size_t i = 0; i < m.buckets.size(); ++i) {
                if (i != 0) os << ",";
                os << "[" << m.buckets[i].lo << "," << m.buckets[i].hi << ","
                   << m.buckets[i].count << "]";
            }
            os << "]";
        }
        os << "}";
    }
    os << "\n]}\n";
}

void MetricsSnapshot::write_csv(std::ostream& os) const {
    os << "name,kind,value,count,mean,stdev,min,max\n";
    for (const auto& m : metrics) {
        os << m.name << "," << kind_name(m.kind) << "," << m.value << ","
           << m.stats.count() << "," << m.stats.mean() << "," << m.stats.stddev()
           << "," << m.stats.min() << "," << m.stats.max() << "\n";
    }
}

MetricsRegistry::Handle MetricsRegistry::find_or_add(const std::string& name,
                                                     Slot slot, double lo,
                                                     double base,
                                                     std::size_t nbuckets) {
    const std::lock_guard<std::mutex> lock(reg_mutex_);
    for (const auto& e : entries_) {
        if (e.name == name) {
            if (e.slot != slot) {
                throw std::logic_error("MetricsRegistry: '" + name +
                                       "' re-registered with a different kind");
            }
            return e.index;
        }
    }
    Handle idx = 0;
    switch (slot) {
        case Slot::kCounter:
            idx = static_cast<Handle>(counters_.size());
            counters_.push_back(0);
            break;
        case Slot::kGauge:
            idx = static_cast<Handle>(gauges_.size());
            gauges_.push_back(0.0);
            break;
        case Slot::kHistogram:
            idx = static_cast<Handle>(hist_log_.size());
            hist_log_.emplace_back(lo, base, nbuckets);
            hist_stats_.emplace_back();
            break;
    }
    entries_.push_back({name, slot, idx});
    return idx;
}

MetricsRegistry::Handle MetricsRegistry::counter(const std::string& name) {
    return find_or_add(name, Slot::kCounter, 0, 0, 0);
}

MetricsRegistry::Handle MetricsRegistry::gauge(const std::string& name) {
    return find_or_add(name, Slot::kGauge, 0, 0, 0);
}

MetricsRegistry::Handle MetricsRegistry::histogram(const std::string& name,
                                                   double lo, double base,
                                                   std::size_t nbuckets) {
    return find_or_add(name, Slot::kHistogram, lo, base, nbuckets);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    const std::lock_guard<std::mutex> lock(reg_mutex_);
    MetricsSnapshot snap;
    snap.metrics.reserve(entries_.size());
    for (const auto& e : entries_) {
        MetricsSnapshot::Metric m;
        m.name = e.name;
        switch (e.slot) {
            case Slot::kCounter:
                m.kind = MetricKind::kCounter;
                m.value = static_cast<double>(counters_[e.index]);
                break;
            case Slot::kGauge:
                m.kind = MetricKind::kGauge;
                m.value = gauges_[e.index];
                break;
            case Slot::kHistogram: {
                m.kind = MetricKind::kHistogram;
                const sim::LogHistogram& h = hist_log_[e.index];
                m.value = static_cast<double>(h.total());
                m.stats = hist_stats_[e.index];
                for (std::size_t b = 0; b < h.bucket_count(); ++b) {
                    if (h.bucket(b) == 0) continue;
                    // hi of the last bucket is open-ended (sentinel -1).
                    const double hi = b + 1 < h.bucket_count()
                                          ? h.bucket_lo(b + 1)
                                          : -1.0;
                    // sca-suppress(hot-path-alloc): snapshot() is
                    // end-of-trial / post-mortem reporting, not the
                    // per-event path.
                    m.buckets.push_back({h.bucket_lo(b), hi, h.bucket(b)});
                }
                break;
            }
        }
        // sca-suppress(hot-path-alloc): see above — reporting path.
        snap.metrics.push_back(std::move(m));
    }
    return snap;
}

void MetricsRegistry::reset() {
    const std::lock_guard<std::mutex> lock(reg_mutex_);
    for (auto& c : counters_) c = 0;
    for (auto& g : gauges_) g = 0.0;
    for (auto& h : hist_log_) h.reset();
    for (auto& s : hist_stats_) s.reset();
}

MetricsAggregate::Row& MetricsAggregate::row_for(std::vector<Row>& rows,
                                                 const std::string& name,
                                                 MetricKind kind) {
    for (auto& r : rows) {
        if (r.name == name) return r;
    }
    rows.push_back({name, kind, {}, {}});
    return rows.back();
}

void MetricsAggregate::fold(std::vector<Row>& rows, const MetricsSnapshot& snap) {
    for (const auto& m : snap.metrics) {
        Row& row = row_for(rows, m.name, m.kind);
        // Histograms aggregate their per-trial mean; counters/gauges the value.
        row.stats.add(m.kind == MetricKind::kHistogram ? m.stats.mean() : m.value);
        // Exact bucket merge: bounds travel with the snapshot, so buckets
        // from equally-shaped histograms line up by (lo, hi) and others
        // interleave in lo order.
        for (const auto& b : m.buckets) {
            auto it = row.buckets.begin();
            for (; it != row.buckets.end(); ++it) {
                if (it->lo == b.lo && it->hi == b.hi) {
                    it->count += b.count;
                    break;
                }
                if (it->lo > b.lo) break;
            }
            if (it == row.buckets.end() || it->lo != b.lo || it->hi != b.hi) {
                row.buckets.insert(it, b);
            }
        }
    }
}

void MetricsAggregate::set_window(std::size_t trials_per_window,
                                  std::size_t retain) {
    window_trials_ = trials_per_window;
    window_retain_ = retain;
}

void MetricsAggregate::add(const MetricsSnapshot& snap) {
    fold(rows_, snap);
    ++trials_;
    if (window_trials_ == 0) return;
    fold(window_rows_, snap);
    if (++window_fill_ < window_trials_) return;
    Window w;
    w.index = windows_.empty() ? 0 : windows_.back().index + 1;
    w.first_trial = trials_ - window_fill_;
    w.trials = window_fill_;
    w.rows = std::move(window_rows_);
    windows_.push_back(std::move(w));
    if (windows_.size() > window_retain_ && window_retain_ > 0) {
        windows_.erase(windows_.begin());
    }
    window_rows_.clear();
    window_fill_ = 0;
}

namespace {
void write_rows_json(std::ostream& os, const std::vector<MetricsAggregate::Row>& rows) {
    os << "[";
    bool first = true;
    for (const auto& r : rows) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"name\":";
        write_json_string(os, r.name);
        os << ",\"kind\":\"" << kind_name(r.kind) << "\",\"mean\":" << r.stats.mean()
           << ",\"stdev\":" << r.stats.stddev() << ",\"n\":" << r.stats.count();
        if (!r.buckets.empty()) {
            os << ",\"buckets\":[";
            for (std::size_t i = 0; i < r.buckets.size(); ++i) {
                if (i != 0) os << ",";
                os << "[" << r.buckets[i].lo << "," << r.buckets[i].hi << ","
                   << r.buckets[i].count << "]";
            }
            os << "]";
        }
        os << "}";
    }
    os << "\n]";
}
}  // namespace

void MetricsAggregate::write_json(std::ostream& os) const {
    os << "{\"metrics\":";
    write_rows_json(os, rows_);
    if (!windows_.empty()) {
        os << ",\"window_trials\":" << window_trials_ << ",\"windows\":[";
        for (std::size_t i = 0; i < windows_.size(); ++i) {
            if (i != 0) os << ",";
            os << "\n {\"index\":" << windows_[i].index
               << ",\"first_trial\":" << windows_[i].first_trial
               << ",\"trials\":" << windows_[i].trials << ",\"metrics\":";
            write_rows_json(os, windows_[i].rows);
            os << "}";
        }
        os << "\n]";
    }
    os << "}\n";
}

}  // namespace hpcsec::obs
