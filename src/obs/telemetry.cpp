// Telemetry export: registry/journal -> omu::TelemetrySnapshot, plus the
// public snapshot's JSON and Prometheus serializers (implemented here so
// the public header stays std-only and the JSON round-trips through the
// same benchkit parser the bench baselines use).
#include "obs/telemetry.hpp"

#include <algorithm>
#include <sstream>

#include "benchkit/json.hpp"

namespace omu::obs {

Telemetry::Telemetry(const TelemetryConfig& config)
    : cfg_(config), metrics_enabled_(OMU_TELEMETRY_ENABLED != 0 && config.metrics) {
#if OMU_TELEMETRY_ENABLED
  if (cfg_.journal) {
    journal_ = std::make_unique<TraceJournal>(cfg_.journal_capacity);
  }
#endif
}

omu::TelemetrySnapshot Telemetry::snapshot() const {
  omu::TelemetrySnapshot snap;
  snap.metrics_enabled = metrics_enabled_;
  snap.journal_enabled = journal_ != nullptr;

  for (MetricSample& sample : registry_.samples()) {
    omu::TelemetrySnapshot::Metric m;
    m.name = std::move(sample.name);
    switch (sample.kind) {
      case MetricKind::kCounter:
        m.kind = omu::TelemetrySnapshot::Metric::Kind::kCounter;
        m.counter = sample.counter;
        break;
      case MetricKind::kGauge:
        m.kind = omu::TelemetrySnapshot::Metric::Kind::kGauge;
        m.gauge = sample.gauge;
        break;
      case MetricKind::kHistogram: {
        m.kind = omu::TelemetrySnapshot::Metric::Kind::kHistogram;
        const HistogramSnapshot& h = sample.histogram;
        m.histogram.count = h.count;
        m.histogram.sum = h.sum;
        m.histogram.max = h.max;
        m.histogram.p50 = h.quantile(0.50);
        m.histogram.p90 = h.quantile(0.90);
        m.histogram.p99 = h.quantile(0.99);
        // Trailing empty buckets carry no information; trim so exports of
        // ns-scale histograms stay compact.
        std::size_t last = 0;
        for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
          if (h.buckets[i] != 0) last = i + 1;
        }
        m.histogram.buckets.assign(h.buckets.begin(), h.buckets.begin() + last);
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }

  if (journal_ != nullptr) {
    snap.journal_dropped = journal_->dropped();
    for (const TraceEvent& event : journal_->events()) {
      snap.trace.push_back(omu::TelemetrySnapshot::TraceEvent{
          event.stage, event.span_id, event.begin, event.t_ns});
    }
  }
  return snap;
}

}  // namespace omu::obs

namespace omu {

const char* to_string(TelemetrySnapshot::Metric::Kind kind) {
  switch (kind) {
    case TelemetrySnapshot::Metric::Kind::kCounter: return "counter";
    case TelemetrySnapshot::Metric::Kind::kGauge: return "gauge";
    case TelemetrySnapshot::Metric::Kind::kHistogram: return "histogram";
  }
  return "?";
}

const TelemetrySnapshot::Metric* TelemetrySnapshot::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string TelemetrySnapshot::to_json() const {
  using benchkit::Json;
  Json::Object root;
  root["metrics_enabled"] = Json(metrics_enabled);
  root["journal_enabled"] = Json(journal_enabled);
  root["journal_dropped"] = Json(journal_dropped);

  Json::Array metric_rows;
  for (const Metric& m : metrics) {
    Json::Object row;
    row["name"] = Json(m.name);
    row["kind"] = Json(to_string(m.kind));
    switch (m.kind) {
      case Metric::Kind::kCounter: row["value"] = Json(m.counter); break;
      case Metric::Kind::kGauge: row["value"] = Json(static_cast<int64_t>(m.gauge)); break;
      case Metric::Kind::kHistogram: {
        row["count"] = Json(m.histogram.count);
        row["sum"] = Json(m.histogram.sum);
        row["max"] = Json(m.histogram.max);
        row["p50"] = Json(m.histogram.p50);
        row["p90"] = Json(m.histogram.p90);
        row["p99"] = Json(m.histogram.p99);
        Json::Array buckets;
        for (uint64_t b : m.histogram.buckets) buckets.emplace_back(Json(b));
        row["buckets"] = Json(std::move(buckets));
        break;
      }
    }
    metric_rows.emplace_back(Json(std::move(row)));
  }
  root["metrics"] = Json(std::move(metric_rows));

  Json::Array trace_rows;
  for (const TraceEvent& e : trace) {
    Json::Object row;
    row["stage"] = Json(e.stage);
    row["span"] = Json(e.span_id);
    row["phase"] = Json(e.begin ? "begin" : "end");
    row["t_ns"] = Json(e.t_ns);
    trace_rows.emplace_back(Json(std::move(row)));
  }
  root["trace"] = Json(std::move(trace_rows));

  return Json(std::move(root)).dump(2);
}

namespace {

/// Prometheus metric name: omu_ prefix, dots and braces flattened to
/// underscores ("paging.evict_ns" -> "omu_paging_evict_ns").
std::string prometheus_name(const std::string& name) {
  std::string out = "omu_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string TelemetrySnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const Metric& m : metrics) {
    const std::string name = prometheus_name(m.name);
    switch (m.kind) {
      case Metric::Kind::kCounter:
        os << "# TYPE " << name << " counter\n" << name << " " << m.counter << "\n";
        break;
      case Metric::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n" << name << " " << m.gauge << "\n";
        break;
      case Metric::Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.histogram.buckets.size(); ++i) {
          cumulative += m.histogram.buckets[i];
          // Inclusive upper edge of bucket i: 0, 1, 3, 7, ... 2^i - 1.
          const uint64_t le = i == 0 ? 0 : (uint64_t{1} << i) - 1;
          os << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << m.histogram.count << "\n";
        os << name << "_sum " << m.histogram.sum << "\n";
        os << name << "_count " << m.histogram.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace omu
