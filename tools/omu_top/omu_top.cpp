// omu_top — render a Mapper telemetry export for humans.
//
//   omu_top <telemetry.json>     render a Mapper::telemetry() JSON dump
//   omu_top --demo [out.json]    run a small instrumented hybrid session
//                                (journal on), write its telemetry JSON,
//                                then render it
//   omu_top --prometheus <url-or-file>
//                                scrape a map service /metrics endpoint
//                                (http://host:port[/metrics]) or read a
//                                saved exposition, validate it, and render
//                                the families grouped by prefix with
//                                per-tenant columns
//
// The metrics table groups the hierarchical names by their first segment
// (ingest / publish / absorber / paging) and shows counters,
// gauges and latency histograms with count, p50/p90/p99 and max. The
// timeline view reconstructs the traced flush pipeline from the journal's
// begin/end events (insert -> absorb -> flush -> splice -> publish),
// indented by span nesting. Input is parsed with the same benchkit JSON
// parser CI round-trips Mapper::telemetry() output through.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <omu/omu.hpp>

#include "benchkit/json.hpp"
#include "obs/prom_text.hpp"
#include "service/metrics_http.hpp"

namespace {

using omu::benchkit::Json;

// ---- Formatting -------------------------------------------------------------

/// Nanoseconds -> "417ns" / "12.3us" / "4.56ms" / "1.20s".
std::string format_ns(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  }
  return buf;
}

std::string format_count(uint64_t n) {
  char buf[32];
  if (n < 10000) {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(n));
  } else if (n < 10000000) {
    std::snprintf(buf, sizeof buf, "%.1fk", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(n) / 1e6);
  }
  return buf;
}

/// First dotted segment ("ingest.insert_ns" -> "ingest").
std::string group_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

// ---- Metrics table ----------------------------------------------------------

void render_metrics(const Json& doc) {
  const Json* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    std::printf("(no metrics array in document)\n");
    return;
  }
  const bool enabled = doc.find("metrics_enabled") != nullptr &&
                       doc.find("metrics_enabled")->as_bool();
  std::printf("metrics (%zu, timing %s)\n", metrics->as_array().size(),
              enabled ? "on" : "off/compiled out");

  std::string group;
  for (const Json& row : metrics->as_array()) {
    const std::string name = row.string_or("name", "?");
    const std::string kind = row.string_or("kind", "?");
    const std::string g = group_of(name);
    if (g != group) {
      group = g;
      std::printf("\n  [%s]\n", group.c_str());
    }
    if (kind == "histogram") {
      const uint64_t count = static_cast<uint64_t>(row.number_or("count", 0));
      std::printf("    %-34s %8s  p50 %8s  p90 %8s  p99 %8s  max %8s\n", name.c_str(),
                  format_count(count).c_str(), format_ns(row.number_or("p50", 0)).c_str(),
                  format_ns(row.number_or("p90", 0)).c_str(),
                  format_ns(row.number_or("p99", 0)).c_str(),
                  format_ns(row.number_or("max", 0)).c_str());
    } else {
      std::printf("    %-34s %8s  (%s)\n", name.c_str(),
                  format_count(static_cast<uint64_t>(row.number_or("value", 0))).c_str(),
                  kind.c_str());
    }
  }
}

// ---- Flush timeline ---------------------------------------------------------

struct Span {
  std::string stage;
  uint64_t id = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  int depth = 0;
};

void render_timeline(const Json& doc) {
  const Json* trace = doc.find("trace");
  if (trace == nullptr || !trace->is_array() || trace->as_array().empty()) {
    std::printf("\ntimeline: (journal empty — run with TelemetryOptions::journal on)\n");
    return;
  }
  const uint64_t dropped =
      static_cast<uint64_t>(doc.number_or("journal_dropped", 0));

  // Pair begin/end by span id, tracking nesting depth at begin time.
  std::vector<Span> spans;
  std::map<uint64_t, std::size_t> open;  // span id -> index into spans
  int depth = 0;
  for (const Json& row : trace->as_array()) {
    const uint64_t id = static_cast<uint64_t>(row.number_or("span", 0));
    const uint64_t t = static_cast<uint64_t>(row.number_or("t_ns", 0));
    if (row.string_or("phase", "") == "begin") {
      open[id] = spans.size();
      spans.push_back(Span{row.string_or("stage", "?"), id, t, t, depth});
      ++depth;
    } else {
      const auto it = open.find(id);
      if (it != open.end()) {
        spans[it->second].end_ns = t;
        open.erase(it);
        depth = depth > 0 ? depth - 1 : 0;
      }
    }
  }

  std::printf("\ntimeline (%zu spans%s)\n", spans.size(),
              dropped != 0
                  ? (", " + std::to_string(dropped) + " events dropped by the ring").c_str()
                  : "");
  const uint64_t t0 = spans.empty() ? 0 : spans.front().begin_ns;
  for (const Span& span : spans) {
    const double dur = static_cast<double>(span.end_ns - span.begin_ns);
    std::printf("  +%10s  %*s%-24s %s\n",
                format_ns(static_cast<double>(span.begin_ns - t0)).c_str(), span.depth * 2, "",
                span.stage.c_str(), format_ns(dur).c_str());
  }
}

// ---- Demo session -----------------------------------------------------------

/// Runs a small hybrid mapping session with the journal on and returns its
/// telemetry JSON: the self-contained way to see omu_top output (and what
/// CI uploads as the telemetry.json artifact).
std::string demo_telemetry() {
  using namespace omu;
  Mapper mapper = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 64})
                                     .telemetry({.journal = true, .journal_capacity = 4096}))
                      .value();
  // A sensor circling a 6 m room: endpoints on the wall, origin scrolling
  // so the absorber both absorbs and scrolls.
  for (int scan = 0; scan < 24; ++scan) {
    const double phase = 2.0 * 3.14159265358979 * scan / 24.0;
    const Vec3 origin{1.5 * std::cos(phase), 1.5 * std::sin(phase), 0.0};
    std::vector<Point> points;
    for (int i = 0; i < 720; ++i) {
      const double az = 2.0 * 3.14159265358979 * i / 720.0;
      points.push_back(Point{static_cast<float>(3.0 * std::cos(az)),
                             static_cast<float>(3.0 * std::sin(az)),
                             static_cast<float>(0.4 * std::sin(3.0 * az))});
    }
    if (!mapper.insert(points, origin).ok()) return "";
    if (scan % 8 == 7 && !mapper.flush().ok()) return "";
  }
  if (!mapper.flush().ok()) return "";
  return mapper.telemetry().value().to_json();
}

// ---- Prometheus scrape view -------------------------------------------------

/// Sorts and groups a parsed scrape by family-name prefix (omu_service /
/// omu_tenant / omu_fleet / ...), one line per sample with its labels.
void render_prometheus(const omu::obs::PromScrape& scrape) {
  std::printf("prometheus scrape: %zu families, %zu samples\n", scrape.families.size(),
              scrape.sample_count());
  std::string group;
  for (const auto& family : scrape.families) {
    // Second "_"-segment prefix: omu_service_requests -> omu_service.
    std::size_t cut = family.name.find('_');
    if (cut != std::string::npos) cut = family.name.find('_', cut + 1);
    const std::string g = cut == std::string::npos ? family.name : family.name.substr(0, cut);
    if (g != group) {
      group = g;
      std::printf("\n  [%s]\n", group.c_str());
    }
    if (family.type == "histogram") {
      // Summarize: one line per label-series from its _count/_sum samples
      // (the parser folds the suffixed series into the base family).
      std::map<std::string, std::pair<double, double>> series;  // labels -> count, sum
      for (const auto& sample : family.samples) {
        const bool is_count = sample.name == family.name + "_count";
        const bool is_sum = sample.name == family.name + "_sum";
        if (!is_count && !is_sum) continue;
        std::string key;
        for (const auto& [k, v] : sample.labels) key += k + "=" + v + " ";
        if (is_count) series[key].first = sample.value;
        if (is_sum) series[key].second = sample.value;
      }
      for (const auto& [labels, cs] : series) {
        std::printf("    %-44s %10s  mean %8s  %s\n", family.name.c_str(),
                    format_count(static_cast<uint64_t>(cs.first)).c_str(),
                    format_ns(cs.first > 0 ? cs.second / cs.first : 0).c_str(), labels.c_str());
      }
    } else {
      for (const auto& sample : family.samples) {
        std::string labels;
        for (const auto& [k, v] : sample.labels) labels += k + "=" + v + " ";
        std::printf("    %-44s %10.6g  (%s) %s\n", sample.name.c_str(), sample.value,
                    family.type.c_str(), labels.c_str());
      }
    }
  }
}

int run_prometheus(const std::string& source) {
  std::string text;
  // A URL scrapes; anything else is a saved exposition file. An existing
  // file wins a host:port-shaped name, so saved scrapes always render.
  const bool looks_like_url = source.rfind("http://", 0) == 0 ||
                              (!std::ifstream(source).good() &&
                               source.find(':') != std::string::npos);
  if (looks_like_url) {
    std::string host, path;
    uint16_t port = 0;
    if (!omu::service::parse_http_url(source, host, port, path)) {
      std::fprintf(stderr, "omu_top: cannot parse url %s\n", source.c_str());
      return 1;
    }
    try {
      text = omu::service::http_get(host, port, path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "omu_top: scrape %s failed: %s\n", source.c_str(), e.what());
      return 1;
    }
  } else {
    std::ifstream in(source);
    if (!in) {
      std::fprintf(stderr, "omu_top: cannot read %s\n", source.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  const std::string problem = omu::obs::validate_prometheus_text(text);
  if (!problem.empty()) {
    std::fprintf(stderr, "omu_top: malformed exposition: %s\n", problem.c_str());
    return 1;
  }
  render_prometheus(omu::obs::parse_prometheus_text(text));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: omu_top <telemetry.json>   render a Mapper::telemetry() export\n"
               "       omu_top --demo [out.json]  run an instrumented demo session\n"
               "       omu_top --prometheus <url-or-file>\n"
               "                                  render a /metrics scrape (or saved file)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  std::string text;
  if (std::string(argv[1]) == "--prometheus") {
    if (argc < 3) return usage();
    return run_prometheus(argv[2]);
  }
  if (std::string(argv[1]) == "--demo") {
    text = demo_telemetry();
    if (text.empty()) {
      std::fprintf(stderr, "omu_top: demo session failed\n");
      return 1;
    }
    if (argc > 2) {
      std::ofstream out(argv[2], std::ios::trunc);
      out << text << "\n";
      if (!out) {
        std::fprintf(stderr, "omu_top: cannot write %s\n", argv[2]);
        return 1;
      }
      std::printf("wrote %s\n\n", argv[2]);
    }
  } else if (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h") {
    return usage();
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "omu_top: cannot read %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omu_top: parse error: %s\n", e.what());
    return 1;
  }
  render_metrics(doc);
  render_timeline(doc);
  return 0;
}
