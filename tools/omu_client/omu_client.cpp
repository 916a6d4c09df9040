// omu_client — exercise a running map service.
//
//   omu_client smoke   (--unix <path> | --tcp <host:port>)
//                      [--tenants <n>]   concurrent tenant connections (4)
//                      [--scans <n>]     scans inserted per tenant (12)
//                      [--backend octree|world|hybrid]
//                      [--quota-pps <n>] per-tenant points/s quota (0 = off)
//     Each tenant opens its own connection and session, subscribes a
//     mirror, inserts deterministic scans with flushes in between, then
//     proves the mirror converged (shard digest every epoch + final
//     content-hash RPC) and that query answers match classify. Afterwards
//     one extra connection fetches /metrics over RPC and validates the
//     exposition. Exit 0 = every check passed.
//
//   omu_client metrics (--unix <path> | --tcp <host:port>)
//     Print the service's Prometheus exposition.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/prom_text.hpp"
#include "service/client.hpp"
#include "service/metrics_http.hpp"

namespace {

using namespace omu::service;

int usage() {
  std::fprintf(stderr,
               "usage: omu_client smoke   (--unix <path> | --tcp <host:port>)\n"
               "                          [--tenants <n>] [--scans <n>]\n"
               "                          [--backend octree|world|hybrid]\n"
               "                          [--quota-pps <n>]\n"
               "       omu_client metrics (--unix <path> | --tcp <host:port>)\n");
  return 2;
}

struct Endpoint {
  std::string unix_path;
  std::string tcp_host;
  uint16_t tcp_port = 0;

  std::unique_ptr<Transport> connect() const {
    if (!unix_path.empty()) return connect_unix(unix_path);
    return connect_tcp(tcp_host, tcp_port);
  }
};

/// One deterministic scan: a ring of wall endpoints around the origin,
/// varied per (tenant, scan) so tenants build distinct maps.
std::vector<float> make_scan(int tenant, int scan, int points) {
  std::vector<float> xyz;
  xyz.reserve(static_cast<std::size_t>(points) * 3);
  for (int i = 0; i < points; ++i) {
    const double az = 2.0 * 3.14159265358979 * i / points + 0.05 * tenant;
    const double r = 2.5 + 0.02 * scan;
    xyz.push_back(static_cast<float>(r * std::cos(az)));
    xyz.push_back(static_cast<float>(r * std::sin(az)));
    xyz.push_back(static_cast<float>(0.3 * std::sin(4.0 * az + tenant)));
  }
  return xyz;
}

struct SmokeOptions {
  Endpoint endpoint;
  int tenants = 4;
  int scans = 12;
  std::string backend = "octree";
  uint64_t quota_pps = 0;
};

bool run_tenant(const SmokeOptions& opt, int tenant, std::string& error) {
  try {
    ServiceClient client(opt.endpoint.connect());
    auto hello = client.hello("omu_client smoke t" + std::to_string(tenant));
    if (!hello.ok()) {
      error = "hello: " + hello.status().message();
      return false;
    }

    SessionSpec spec;
    spec.tenant = "tenant" + std::to_string(tenant);
    spec.resolution = 0.1;
    spec.quota.max_points_per_sec = opt.quota_pps;
    if (opt.backend == "octree") {
      spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
    } else if (opt.backend == "world") {
      spec.backend = static_cast<uint8_t>(omu::BackendKind::kTiledWorld);
      spec.world_directory = "smoke_tenant" + std::to_string(tenant);
    } else if (opt.backend == "hybrid") {
      spec.backend = static_cast<uint8_t>(omu::BackendKind::kHybrid);
    } else {
      error = "unknown backend " + opt.backend;
      return false;
    }

    auto session = client.create(spec);
    if (!session.ok()) {
      error = "create: " + session.status().message();
      return false;
    }
    const uint64_t sid = *session;

    SubscriptionMirror mirror;
    auto sub = client.subscribe(sid, &mirror);
    if (!sub.ok()) {
      error = "subscribe: " + sub.status().message();
      return false;
    }

    const omu::Vec3 origin{0.1 * tenant, 0.0, 0.0};
    for (int scan = 0; scan < opt.scans; ++scan) {
      const auto status = client.insert_retrying(sid, origin, make_scan(tenant, scan, 512));
      if (!status.ok()) {
        error = "insert scan " + std::to_string(scan) + ": " + status.message;
        return false;
      }
      if (scan % 4 == 3) {
        auto epoch = client.flush(sid);
        if (!epoch.ok()) {
          error = "flush: " + epoch.status().message();
          return false;
        }
      }
    }
    if (auto epoch = client.flush(sid); !epoch.ok()) {
      error = "final flush: " + epoch.status().message();
      return false;
    }

    // Convergence: the mirror matched the shard digest on every epoch,
    // and its own canonical hash equals the content-hash RPC right now.
    if (mirror.hash_mismatches() != 0 || !mirror.converged()) {
      error = "mirror diverged (" + std::to_string(mirror.hash_mismatches()) + " mismatches in " +
              std::to_string(mirror.events_applied()) + " events)";
      return false;
    }
    auto server_hash = client.content_hash(sid);
    if (!server_hash.ok()) {
      error = "content_hash: " + server_hash.status().message();
      return false;
    }
    if (*server_hash != mirror.content_hash()) {
      error = "mirror hash != server hash";
      return false;
    }

    // Query vs classify on a few probes through the mapped ring.
    std::vector<omu::Vec3> probes;
    for (int i = 0; i < 8; ++i) {
      const double az = 2.0 * 3.14159265358979 * i / 8.0 + 0.05 * tenant;
      probes.push_back(omu::Vec3{2.5 * std::cos(az), 2.5 * std::sin(az), 0.0});
      probes.push_back(omu::Vec3{0.5 * std::cos(az), 0.5 * std::sin(az), 0.0});
    }
    auto answers = client.query(sid, probes);
    if (!answers.ok()) {
      error = "query: " + answers.status().message();
      return false;
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      auto single = client.classify(sid, probes[i]);
      if (!single.ok()) {
        error = "classify: " + single.status().message();
        return false;
      }
      if (*single != (*answers)[i]) {
        error = "query/classify disagree at probe " + std::to_string(i);
        return false;
      }
    }

    if (auto status = client.unsubscribe(sid, *sub); !status.ok()) {
      error = "unsubscribe: " + status.message();
      return false;
    }
    if (auto status = client.close_session(sid); !status.ok()) {
      error = "close: " + status.message();
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
}

int run_smoke(const SmokeOptions& opt) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(static_cast<std::size_t>(opt.tenants));
  std::atomic<int> failures{0};
  for (int t = 0; t < opt.tenants; ++t) {
    threads.emplace_back([&, t] {
      if (!run_tenant(opt, t, errors[static_cast<std::size_t>(t)])) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < opt.tenants; ++t) {
    if (!errors[static_cast<std::size_t>(t)].empty()) {
      std::fprintf(stderr, "omu_client: tenant %d FAILED: %s\n", t,
                   errors[static_cast<std::size_t>(t)].c_str());
    }
  }

  // Fleet metrics over RPC: well-formed exposition carrying the service
  // counters and one rollup series per tenant.
  try {
    ServiceClient client(opt.endpoint.connect());
    auto text = client.metrics();
    if (!text.ok()) {
      std::fprintf(stderr, "omu_client: metrics rpc failed: %s\n",
                   text.status().message().c_str());
      return 1;
    }
    const std::string problem = omu::obs::validate_prometheus_text(*text);
    if (!problem.empty()) {
      std::fprintf(stderr, "omu_client: invalid exposition: %s\n", problem.c_str());
      return 1;
    }
    const auto scrape = omu::obs::parse_prometheus_text(*text);
    if (scrape.find("omu_service_requests") == nullptr) {
      std::fprintf(stderr, "omu_client: exposition is missing omu_service_requests\n");
      return 1;
    }
    std::printf("metrics: %zu families, %zu samples, exposition valid\n",
                scrape.families.size(), scrape.sample_count());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omu_client: metrics connection failed: %s\n", e.what());
    return 1;
  }

  if (failures.load() != 0) return 1;
  std::printf("smoke: %d tenants x %d scans on %s backend — all converged\n", opt.tenants,
              opt.scans, opt.backend.c_str());
  return 0;
}

int run_metrics(const Endpoint& endpoint) {
  try {
    ServiceClient client(endpoint.connect());
    auto text = client.metrics();
    if (!text.ok()) {
      std::fprintf(stderr, "omu_client: %s\n", text.status().message().c_str());
      return 1;
    }
    std::fputs(text->c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omu_client: %s\n", e.what());
    return 1;
  }
}

bool parse_endpoint_arg(const std::string& arg, const char* value, Endpoint& endpoint,
                        bool& matched) {
  matched = false;
  if (arg == "--unix") {
    if (value == nullptr) return false;
    endpoint.unix_path = value;
    matched = true;
  } else if (arg == "--tcp") {
    if (value == nullptr) return false;
    const std::string spec = value;
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) return false;
    endpoint.tcp_host = spec.substr(0, colon);
    const long port = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) return false;
    endpoint.tcp_port = static_cast<uint16_t>(port);
    matched = true;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  SmokeOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool matched = false;
    if (!parse_endpoint_arg(arg, value, opt.endpoint, matched)) return usage();
    if (matched) {
      ++i;
      continue;
    }
    if (arg == "--tenants" && value != nullptr) {
      opt.tenants = std::atoi(value);
      ++i;
    } else if (arg == "--scans" && value != nullptr) {
      opt.scans = std::atoi(value);
      ++i;
    } else if (arg == "--backend" && value != nullptr) {
      opt.backend = value;
      ++i;
    } else if (arg == "--quota-pps" && value != nullptr) {
      opt.quota_pps = std::strtoull(value, nullptr, 10);
      ++i;
    } else {
      return usage();
    }
  }
  if (opt.endpoint.unix_path.empty() && opt.endpoint.tcp_host.empty()) return usage();
  if (opt.tenants < 1 || opt.scans < 1) return usage();

  if (command == "smoke") return run_smoke(opt);
  if (command == "metrics") return run_metrics(opt.endpoint);
  return usage();
}
