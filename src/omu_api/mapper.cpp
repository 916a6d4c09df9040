// omu::Mapper implementation: composes the internal subsystems (octree /
// accelerator / tiled world + query services) behind the public facade,
// and translates internal exceptions into Status at the boundary.
#include "omu/mapper.hpp"

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "accel/accel_backend.hpp"
#include "accel/omu_accelerator.hpp"
#include "geom/pointcloud.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "map/octree_io.hpp"
#include "map/scan_inserter.hpp"
#include "obs/telemetry.hpp"
#include "omu_api/convert.hpp"
#include "omu_api/view_rep.hpp"
#include "query/query_service.hpp"
#include "world/tiled_world_map.hpp"
#include "world/world_manifest.hpp"

namespace omu {

namespace {

map::InsertPolicy insert_policy_of(const SensorModel& sm) {
  map::InsertPolicy policy;
  policy.mode = sm.deduplicate ? map::InsertMode::kDiscretized : map::InsertMode::kRayByRay;
  policy.max_range = sm.max_range;
  return policy;
}

Occupancy from_internal(map::Occupancy occ) {
  switch (occ) {
    case map::Occupancy::kUnknown: return Occupancy::kUnknown;
    case map::Occupancy::kFree: return Occupancy::kFree;
    case map::Occupancy::kOccupied: return Occupancy::kOccupied;
  }
  return Occupancy::kUnknown;
}

/// Stored-map failures read as data loss; everything else I/O.
Status status_of_runtime_error(const char* what) {
  const std::string msg(what);
  for (const char* marker : {"checksum", "corrupt", "truncated", "mismatch"}) {
    if (msg.find(marker) != std::string::npos) return Status::data_loss(msg);
  }
  return Status::io_error(msg);
}

/// The facade boundary: no internal exception escapes a Mapper call.
template <typename Fn>
Status guarded(Fn&& fn) {
  try {
    fn();
    return Status();
  } catch (const accel::CapacityExhausted& e) {
    return Status::resource_exhausted(e.what());
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::runtime_error& e) {
    return status_of_runtime_error(e.what());
  } catch (const std::bad_alloc&) {
    return Status::resource_exhausted("out of memory");
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

}  // namespace

struct Mapper::Impl {
  MapperConfig config;
  std::string backend_name;  ///< survives close() for introspection

  // Engines — exactly one group is set, `backend` points at it.
  std::unique_ptr<map::OccupancyOctree> tree;
  std::unique_ptr<map::OctreeBackend> octree_backend;
  std::unique_ptr<accel::OmuAccelerator> accelerator;
  std::unique_ptr<accel::AcceleratorBackend> accel_backend;
  std::unique_ptr<world::TiledWorldMap> world;
  map::MapBackend* backend = nullptr;

  std::unique_ptr<map::ScanInserter> inserter;
  std::unique_ptr<query::QueryService> query_service;    // non-world sessions
  std::unique_ptr<world::WorldViewService> view_service; // world sessions

  geom::PointCloud cloud_scratch;  ///< reused per insert call

  // Session telemetry (obs/telemetry.hpp): owns the metric registry and
  // the optional trace journal; the engines above hold resolved handles
  // into it, so it must outlive them (release() resets it last). The
  // ingest counters below back the MapperStats ingest block and are live
  // in every build configuration.
  std::unique_ptr<obs::Telemetry> telemetry;
  obs::Counter* scans_inserted = nullptr;   // "ingest.scans"
  obs::Counter* rays_inserted = nullptr;    // "ingest.rays"
  obs::Counter* points_inserted = nullptr;  // "ingest.points"
  obs::Counter* voxel_updates = nullptr;    // "ingest.voxel_updates"
  obs::Counter* flushes = nullptr;          // "ingest.flushes"

  bool open = false;

  /// Tears the session down in dependency order (publishers detach before
  /// the services they publish into die; telemetry outlives every handle
  /// holder).
  void release() {
    open = false;
    inserter.reset();
    if (world) world->attach_view_service(nullptr);
    backend = nullptr;
    octree_backend.reset();
    tree.reset();
    accel_backend.reset();
    accelerator.reset();
    world.reset();
    query_service.reset();
    view_service.reset();
    scans_inserted = nullptr;
    rays_inserted = nullptr;
    points_inserted = nullptr;
    voxel_updates = nullptr;
    flushes = nullptr;
    telemetry.reset();
  }

  /// Builds the telemetry context from `config` and resolves the facade's
  /// own counters. Must run before finish_wiring hands it to the engines.
  void make_telemetry() {
    obs::TelemetryConfig tcfg;
    tcfg.metrics = config.telemetry().metrics;
    tcfg.journal = config.telemetry().journal;
    tcfg.journal_capacity = config.telemetry().journal_capacity;
    telemetry = std::make_unique<obs::Telemetry>(tcfg);
    scans_inserted = telemetry->counter("ingest.scans");
    rays_inserted = telemetry->counter("ingest.rays");
    points_inserted = telemetry->counter("ingest.points");
    voxel_updates = telemetry->counter("ingest.voxel_updates");
    flushes = telemetry->counter("ingest.flushes");
  }

  /// Wires the inserter + publication service once `backend` is set.
  void finish_wiring(const map::InsertPolicy& policy) {
    backend_name = backend->name();
    inserter = std::make_unique<map::ScanInserter>(*backend, policy);
    inserter->set_telemetry(telemetry.get());
    if (octree_backend) octree_backend->set_telemetry(telemetry.get());
    if (world) world->set_telemetry(telemetry.get());
    if (world) {
      view_service = std::make_unique<world::WorldViewService>();
      world->attach_view_service(view_service.get());  // publishes an initial view
    } else {
      query_service = std::make_unique<query::QueryService>();  // epoch-0 placeholder
      query_service->set_telemetry(telemetry.get());
    }
    open = true;
  }

  Status integrate_cloud(const geom::Vec3d& origin) {
    return guarded([&] {
      const map::ScanInsertResult r = inserter->insert_scan(cloud_scratch, origin);
      points_inserted->add(r.points);
      voxel_updates->add(r.total_updates());
    });
  }

  /// Mirrors the derived (subsystem-owned) stats into registry counters so
  /// one telemetry export carries the whole session. Counters are
  /// monotonic adds; the sources are cumulative, so add the delta.
  void sync_derived_counters() {
    const auto sync = [&](const char* name, uint64_t value) {
      obs::Counter* c = telemetry->counter(name);
      const uint64_t seen = c->value();
      if (value > seen) c->add(value - seen);
    };
    if (query_service) {
      const query::SnapshotPublishStats ps = query_service->publish_stats();
      sync("publish.snapshots", ps.publications);
      sync("publish.incremental", ps.incremental_publications);
      sync("publish.noop_flushes", ps.noop_refreshes);
    } else if (world) {
      const world::WorldViewBuildStats ws = world->view_build_stats();
      sync("publish.snapshots", ws.views_built);
      sync("publish.incremental", ws.tiles_spliced);
      sync("publish.noop_flushes", ws.noop_flushes);
    }
    if (world) {
      const world::TilePagerStats p = world->pager_stats();
      sync("paging.evictions", p.evictions);
      sync("paging.reloads", p.reloads);
      sync("paging.tile_writes", p.tile_writes);
      sync("paging.transient_reads", p.transient_reads);
    }
  }
};

Mapper::Mapper(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Mapper::Mapper(Mapper&&) noexcept = default;
Mapper& Mapper::operator=(Mapper&&) noexcept = default;

Mapper::~Mapper() {
  if (impl_ && impl_->open) close();
}

Result<Mapper> Mapper::create(const MapperConfig& config) {
  if (Status s = config.validate(); !s.ok()) return s;

  auto impl = std::make_unique<Impl>();
  impl->config = config;
  impl->make_telemetry();
  const map::OccupancyParams params = api::to_occupancy_params(config.sensor_model());

  const Status built = guarded([&] {
    switch (config.backend()) {
      case BackendKind::kOctree: {
        impl->tree = std::make_unique<map::OccupancyOctree>(config.resolution(), params);
        impl->octree_backend = std::make_unique<map::OctreeBackend>(*impl->tree);
        impl->backend = impl->octree_backend.get();
        break;
      }
      case BackendKind::kAccelerator: {
        accel::OmuConfig cfg;
        if (config.accelerator_config() != nullptr) {
          cfg = *config.accelerator_config();
        } else if (config.accelerator().has_value()) {
          const AcceleratorOptions& o = *config.accelerator();
          cfg.pe_count = o.pe_count;
          cfg.banks_per_pe = o.banks_per_pe;
          cfg.rows_per_bank = o.rows_per_bank;
          cfg.clock_hz = o.clock_hz;
          cfg.reuse_pruned_rows = o.reuse_pruned_rows;
        }
        cfg.resolution = config.resolution();
        cfg.params = params;
        impl->accelerator = std::make_unique<accel::OmuAccelerator>(cfg);
        impl->accel_backend = std::make_unique<accel::AcceleratorBackend>(*impl->accelerator);
        impl->backend = impl->accel_backend.get();
        break;
      }
      case BackendKind::kTiledWorld: {
        world::TiledWorldConfig cfg;
        cfg.resolution = config.resolution();
        cfg.params = params;
        cfg.tile_shift = config.world().tile_shift;
        cfg.resident_byte_budget = config.world().resident_byte_budget;
        cfg.directory = config.world().directory;
        impl->world = std::make_unique<world::TiledWorldMap>(cfg);
        impl->backend = impl->world.get();
        break;
      }
    }
  });
  if (!built.ok()) {
    // A fresh-world constructor refusing to shadow an existing manifest is
    // a state problem with a specific remedy, not a bad argument.
    if (built.code() == StatusCode::kInvalidArgument &&
        config.backend() == BackendKind::kTiledWorld &&
        built.message().find("manifest") != std::string::npos) {
      return Status::failed_precondition(built.message() +
                                         " (reopen existing worlds via Mapper::open)");
    }
    return built;
  }

  impl->finish_wiring(insert_policy_of(config.sensor_model()));
  return Mapper(std::move(impl));
}

Result<Mapper> Mapper::open(const std::string& world_directory, const OpenOptions& options) {
  std::error_code ec;
  const std::string manifest = world::WorldManifest::manifest_path(world_directory);
  if (!std::filesystem::exists(manifest, ec) || ec) {
    return Status::not_found("world_directory: \"" + world_directory +
                             "\" holds no world manifest (" + manifest +
                             "); create new worlds via Mapper::create");
  }

  auto impl = std::make_unique<Impl>();
  const Status opened = guarded([&] {
    impl->world = world::TiledWorldMap::open(world_directory, options.resident_byte_budget);
    impl->backend = impl->world.get();
  });
  if (!opened.ok()) return opened;

  // The occupancy model comes back from the manifest; the ray policy is
  // session-side and supplied by the caller (see OpenOptions).
  const world::TiledWorldConfig& wcfg = impl->world->config();
  SensorModel sensor = api::to_sensor_model(wcfg.params);
  sensor.max_range = options.max_range;
  sensor.deduplicate = options.deduplicate;
  WorldOptions world_options;
  world_options.directory = wcfg.directory;
  world_options.resident_byte_budget = wcfg.resident_byte_budget;
  world_options.tile_shift = wcfg.tile_shift;
  impl->config = MapperConfig()
                     .backend(BackendKind::kTiledWorld)
                     .resolution(wcfg.resolution)
                     .sensor_model(sensor)
                     .world(world_options);
  impl->make_telemetry();
  impl->finish_wiring(insert_policy_of(impl->config.sensor_model()));
  return Mapper(std::move(impl));
}

namespace {

Status closed_status() {
  return Status::failed_precondition("mapper is closed (or moved from)");
}

}  // namespace

Status Mapper::insert(const ScanView& scan) {
  if (!impl_ || !impl_->open) return closed_status();
  if (scan.point_count > 0 && scan.points == nullptr) {
    return Status::invalid_argument("insert: scan.points must not be null for point_count " +
                                    std::to_string(scan.point_count));
  }

  if (scan.ray_origins == nullptr) {
    // One shared origin: the whole view is a single scan.
    impl_->cloud_scratch.clear();
    impl_->cloud_scratch.reserve(scan.point_count);
    for (std::size_t i = 0; i < scan.point_count; ++i) {
      const Point& p = scan.points[i];
      impl_->cloud_scratch.push_back(geom::Vec3f{p.x, p.y, p.z});
    }
    const Status s = impl_->integrate_cloud({scan.origin.x, scan.origin.y, scan.origin.z});
    if (s.ok() && scan.point_count > 0) impl_->scans_inserted->add(1);
    return s;
  }

  // Per-ray origins: consecutive rays sharing an origin integrate as one
  // scan, so a sorted ray stream costs the same as a plain scan.
  std::size_t i = 0;
  while (i < scan.point_count) {
    const Vec3 origin = scan.ray_origins[i];
    impl_->cloud_scratch.clear();
    std::size_t j = i;
    while (j < scan.point_count && scan.ray_origins[j] == origin) {
      const Point& p = scan.points[j];
      impl_->cloud_scratch.push_back(geom::Vec3f{p.x, p.y, p.z});
      ++j;
    }
    if (Status s = impl_->integrate_cloud({origin.x, origin.y, origin.z}); !s.ok()) return s;
    impl_->rays_inserted->add(j - i);
    i = j;
  }
  return Status();
}

Status Mapper::insert(const float* xyz, std::size_t point_count, const Vec3& origin) {
  if (!impl_ || !impl_->open) return closed_status();
  if (point_count > 0 && xyz == nullptr) {
    return Status::invalid_argument("insert: xyz must not be null for point_count " +
                                    std::to_string(point_count));
  }
  impl_->cloud_scratch.clear();
  impl_->cloud_scratch.reserve(point_count);
  for (std::size_t i = 0; i < point_count; ++i) {
    impl_->cloud_scratch.push_back(geom::Vec3f{xyz[3 * i], xyz[3 * i + 1], xyz[3 * i + 2]});
  }
  const Status s = impl_->integrate_cloud({origin.x, origin.y, origin.z});
  if (s.ok() && point_count > 0) impl_->scans_inserted->add(1);
  return s;
}

Status Mapper::insert(const Ray* rays, std::size_t ray_count) {
  if (!impl_ || !impl_->open) return closed_status();
  if (ray_count == 0) return Status();
  if (rays == nullptr) {
    return Status::invalid_argument("insert: rays must not be null for ray_count " +
                                    std::to_string(ray_count));
  }
  std::size_t i = 0;
  while (i < ray_count) {
    const Vec3 origin = rays[i].origin;
    impl_->cloud_scratch.clear();
    std::size_t j = i;
    while (j < ray_count && rays[j].origin == origin) {
      const Point& p = rays[j].endpoint;
      impl_->cloud_scratch.push_back(geom::Vec3f{p.x, p.y, p.z});
      ++j;
    }
    if (Status s = impl_->integrate_cloud({origin.x, origin.y, origin.z}); !s.ok()) return s;
    impl_->rays_inserted->add(j - i);
    i = j;
  }
  return Status();
}

Status Mapper::flush() {
  if (!impl_ || !impl_->open) return closed_status();
  const Status s = guarded([&] {
    if (impl_->query_service) {
      // refresh_from flushes first, then publishes the epoch.
      impl_->query_service->refresh_from(*impl_->backend);
    } else {
      impl_->backend->flush();  // the tiled world publishes its own view
    }
  });
  if (s.ok()) impl_->flushes->add(1);
  return s;
}

Result<MapView> Mapper::snapshot() const {
  if (!impl_ || !impl_->open) return closed_status();
  auto rep = std::make_shared<MapView::Rep>();
  if (impl_->view_service) {
    rep->world = impl_->view_service->view();
  } else {
    rep->snapshot = impl_->query_service->snapshot();
  }
  return MapView(std::move(rep));
}

Result<Occupancy> Mapper::classify(const Vec3& position) {
  if (!impl_ || !impl_->open) return closed_status();
  Occupancy occ = Occupancy::kUnknown;
  const Status s = guarded([&] {
    occ = from_internal(impl_->backend->classify(geom::Vec3d{position.x, position.y, position.z}));
  });
  if (!s.ok()) return s;
  return occ;
}

Status Mapper::save() {
  if (!impl_ || !impl_->open) return closed_status();
  if (!impl_->world) {
    return Status::failed_precondition(
        "save: this is a " + std::string(to_string(backend())) +
        " session with no world directory; use save_map(path) for a single-file map");
  }
  if (impl_->config.world().directory.empty()) {
    return Status::failed_precondition(
        "save: this tiled-world session is in-memory — configure world.directory at create "
        "time to make the world persistable");
  }
  return guarded([&] { impl_->world->save(); });
}

Status Mapper::save_map(const std::string& path) {
  if (!impl_ || !impl_->open) return closed_status();
  if (impl_->world) {
    if (impl_->config.world().directory.empty()) {
      return Status::failed_precondition(
          "save_map: a tiled-world session persists tile-by-tile, not as one file — recreate it "
          "with world.directory set, then use save()");
    }
    return Status::failed_precondition(
        "save_map: this session's map lives in a tiled world, which persists into its world "
        "directory; use save()");
  }
  return guarded([&] {
    impl_->backend->flush();
    bool written = false;
    if (impl_->tree) {
      written = map::OctreeIo::write_file(*impl_->tree, path);
    } else {
      written = map::OctreeIo::write_file(impl_->accelerator->to_octree(), path);
    }
    if (!written) throw std::runtime_error("save_map: cannot write '" + path + "'");
  });
}

Status Mapper::close() {
  if (!impl_) return closed_status();
  if (!impl_->open) return Status();  // idempotent
  const Status s = guarded([&] { impl_->backend->flush(); });
  impl_->release();
  return s;
}

bool Mapper::is_open() const { return impl_ != nullptr && impl_->open; }

const MapperConfig& Mapper::config() const {
  static const MapperConfig kEmpty;
  return impl_ ? impl_->config : kEmpty;
}

BackendKind Mapper::backend() const { return config().backend(); }

std::string Mapper::backend_name() const { return impl_ ? impl_->backend_name : std::string(); }

double Mapper::resolution() const { return config().resolution(); }

Result<MapperStats> Mapper::stats() const {
  if (!impl_ || !impl_->open) return closed_status();
  MapperStats s;
  s.ingest.scans_inserted = impl_->scans_inserted->value();
  s.ingest.rays_inserted = impl_->rays_inserted->value();
  s.ingest.points_inserted = impl_->points_inserted->value();
  s.ingest.voxel_updates = impl_->voxel_updates->value();
  s.ingest.flushes = impl_->flushes->value();
  if (impl_->tree) {
    s.ingest.memory_bytes = impl_->tree->memory_bytes();
  } else if (impl_->world) {
    s.ingest.memory_bytes = impl_->world->pager_stats().resident_bytes;
  }
  if (impl_->query_service) {
    const query::SnapshotPublishStats ps = impl_->query_service->publish_stats();
    s.publication.snapshots_published = ps.publications;
    s.publication.incremental_publications = ps.incremental_publications;
    s.publication.noop_flushes = ps.noop_refreshes;
    s.publication.chunks_reused = ps.chunks_reused;
    s.publication.chunks_rebuilt = ps.chunks_rebuilt;
    s.publication.bytes_reused = ps.bytes_reused;
    s.publication.bytes_rebuilt = ps.bytes_rebuilt;
  } else if (impl_->world) {
    // World sessions count per-tile snapshots: a splice rebuilt some of a
    // tile's branches and shared the rest (its bytes land on both sides).
    const world::WorldViewBuildStats ws = impl_->world->view_build_stats();
    s.publication.snapshots_published = ws.views_built;
    s.publication.incremental_publications = ws.tiles_spliced;
    s.publication.noop_flushes = ws.noop_flushes;
    s.publication.chunks_reused = ws.tiles_reused;
    s.publication.chunks_rebuilt = ws.tiles_rebuilt + ws.tiles_spliced;
    s.publication.bytes_reused = ws.bytes_reused;
    s.publication.bytes_rebuilt = ws.bytes_rebuilt;
  }
  if (impl_->world) {
    const world::TilePagerStats p = impl_->world->pager_stats();
    s.paging.known_tiles = p.known_tiles;
    s.paging.resident_tiles = p.resident_tiles;
    s.paging.resident_bytes = p.resident_bytes;
    s.paging.peak_resident_bytes = p.peak_resident_bytes;
    s.paging.resident_byte_budget = impl_->config.world().resident_byte_budget;
    s.paging.evictions = p.evictions;
    s.paging.reloads = p.reloads;
    s.paging.tile_writes = p.tile_writes;
    s.paging.transient_reads = p.transient_reads;
  }
  return s;
}

Result<TelemetrySnapshot> Mapper::telemetry() const {
  if (!impl_ || !impl_->open) return closed_status();
  // Mirror the subsystem-owned cumulative stats into registry counters
  // first, so the export is one self-contained document.
  impl_->sync_derived_counters();
  return impl_->telemetry->snapshot();
}

Result<WorldPagingStats> Mapper::paging_stats() const {
  if (!impl_ || !impl_->open) return closed_status();
  if (!impl_->world) {
    return Status::failed_precondition("paging_stats: only sessions with a tiled world page; "
                                       "this is a " +
                                       std::string(to_string(backend())) + " session");
  }
  return stats()->paging;
}

Result<uint64_t> Mapper::content_hash() {
  if (!impl_ || !impl_->open) return closed_status();
  uint64_t hash = 0;
  const Status s = guarded([&] {
    impl_->backend->flush();
    hash = impl_->backend->content_hash();
  });
  if (!s.ok()) return s;
  return hash;
}

map::MapBackend* Mapper::internal_backend() { return impl_ ? impl_->backend : nullptr; }
map::OccupancyOctree* Mapper::internal_octree() { return impl_ ? impl_->tree.get() : nullptr; }
accel::OmuAccelerator* Mapper::internal_accelerator() {
  return impl_ ? impl_->accelerator.get() : nullptr;
}
world::TiledWorldMap* Mapper::internal_world() { return impl_ ? impl_->world.get() : nullptr; }
query::QueryService* Mapper::internal_query_service() {
  return impl_ ? impl_->query_service.get() : nullptr;
}

}  // namespace omu
