// Stream formatting of the grouped MapperStats counters — one compact
// line per group so harnesses and examples can print a session summary
// without spelling every field.
#include <ostream>

#include "omu/types.hpp"

namespace omu {

std::ostream& operator<<(std::ostream& os, const MapperStats::Ingest& s) {
  os << "ingest: " << s.scans_inserted << " scans, " << s.points_inserted << " points, "
     << s.voxel_updates << " voxel updates";
  if (s.rays_inserted > 0) os << ", " << s.rays_inserted << " rays";
  os << ", " << s.flushes << " flushes";
  if (s.memory_bytes > 0) {
    os << ", " << static_cast<double>(s.memory_bytes) / 1024.0 << " KiB resident";
  }
  return os;
}

std::ostream& operator<<(std::ostream& os, const MapperStats::Publication& s) {
  os << "publication: " << s.snapshots_published << " epochs (" << s.incremental_publications
     << " incremental, " << s.noop_flushes << " no-op), chunks " << s.chunks_reused
     << " reused / " << s.chunks_rebuilt << " rebuilt, bytes " << s.bytes_reused << " reused / "
     << s.bytes_rebuilt << " rebuilt";
  return os;
}

std::ostream& operator<<(std::ostream& os, const MapperStats::Absorber& s) {
  os << "absorber: " << s.updates_absorbed << " absorbed + " << s.updates_passed_through
     << " passed through, " << s.voxels_flushed << " voxel deltas over " << s.window_flushes
     << " flushes (" << s.high_water_flushes << " high-water), " << s.scrolls << " scrolls ("
     << s.scroll_evictions << " evictions)";
  return os;
}

std::ostream& operator<<(std::ostream& os, const WorldPagingStats& s) {
  os << "paging: " << s.resident_tiles << "/" << s.known_tiles << " tiles resident, "
     << static_cast<double>(s.resident_bytes) / 1024.0 << " KiB (peak "
     << static_cast<double>(s.peak_resident_bytes) / 1024.0 << ", budget ";
  if (s.resident_byte_budget == 0) {
    os << "unbounded";
  } else {
    os << static_cast<double>(s.resident_byte_budget) / 1024.0 << " KiB";
  }
  os << "), " << s.evictions << " evictions, " << s.reloads << " reloads, " << s.tile_writes
     << " tile writes, " << s.transient_reads << " transient reads";
  return os;
}

std::ostream& operator<<(std::ostream& os, const MapperStats& s) {
  os << s.ingest << '\n' << s.publication;
  if (s.paging.known_tiles > 0 || s.paging.tile_writes > 0) os << '\n' << s.paging;
  if (s.absorber.updates_absorbed > 0 || s.absorber.updates_passed_through > 0) {
    os << '\n' << s.absorber;
  }
  return os;
}

}  // namespace omu
