#include "map/update_trace.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "io/framing.hpp"

namespace omu::map {

namespace {

constexpr char kMagic[9] = {'O', 'M', 'U', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::string_view kLabel = "UpdateTrace";

}  // namespace

UpdateTraceWriter::UpdateTraceWriter(std::ostream& os, double resolution) : os_(&os) {
  os_->write(kMagic, sizeof(kMagic));
  io::write_pod(*os_, resolution);
  if (!*os_) throw std::runtime_error("UpdateTrace: header write failure");
}

void UpdateTraceWriter::append(const UpdateBatch& batch) {
  io::write_pod(*os_, static_cast<uint32_t>(batch.size()));
  for (const VoxelUpdate& u : batch) {
    io::write_pod(*os_, u.key[0]);
    io::write_pod(*os_, u.key[1]);
    io::write_pod(*os_, u.key[2]);
    io::write_pod(*os_, static_cast<uint8_t>(u.occupied ? 1 : 0));
  }
  if (!*os_) throw std::runtime_error("UpdateTrace: batch write failure");
  ++batches_;
  updates_ += batch.size();
}

UpdateTraceReader::UpdateTraceReader(std::istream& is) : is_(&is) {
  char magic[sizeof(kMagic)];
  is_->read(magic, sizeof(magic));
  if (!*is_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("UpdateTrace: bad magic");
  }
  resolution_ = io::read_pod<double>(*is_, kLabel);
  if (!(resolution_ > 0.0)) throw std::runtime_error("UpdateTrace: invalid resolution");
}

std::optional<UpdateBatch> UpdateTraceReader::next() {
  uint32_t count = 0;
  is_->read(reinterpret_cast<char*>(&count), sizeof(count));
  if (is_->eof()) return std::nullopt;
  if (!*is_) throw std::runtime_error("UpdateTrace: truncated batch header");
  UpdateBatch batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VoxelUpdate u;
    u.key[0] = io::read_pod<uint16_t>(*is_, kLabel);
    u.key[1] = io::read_pod<uint16_t>(*is_, kLabel);
    u.key[2] = io::read_pod<uint16_t>(*is_, kLabel);
    u.occupied = io::read_pod<uint8_t>(*is_, kLabel) != 0;
    batch.push_back(u);
  }
  return batch;
}

bool write_trace_file(const std::string& path, double resolution,
                      const std::vector<UpdateBatch>& batches) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  try {
    UpdateTraceWriter writer(os, resolution);
    for (const UpdateBatch& b : batches) writer.append(b);
  } catch (const std::runtime_error&) {
    return false;
  }
  return static_cast<bool>(os);
}

std::optional<std::vector<UpdateBatch>> read_trace_file(const std::string& path,
                                                        double* resolution_out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  try {
    UpdateTraceReader reader(is);
    if (resolution_out != nullptr) *resolution_out = reader.resolution();
    std::vector<UpdateBatch> batches;
    while (auto batch = reader.next()) batches.push_back(std::move(*batch));
    return batches;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

}  // namespace omu::map
