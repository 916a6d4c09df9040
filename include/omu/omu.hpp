// Umbrella header of the OMU public mapping API.
//
//   #include <omu/omu.hpp>
//
//   auto mapper = omu::Mapper::create(omu::MapperConfig()
//                                         .resolution(0.2)
//                                         .backend(omu::BackendKind::kOctree));
//   if (!mapper.ok()) { /* mapper.status() names the offending field */ }
//   mapper->insert(points, origin);
//   mapper->flush();
//   omu::MapView view = mapper->snapshot().value();
//   if (view.classify({1.0, 2.0, 0.5}) == omu::Occupancy::kOccupied) { ... }
//
// Everything under include/omu/ is the supported, installed API surface;
// headers under src/ are internal. See mapper.hpp for the full contract.
#pragma once

#include "omu/config.hpp"
#include "omu/map_view.hpp"
#include "omu/mapper.hpp"
#include "omu/status.hpp"
#include "omu/types.hpp"
