/// \file metrics_export.hpp
/// \brief Builds the unified MetricsRegistry from a PartitionResult: one
/// named, typed namespace over every ad-hoc counter the result carries
/// (CommStats, idle times, halo_per_level, PairShipStats,
/// shard/hierarchy/partition memory).
///
/// Every consumer — `kappa_cli --metrics-out`, kappa-bench, the
/// registry-equality test — reads these same names; the schema table in
/// README.md documents them.
#pragma once

#include <string>

#include "core/partitioner.hpp"
#include "util/metrics.hpp"

namespace kappa {

/// Flattens \p result (plus the run identity from \p config and the
/// transport \p backend name, e.g. PERuntime::backend()) into the
/// registry. Callers may add further namespaced entries (e.g. trace.*)
/// before dumping.
[[nodiscard]] MetricsRegistry metrics_from_result(
    const PartitionResult& result, const Config& config,
    const std::string& backend);

}  // namespace kappa
