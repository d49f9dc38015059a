/// \file metrics_export.hpp
/// \brief Builds the unified MetricsRegistry from a PartitionResult: run
/// identity, quality, phase times, the per-level halo breakdown, and one
/// declared counter per row of the counter table (parallel/comm_stats.hpp)
/// over the result's RankCounters records. README.md documents the names.
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
