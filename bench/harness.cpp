#include "harness.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "generators/generators.hpp"
#include "graph/metrics.hpp"
#include "util/timer.hpp"

namespace kappa::bench {

int repetitions(int argc, char** argv, int fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      return std::max(1, std::atoi(argv[i] + 7));
    }
  }
  return fallback;
}

const std::vector<std::string>& small_suite() {
  static const std::vector<std::string> suite = {
      "rgg14", "delaunay14", "grid_m", "annulus_m", "road_s", "rmat_14"};
  return suite;
}

const std::vector<std::string>& large_suite() {
  static const std::vector<std::string> suite = {
      "rgg15",     "delaunay15", "grid_l", "annulus_l",
      "road_m",    "road_l",     "rmat_15", "ba_m"};
  return suite;
}

RunAggregate run_kappa(const StaticGraph& graph, Config config, int reps,
                       PERuntime* runtime) {
  RunAggregate aggregate;
  for (int rep = 1; rep <= reps; ++rep) {
    config.seed = static_cast<std::uint64_t>(rep);
    const Context context = runtime != nullptr
                                ? Context::spmd(config, *runtime)
                                : Context::sequential(config);
    const PartitionResult result = Partitioner(context).partition(graph);
    aggregate.add(static_cast<double>(result.cut), result.balance,
                  result.total_time);
  }
  return aggregate;
}

RunAggregate run_tool(const std::string& tool, const StaticGraph& graph,
                      BlockID k, double eps, int reps) {
  RunAggregate aggregate;
  for (int rep = 1; rep <= reps; ++rep) {
    BaselineResult result;
    if (tool == "scotch") {
      result = scotch_partition(graph, k, eps, rep);
    } else if (tool == "kmetis") {
      result = kmetis_partition(graph, k, eps, rep);
    } else if (tool == "parmetis") {
      result = parmetis_partition(graph, k, eps, rep);
    } else {
      throw std::runtime_error("unknown tool: " + tool);
    }
    aggregate.add(static_cast<double>(result.cut), result.balance,
                  result.total_time);
  }
  return aggregate;
}

void SuiteAccumulator::add(const RunAggregate& aggregate) {
  cut_.add(aggregate.avg_cut());
  best_.add(aggregate.best_cut());
  balance_.add(aggregate.avg_balance());
  time_.add(aggregate.avg_time());
}

SuiteSummary SuiteAccumulator::summary() const {
  return {cut_.value(), best_.value(), balance_.value(), time_.value()};
}

void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& column : columns) std::printf("%-14s", column.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%-14s", "----------");
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells) {
  for (const auto& cell : cells) std::printf("%-14s", cell.c_str());
  std::printf("\n");
}

std::string fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace kappa::bench
