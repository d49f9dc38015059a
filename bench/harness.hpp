/// \file harness.hpp
/// \brief Shared helpers for the per-table benchmark binaries.
///
/// Every binary regenerates one table or figure of the paper, printing the
/// same row layout. Instance sizes are scaled to a single-core laptop
/// budget (the paper used a 200-node cluster); EXPERIMENTS.md maps each
/// suite to the paper's instances and records paper-vs-measured shapes.
#pragma once

#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/partitioner.hpp"
#include "graph/static_graph.hpp"
#include "util/stats.hpp"

namespace kappa::bench {

/// Repetitions per configuration (the paper uses 10; 3 keeps the whole
/// harness within a laptop budget). Override with --reps=N.
int repetitions(int argc, char** argv, int fallback = 3);

/// The calibration suite of §6.1 (stands in for the small/medium Walshaw
/// instances used to tune parameters).
const std::vector<std::string>& small_suite();

/// The comparison suite of §6.2 (stands in for the large instances:
/// geometric, FEM, road, social families).
const std::vector<std::string>& large_suite();

/// Runs KaPPa `reps` times with seeds 1..reps and aggregates: SPMD on
/// \p runtime when given, else the sequential pipeline.
RunAggregate run_kappa(const StaticGraph& graph, Config config, int reps,
                       PERuntime* runtime = nullptr);

/// Baseline tools by name: "scotch", "kmetis", "parmetis".
RunAggregate run_tool(const std::string& tool, const StaticGraph& graph,
                      BlockID k, double eps, int reps);

/// Geometric-mean summary over a whole suite for one configuration;
/// returns (avg cut, best cut, avg balance, avg time) geometric means as
/// in the paper's aggregate rows.
struct SuiteSummary {
  double avg_cut = 0;
  double best_cut = 0;
  double avg_balance = 0;
  double avg_time = 0;
};

/// Folds per-instance aggregates into the paper's geometric-mean columns.
class SuiteAccumulator {
 public:
  void add(const RunAggregate& aggregate);
  [[nodiscard]] SuiteSummary summary() const;

 private:
  GeometricMean cut_;
  GeometricMean best_;
  GeometricMean balance_;
  GeometricMean time_;
};

/// Table formatting: fixed-width columns like the paper's appendix.
void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns);
void print_row(const std::vector<std::string>& cells);
std::string fmt(double value, int precision = 0);

}  // namespace kappa::bench
