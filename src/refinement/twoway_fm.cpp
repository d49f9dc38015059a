#include "refinement/twoway_fm.hpp"

namespace kappa {

namespace detail {

FMWorkspace& fm_workspace() {
  thread_local FMWorkspace ws;
  return ws;
}

}  // namespace detail

const char* queue_selection_name(QueueSelection s) {
  switch (s) {
    case QueueSelection::kTopGain:
      return "TopGain";
    case QueueSelection::kMaxLoad:
      return "MaxLoad";
    case QueueSelection::kAlternate:
      return "Alternate";
    case QueueSelection::kTopGainMaxLoad:
      return "TopGainMaxLoad";
  }
  return "?";
}

TwoWayFMResult twoway_fm(const StaticGraph& graph, Partition& partition,
                         BlockID a, BlockID b,
                         std::span<const NodeID> eligible,
                         const TwoWayFMOptions& options, Rng& rng) {
  GraphPairModel model(graph, partition);
  return twoway_fm(model, a, b, eligible, options, rng);
}

}  // namespace kappa
