#include "parallel/transport_inproc.hpp"

#include <array>
#include <atomic>
#include <barrier>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/channel.hpp"

namespace kappa {

namespace {

class InprocFabric;

/// One rank's endpoint: borrows the fabric's shared mailboxes + barrier.
class InprocEndpoint final : public Transport {
 public:
  InprocEndpoint(InprocFabric& fabric, int rank)
      : fabric_(fabric), rank_(rank) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override;
  void send(int dest, Lane lane, std::vector<std::uint64_t> payload) override;
  [[nodiscard]] Message receive(int source, Lane lane) override;
  [[nodiscard]] std::optional<Message> try_receive(int source,
                                                   Lane lane) override;
  void barrier() override;

  // kappa-watch: in-process ranks share an address space, so there is no
  // heartbeat traffic — enable_watch registers the rank's board in the
  // fabric and peers read it directly (the degenerate, zero-cost form of
  // the heartbeat lane).
  void enable_watch(const ProgressBoard* board,
                    int heartbeat_interval_ms) override;
  void disable_watch() override;
  [[nodiscard]] std::optional<PeerHealth> peer_health(int peer) const override;
  [[nodiscard]] std::vector<LaneQueueDepth> queue_depths() const override;

 private:
  InprocFabric& fabric_;
  int rank_;
};

class InprocFabric final : public TransportFabric {
 public:
  explicit InprocFabric(int num_pes)
      : num_pes_(num_pes), mailboxes_(static_cast<std::size_t>(num_pes)),
        boards_(static_cast<std::size_t>(num_pes)), barrier_(num_pes) {
    endpoints_.reserve(static_cast<std::size_t>(num_pes));
    for (int rank = 0; rank < num_pes; ++rank) {
      endpoints_.emplace_back(*this, rank);
    }
  }

  [[nodiscard]] int size() const override { return num_pes_; }

  [[nodiscard]] std::vector<int> local_ranks() const override {
    std::vector<int> ranks(static_cast<std::size_t>(num_pes_));
    for (int rank = 0; rank < num_pes_; ++rank) {
      ranks[static_cast<std::size_t>(rank)] = rank;
    }
    return ranks;
  }

  [[nodiscard]] Transport& endpoint(int rank) override {
    return endpoints_.at(static_cast<std::size_t>(rank));
  }

  [[nodiscard]] const char* name() const override { return "inproc"; }

  /// Fails every mailbox and leaves the barrier for good on behalf of
  /// the failing rank (arrive_and_drop), which releases the ranks waiting
  /// in the current phase; barrier() then sees the flag and throws. A
  /// failed fabric lets no rank wait in its barrier again, so later calls
  /// (ranks of later runs) drop no further than the barrier's count.
  void fail_local(const std::string& reason) override {
    failed_.store(true, std::memory_order_release);
    for (auto& lanes : mailboxes_) {
      for (Mailbox& mailbox : lanes) mailbox.fail(reason);
    }
    if (dropped_.fetch_add(1) < num_pes_) barrier_.arrive_and_drop();
  }

 private:
  friend class InprocEndpoint;

  int num_pes_;
  // One mailbox per (rank, lane): application p2p and collective traffic
  // never satisfy each other's receives.
  std::vector<std::array<Mailbox, kNumLanes>> mailboxes_;
  // kappa-watch board registry, one slot per rank. Boards are owned by
  // the watch layer and guaranteed (by core/partitioner.cpp) to outlive
  // the run, so a reader that loads a pointer just before the owner
  // unregisters it still dereferences live memory.
  std::vector<std::atomic<const ProgressBoard*>> boards_;
  std::barrier<> barrier_;
  std::atomic<bool> failed_{false};  ///< a local rank's program threw
  std::atomic<int> dropped_{0};      ///< fail_local() calls so far
  std::vector<InprocEndpoint> endpoints_;
};

int InprocEndpoint::size() const { return fabric_.num_pes_; }

void InprocEndpoint::send(int dest, Lane lane,
                          std::vector<std::uint64_t> payload) {
  fabric_.mailboxes_[static_cast<std::size_t>(dest)]
                    [static_cast<std::size_t>(lane)]
      .push({rank_, std::move(payload)});
}

Message InprocEndpoint::receive(int source, Lane lane) {
  return fabric_.mailboxes_[static_cast<std::size_t>(rank_)]
                           [static_cast<std::size_t>(lane)]
      .pop(source);
}

std::optional<Message> InprocEndpoint::try_receive(int source, Lane lane) {
  return fabric_.mailboxes_[static_cast<std::size_t>(rank_)]
                           [static_cast<std::size_t>(lane)]
      .try_pop(source);
}

void InprocEndpoint::barrier() {
  // A rank that failed has dropped out of the barrier: entering or
  // leaving a phase after that must raise, not wait or run on.
  auto check = [&] {
    if (fabric_.failed_.load(std::memory_order_acquire)) {
      throw TransportError("barrier: another in-process rank failed");
    }
  };
  check();
  fabric_.barrier_.arrive_and_wait();
  check();
}

void InprocEndpoint::enable_watch(const ProgressBoard* board,
                                  int heartbeat_interval_ms) {
  (void)heartbeat_interval_ms;  // no wire, no cadence
  fabric_.boards_[static_cast<std::size_t>(rank_)].store(
      board, std::memory_order_release);
}

void InprocEndpoint::disable_watch() {
  fabric_.boards_[static_cast<std::size_t>(rank_)].store(
      nullptr, std::memory_order_release);
}

std::optional<PeerHealth> InprocEndpoint::peer_health(int peer) const {
  if (peer < 0 || peer >= fabric_.num_pes_) return std::nullopt;
  const ProgressBoard* board =
      fabric_.boards_[static_cast<std::size_t>(peer)].load(
          std::memory_order_acquire);
  if (board == nullptr) return std::nullopt;
  PeerHealth health;
  health.progress = board->snapshot();
  // Shared clock and shared memory: the board itself is the freshest
  // possible evidence, so "last heard" and "last changed" coincide.
  health.last_heard_ns = health.progress.last_advance_ns;
  health.last_change_ns = health.progress.last_advance_ns;
  return health;
}

std::vector<LaneQueueDepth> InprocEndpoint::queue_depths() const {
  std::vector<LaneQueueDepth> depths;
  const auto& lanes = fabric_.mailboxes_[static_cast<std::size_t>(rank_)];
  for (int lane = 0; lane < kNumLanes; ++lane) {
    for (const auto& [source, depth] :
         lanes[static_cast<std::size_t>(lane)].depths()) {
      depths.push_back({source, static_cast<Lane>(lane), depth});
    }
  }
  return depths;
}

}  // namespace

std::unique_ptr<TransportFabric> make_inproc_fabric(int num_pes) {
  if (num_pes < 1) {
    throw std::invalid_argument(
        "in-process transport fabric needs at least one PE, got " +
        std::to_string(num_pes));
  }
  return std::make_unique<InprocFabric>(num_pes);
}

}  // namespace kappa
