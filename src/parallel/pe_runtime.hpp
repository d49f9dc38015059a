/// \file pe_runtime.hpp
/// \brief SPMD runtime over a pluggable transport: ranks as PEs, a
/// Transport as the interconnect.
///
/// This module substitutes the paper's MPI layer (200-node InfiniBand
/// cluster): an SPMD program is a function executed once per rank, each
/// with a seeded private RNG stream, blocking point-to-point messaging, a
/// barrier, and the collectives KaPPa needs (all-reduce, broadcast,
/// all-gather). The physical interconnect is behind the Transport
/// interface (transport.hpp): the default in-process fabric hosts all
/// ranks as threads of one process; the TCP fabric spans processes, one
/// rank each. The collectives are generic algorithms over transport
/// point-to-point — every backend exchanges the identical words in the
/// identical order, so the partition is bit-identical across backends.
///
/// Communication volume counters stand in for the wire so scalability
/// experiments can report the machine-independent communication shape
/// alongside wall time; the TCP backend additionally measures real
/// socket bytes (CommStats::wire_bytes_*).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "parallel/comm_stats.hpp"
#include "parallel/transport.hpp"
#include "util/random.hpp"

namespace kappa {

/// Handle a PE's code receives: identifies the PE and mediates all
/// communication. Mirrors the shape of an MPI communicator + rank.
class PEContext {
 public:
  /// Binds the context to one rank's transport endpoint. \p seed derives
  /// the per-rank RNG stream (identical derivation on every backend).
  PEContext(Transport& transport, std::uint64_t seed);

  /// This PE's rank in [0, size()).
  [[nodiscard]] int rank() const { return rank_; }

  /// Number of PEs (across all processes of the run).
  [[nodiscard]] int size() const { return transport_.size(); }

  /// Private, deterministic RNG stream ("each with a different seed for
  /// the random number generator", §4).
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Sends a word buffer to \p dest (non-blocking, buffered).
  void send(int dest, std::vector<std::uint64_t> payload);

  /// Blocks until a message from \p source arrives. Every receive names
  /// its source: there is no any-source receive, so arrival order across
  /// sources can never reach the caller. Throws TransportError when the
  /// backend reports a dead peer or an exceeded receive deadline, and
  /// std::invalid_argument for a negative source.
  [[nodiscard]] Message receive(int source);

  /// Non-blocking receive from \p source.
  [[nodiscard]] std::optional<Message> try_receive(int source);

  /// Synchronizes all PEs.
  void barrier();

  /// Sum of one value over all PEs (returned on every PE).
  [[nodiscard]] std::uint64_t all_reduce_sum(std::uint64_t value);

  /// Elementwise sum of a fixed-length vector over all PEs (every PE must
  /// contribute the same length). The small-vector reduction behind the
  /// per-block weight sums of the distributed hierarchy's uncoarsening
  /// projection (MPI_Allreduce in the paper's terms).
  [[nodiscard]] std::vector<std::uint64_t> all_reduce_sum_vec(
      std::vector<std::uint64_t> values);

  /// Maximum of one value over all PEs.
  [[nodiscard]] std::uint64_t all_reduce_max(std::uint64_t value);

  /// Every PE contributes one value; all PEs receive the full vector. A
  /// peer payload of another length than one word raises TransportError.
  [[nodiscard]] std::vector<std::uint64_t> all_gather(std::uint64_t value);

  /// Variable-length all-gather: every PE contributes a word buffer; all
  /// PEs receive every buffer, indexed by rank. The irregular collective
  /// behind the per-level contraction-map exchange and the moved-node
  /// deltas of SPMD refinement (MPI_Allgatherv in the paper's terms).
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> all_gather_vectors(
      std::vector<std::uint64_t> payload);

  /// Root's buffer is distributed to every PE.
  [[nodiscard]] std::vector<std::uint64_t> broadcast(
      const std::vector<std::uint64_t>& payload, int root);

  /// This rank's counter record since the context was created (one run):
  /// the communication counters this context keeps, with the endpoint's
  /// wire bytes and heartbeats taken against the run-start baselines,
  /// and whatever the phases counted into record().
  [[nodiscard]] RankCounters counters() const;

  /// The record the SPMD phases count into (shipping, memory, matching,
  /// idle rounds); its wire and heartbeat fields are filled by counters().
  [[nodiscard]] RankCounters& record() { return record_; }

  /// Bytes this rank's transport endpoint has put on / taken off the
  /// physical wire so far (endpoint-lifetime totals, zero on the
  /// in-process backend; counters() reports this run's share).
  [[nodiscard]] std::uint64_t wire_bytes_sent() const;
  [[nodiscard]] std::uint64_t wire_bytes_received() const;

  // --- kappa-watch forwarders (observer-only) ---------------------------
  // The watch layer (parallel/watch.cpp) is the only caller; algorithm
  // layers are forbidden to touch these (lint rule
  // heartbeat-lane-isolation). All of them are thread-safe against the
  // rank thread — they read transport-internal atomics/mutex state and
  // never touch the modeled CommStats.

  /// Starts publishing \p board to peers (heartbeat frames on TCP, board
  /// registry in-process). \p board must outlive disable_watch().
  void enable_watch(const ProgressBoard* board, int heartbeat_interval_ms);
  /// Stops publishing; joins the backend's heartbeat thread if any.
  void disable_watch();
  /// Latest liveness knowledge about \p peer (empty: nothing heard yet).
  [[nodiscard]] std::optional<PeerHealth> peer_health(int peer) const;
  /// Inbound queue depths per (source, lane) of this rank's endpoint.
  [[nodiscard]] std::vector<LaneQueueDepth> queue_depths() const;
  /// Heartbeat frames / words this endpoint sent (lifetime totals, like
  /// wire_bytes_*; counters() reports this run's share).
  [[nodiscard]] std::uint64_t heartbeat_frames_sent() const;
  [[nodiscard]] std::uint64_t heartbeat_words_sent() const;

  /// Attributes subsequent point-to-point sends to the halo-exchange
  /// counters of coarsening level \p level (see CommStats::halo_per_level);
  /// pass -1 to stop attributing. The totals always count everything.
  void set_halo_level(int level) { halo_level_ = level; }

 private:
  /// Receive on the collective lane, idle time charged to
  /// CommStats::collective_idle_ns.
  [[nodiscard]] Message collective_receive(int source);

  Transport& transport_;
  int rank_;
  Rng rng_;
  RankCounters record_;
  int halo_level_ = -1;
  // The endpoint's lifetime counters when this run started.
  std::uint64_t wire_sent_base_;
  std::uint64_t wire_received_base_;
  std::uint64_t heartbeat_frames_base_;
  std::uint64_t heartbeat_words_base_;
};

/// Runs SPMD programs over a transport fabric: one PE per rank hosted in
/// this process (all of them on the in-process fabric, exactly one on the
/// TCP fabric — the remaining ranks run the same program in their own
/// processes).
class PERuntime {
 public:
  /// Creates the default in-process runtime with \p num_pes PEs. \p seed
  /// derives the per-PE RNG streams. Throws std::invalid_argument for
  /// num_pes < 1.
  explicit PERuntime(int num_pes, std::uint64_t seed = 1);

  /// Creates a runtime over an explicit fabric (e.g. make_tcp_fabric).
  explicit PERuntime(std::unique_ptr<TransportFabric> fabric,
                     std::uint64_t seed = 1);

  ~PERuntime();

  /// Executes \p program on every locally hosted PE (one thread each) and
  /// joins. Returns each PE's PEContext::counters() at the end of its
  /// program, indexed by *global* rank; only locally hosted slots are
  /// populated (aggregate with fold_counters()). When a PE's program
  /// throws, the fabric is failed (TransportFabric::fail_local()): every
  /// other local PE blocked in, or later entering, a receive or barrier
  /// raises TransportError and unwinds, and run() rethrows the first
  /// original exception once all local PEs finished — never a consequent
  /// TransportError. The fabric stays failed: later runs on this runtime
  /// throw TransportError at their first receive or barrier. No program starts
  /// before every local thread has: if a thread fails to start, the
  /// started ones exit without running, are joined, and the start error
  /// (std::system_error) is rethrown.
  std::vector<RankCounters> run(
      const std::function<void(PEContext&)>& program);

  /// Total PEs of the run, across all processes.
  [[nodiscard]] int num_pes() const;

  /// Lowest rank hosted in this process: the rank that owns process-wide
  /// side effects (result materialization, output files). Rank 0 for the
  /// in-process fabric; this process's rank for TCP.
  [[nodiscard]] int primary_rank() const;

  /// Backend name of the underlying fabric ("inproc", "tcp").
  [[nodiscard]] const char* backend() const;

 private:
  std::unique_ptr<TransportFabric> fabric_;
  std::uint64_t seed_;
};

}  // namespace kappa
