/// \file transport.hpp
/// \brief The pluggable transport layer under the PE runtime.
///
/// The paper ran KaPPa over MPI on a 200-node InfiniBand cluster; this
/// reproduction substituted threads-as-PEs. Every per-rank structure is
/// now sub-linear, so nothing forces single-process execution any more —
/// this interface abstracts the interconnect so one SPMD run can span
/// threads (transport_inproc.hpp, the default, bit-identical to the
/// original thread runtime) or processes connected by TCP sockets
/// (transport_tcp.hpp), and eventually machines.
///
/// The contract is deliberately minimal: point-to-point send / receive /
/// try_receive on two logical lanes plus a barrier. Everything else the
/// algorithms use — the collectives (all-reduce, all-gather, broadcast)
/// — is layered *above* this interface as generic algorithms in
/// PEContext (pe_runtime.cpp), so every backend runs the identical
/// protocol, exchanges the identical words, and produces the identical
/// partition from the same seed.
///
/// Lanes keep collective traffic and application point-to-point traffic
/// from being confused: a collective implemented as p2p messages must
/// never satisfy an application receive(source) and vice versa. Within
/// one (source, lane) pair delivery is FIFO, and that is the only order a
/// backend guarantees: every receive names its source, so the relative
/// arrival order of different sources is never observable. The SPMD
/// discipline (every rank executes the same global sequence of collective
/// operations) makes positional matching on the collective lane sound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/progress.hpp"

namespace kappa {

/// A message: source rank plus flat 64-bit word payload — the same
/// "serialize everything into buffers" discipline an MPI implementation
/// enforces, which keeps the algorithms honest about what they would
/// really communicate.
struct Message {
  int source = -1;
  std::vector<std::uint64_t> payload;
};

/// Failure surfaced by the transport layer: a peer died (connection
/// closed without the shutdown handshake), a blocking receive exceeded
/// its configured deadline, or the rendezvous could not be established.
/// A dead or hung peer must become one of these, never a silent hang.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Logical lanes multiplexed over one rank-to-rank link.
enum class Lane : std::uint8_t {
  kApp = 0,         ///< application point-to-point traffic (PEContext::send)
  kCollective = 1,  ///< collective-algorithm traffic (barrier, gathers)
  /// kappa-watch heartbeat frames: observer-only liveness traffic owned
  /// by the transport itself (enable_watch). Algorithm layers never send
  /// or receive on this lane — enforced by kappa-lint
  /// (heartbeat-lane-isolation) — so heartbeats can never satisfy an
  /// application or collective receive and the partition stays
  /// byte-identical with watch on or off.
  kHeartbeat = 2,
};

inline constexpr int kNumLanes = 3;

/// What this endpoint knows about one peer's liveness — fed by heartbeat
/// frames on the TCP backend and by direct board reads in-process.
struct PeerHealth {
  /// The transport saw the peer's connection die without the shutdown
  /// handshake. A dead peer also fails pending receives (TransportError).
  bool dead = false;
  /// The peer's last published progress word.
  ProgressSnapshot progress;
  /// trace_now_ns() when evidence of the peer last arrived here (a
  /// heartbeat frame; board-publication time in-process).
  std::uint64_t last_heard_ns = 0;
  /// trace_now_ns() when the peer's own progress last advanced — the
  /// number that separates *stalled* (connection up, progress frozen)
  /// from merely quiet.
  std::uint64_t last_change_ns = 0;
};

/// Queue depth of one (source, lane) mailbox — stall-report material:
/// a deep queue names the peer the wedged rank is not draining.
struct LaneQueueDepth {
  int source = -1;
  Lane lane = Lane::kApp;
  std::size_t depth = 0;
};

/// One rank's endpoint into the interconnect of a run. Thread ownership:
/// exactly one PE thread drives send/receive/barrier; backends may use
/// internal threads (e.g. socket readers) but the endpoint itself is not
/// a shared handle.
class Transport {
 public:
  virtual ~Transport() = default;

  /// This endpoint's rank in [0, size()).
  [[nodiscard]] virtual int rank() const = 0;

  /// Number of ranks across the whole run (all processes).
  [[nodiscard]] virtual int size() const = 0;

  /// Sends a word buffer to \p dest on \p lane (non-blocking, buffered).
  virtual void send(int dest, Lane lane, std::vector<std::uint64_t> payload) = 0;

  /// Blocks until a message from \p source (a rank, >= 0) arrives on
  /// \p lane. Throws TransportError when the peer died or the backend's
  /// receive deadline passed — a failure is reported, never a hang — and
  /// std::invalid_argument for a negative source.
  [[nodiscard]] virtual Message receive(int source, Lane lane) = 0;

  /// Non-blocking receive; empty optional if nothing matching is queued.
  /// Still throws TransportError once the transport has failed.
  [[nodiscard]] virtual std::optional<Message> try_receive(int source,
                                                           Lane lane) = 0;

  /// Synchronizes all ranks of the run: no rank returns before every rank
  /// has entered.
  virtual void barrier() = 0;

  /// Bytes this endpoint actually put on / took off the physical wire
  /// (frame headers included) over its lifetime. Zero for backends with
  /// no wire (in-process); the TCP backend measures real socket traffic,
  /// the counterpart to the modeled CommStats word counters.
  [[nodiscard]] virtual std::uint64_t wire_bytes_sent() const { return 0; }
  [[nodiscard]] virtual std::uint64_t wire_bytes_received() const { return 0; }

  // --- kappa-watch hooks (observer-only; defaults are no-ops) -----------
  // The watch layer (parallel/watch.cpp) drives these through PEContext;
  // algorithm layers never touch them (lint rule
  // heartbeat-lane-isolation).

  /// Starts publishing \p board to peers: the TCP backend spawns a
  /// heartbeat thread that sends the packed progress word to every peer
  /// on Lane::kHeartbeat each \p heartbeat_interval_ms; the in-process
  /// backend registers the board so peers read it directly. \p board must
  /// outlive disable_watch().
  virtual void enable_watch(const ProgressBoard* board,
                            int heartbeat_interval_ms) {
    (void)board;
    (void)heartbeat_interval_ms;
  }

  /// Stops heartbeats / unregisters the board; joins any internal
  /// heartbeat thread. Safe to call when watch was never enabled.
  virtual void disable_watch() {}

  /// Latest liveness knowledge about \p peer, or empty when this backend
  /// has none (watch off, or no heartbeat heard yet).
  [[nodiscard]] virtual std::optional<PeerHealth> peer_health(
      int peer) const {
    (void)peer;
    return std::nullopt;
  }

  /// Current per-(source, lane) inbound queue depths of this endpoint.
  [[nodiscard]] virtual std::vector<LaneQueueDepth> queue_depths() const {
    return {};
  }

  /// Heartbeat frames / payload words this endpoint put on the wire over
  /// its lifetime — the measured cost of the watch layer (included in
  /// wire_bytes_sent(), broken out here). Zero off the TCP backend.
  [[nodiscard]] virtual std::uint64_t heartbeat_frames_sent() const {
    return 0;
  }
  [[nodiscard]] virtual std::uint64_t heartbeat_words_sent() const {
    return 0;
  }
};

/// A fabric connects the ranks of one run and hands out the per-rank
/// endpoints hosted in this process: the in-process fabric hosts all of
/// them, a socket fabric exactly one. PERuntime::run executes the SPMD
/// program once per local rank; the same program runs in the other
/// processes of a multi-process fabric.
class TransportFabric {
 public:
  virtual ~TransportFabric() = default;

  /// Total ranks of the run, across all processes.
  [[nodiscard]] virtual int size() const = 0;

  /// The ranks hosted in this process, ascending.
  [[nodiscard]] virtual std::vector<int> local_ranks() const = 0;

  /// Endpoint of a locally hosted rank.
  [[nodiscard]] virtual Transport& endpoint(int rank) = 0;

  /// Human-readable backend name ("inproc", "tcp") for logs and results.
  [[nodiscard]] virtual const char* name() const = 0;

  /// Called by PERuntime::run, once per local rank whose program threw:
  /// every receive and barrier of the other local ranks — blocked now or
  /// entered later — raises TransportError with \p reason instead of
  /// waiting for the failed rank. The fabric stays failed. The default
  /// does nothing: a backend that hosts one rank per process needs no
  /// local abort, its peers learn of the failure from the connection.
  virtual void fail_local(const std::string& reason) { (void)reason; }
};

}  // namespace kappa
