#include "parallel/pe_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>

#include "parallel/transport_inproc.hpp"
#include "util/trace.hpp"

namespace kappa {

PEContext::PEContext(Transport& transport, std::uint64_t seed)
    : transport_(transport),
      rank_(transport.rank()),
      rng_(Rng(seed).fork(rank_)),
      wire_sent_base_(transport.wire_bytes_sent()),
      wire_received_base_(transport.wire_bytes_received()),
      heartbeat_frames_base_(transport.heartbeat_frames_sent()),
      heartbeat_words_base_(transport.heartbeat_words_sent()) {}

RankCounters PEContext::counters() const {
  RankCounters counters = record_;
  CommStats& comm = counters.comm;
  comm.wire_bytes_sent = transport_.wire_bytes_sent() - wire_sent_base_;
  comm.wire_bytes_received =
      transport_.wire_bytes_received() - wire_received_base_;
  comm.heartbeat_frames_sent =
      transport_.heartbeat_frames_sent() - heartbeat_frames_base_;
  comm.heartbeat_words_sent =
      transport_.heartbeat_words_sent() - heartbeat_words_base_;
  return counters;
}

void PEContext::send(int dest, std::vector<std::uint64_t> payload) {
  ++record_.comm.messages_sent;
  record_.comm.words_sent += payload.size();
  if (halo_level_ >= 0) {
    const std::size_t level = static_cast<std::size_t>(halo_level_);
    if (record_.comm.halo_per_level.size() <= level) {
      record_.comm.halo_per_level.resize(level + 1);
    }
    ++record_.comm.halo_per_level[level].messages;
    record_.comm.halo_per_level[level].words += payload.size();
  }
  KAPPA_TRACE_SPAN("net.send", static_cast<std::uint64_t>(dest),
                   payload.size() * sizeof(std::uint64_t));
  transport_.send(dest, Lane::kApp, std::move(payload));
}

Message PEContext::receive(int source) {
  // Only time the genuinely blocking path: a receive that is satisfied
  // immediately is work, not idleness.
  if (auto ready = transport_.try_receive(source, Lane::kApp)) {
    ++record_.comm.messages_received;
    record_.comm.words_received += ready->payload.size();
    return std::move(*ready);
  }
  const std::uint64_t start = trace_now_ns();
  Message msg = transport_.receive(source, Lane::kApp);
  const std::uint64_t end = trace_now_ns();
  record_.comm.recv_idle_ns += end - start;
  if (TraceRecorder* recorder = thread_trace()) {
    recorder->span("net.recv.wait", start, end,
                   static_cast<std::uint64_t>(msg.source),
                   msg.payload.size() * sizeof(std::uint64_t));
  }
  ++record_.comm.messages_received;
  record_.comm.words_received += msg.payload.size();
  return msg;
}

std::optional<Message> PEContext::try_receive(int source) {
  auto msg = transport_.try_receive(source, Lane::kApp);
  if (msg) {
    ++record_.comm.messages_received;
    record_.comm.words_received += msg->payload.size();
  }
  return msg;
}

void PEContext::barrier() {
  ++record_.comm.barriers;
  const std::uint64_t start = trace_now_ns();
  transport_.barrier();
  const std::uint64_t end = trace_now_ns();
  record_.comm.collective_idle_ns += end - start;
  if (TraceRecorder* recorder = thread_trace()) {
    recorder->span("net.barrier", start, end);
  }
}

std::uint64_t PEContext::wire_bytes_sent() const {
  return transport_.wire_bytes_sent();
}

std::uint64_t PEContext::wire_bytes_received() const {
  return transport_.wire_bytes_received();
}

void PEContext::enable_watch(const ProgressBoard* board,
                             int heartbeat_interval_ms) {
  transport_.enable_watch(board, heartbeat_interval_ms);
}

void PEContext::disable_watch() { transport_.disable_watch(); }

std::optional<PeerHealth> PEContext::peer_health(int peer) const {
  return transport_.peer_health(peer);
}

std::vector<LaneQueueDepth> PEContext::queue_depths() const {
  return transport_.queue_depths();
}

std::uint64_t PEContext::heartbeat_frames_sent() const {
  return transport_.heartbeat_frames_sent();
}

std::uint64_t PEContext::heartbeat_words_sent() const {
  return transport_.heartbeat_words_sent();
}

Message PEContext::collective_receive(int source) {
  if (auto ready = transport_.try_receive(source, Lane::kCollective)) {
    ++record_.comm.messages_received;
    record_.comm.words_received += ready->payload.size();
    return std::move(*ready);
  }
  const std::uint64_t start = trace_now_ns();
  Message msg = transport_.receive(source, Lane::kCollective);
  const std::uint64_t end = trace_now_ns();
  record_.comm.collective_idle_ns += end - start;
  if (TraceRecorder* recorder = thread_trace()) {
    recorder->span("net.collective.wait", start, end,
                   static_cast<std::uint64_t>(msg.source),
                   msg.payload.size() * sizeof(std::uint64_t));
  }
  ++record_.comm.messages_received;
  record_.comm.words_received += msg.payload.size();
  return msg;
}

std::uint64_t PEContext::all_reduce_sum(std::uint64_t value) {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : all_gather(value)) sum += v;
  return sum;
}

std::vector<std::uint64_t> PEContext::all_reduce_sum_vec(
    std::vector<std::uint64_t> values) {
  const std::size_t len = values.size();
  std::vector<std::uint64_t> sum(len, 0);
  for (const auto& contribution : all_gather_vectors(std::move(values))) {
    if (contribution.size() != len) {
      throw TransportError("all_reduce_sum_vec: unequal contributions");
    }
    for (std::size_t i = 0; i < len; ++i) sum[i] += contribution[i];
  }
  return sum;
}

std::uint64_t PEContext::all_reduce_max(std::uint64_t value) {
  std::uint64_t result = 0;
  for (const std::uint64_t v : all_gather(value)) {
    result = std::max(result, v);
  }
  return result;
}

// The collectives below are generic flat exchanges over transport
// point-to-point on the collective lane: rank r sends to (r + offset) mod
// p and receives from (r - offset) mod p for offset = 1..p-1, the same
// deterministic order on every backend. The CommStats charging is the
// wire *model* — one message and one payload copy per destination rank —
// which for these flat algorithms coincides exactly with the physical
// sends, so the pinned counter semantics are unchanged.

std::vector<std::uint64_t> PEContext::all_gather(std::uint64_t value) {
  const int p = size();
  const std::uint64_t destinations = static_cast<std::uint64_t>(p - 1);
  ++record_.comm.barriers;  // a collective is a synchronization point
  record_.comm.messages_sent += destinations;
  record_.comm.words_sent += destinations;
  std::vector<std::uint64_t> result(static_cast<std::size_t>(p));
  result[static_cast<std::size_t>(rank_)] = value;
  for (int offset = 1; offset < p; ++offset) {
    transport_.send((rank_ + offset) % p, Lane::kCollective, {value});
  }
  for (int offset = 1; offset < p; ++offset) {
    const int source = (rank_ - offset + p) % p;
    const Message msg = collective_receive(source);
    if (msg.payload.size() != 1) {
      throw TransportError("all_gather: a peer's payload is not one word");
    }
    result[static_cast<std::size_t>(source)] = msg.payload[0];
  }
  return result;
}

std::vector<std::vector<std::uint64_t>> PEContext::all_gather_vectors(
    std::vector<std::uint64_t> payload) {
  const int p = size();
  const std::uint64_t destinations = static_cast<std::uint64_t>(p - 1);
  ++record_.comm.barriers;  // a collective is a synchronization point
  record_.comm.messages_sent += destinations;
  record_.comm.words_sent += destinations * payload.size();
  std::vector<std::vector<std::uint64_t>> result(static_cast<std::size_t>(p));
  for (int offset = 1; offset < p; ++offset) {
    transport_.send((rank_ + offset) % p, Lane::kCollective, payload);
  }
  result[static_cast<std::size_t>(rank_)] = std::move(payload);
  for (int offset = 1; offset < p; ++offset) {
    const int source = (rank_ - offset + p) % p;
    result[static_cast<std::size_t>(source)] =
        std::move(collective_receive(source).payload);
  }
  return result;
}

std::vector<std::uint64_t> PEContext::broadcast(
    const std::vector<std::uint64_t>& payload, int root) {
  const int p = size();
  ++record_.comm.barriers;  // a collective is a synchronization point
  if (rank_ == root) {
    // Only the root puts data on the wire: one copy per destination rank.
    const std::uint64_t destinations = static_cast<std::uint64_t>(p - 1);
    record_.comm.messages_sent += destinations;
    record_.comm.words_sent += destinations * payload.size();
    for (int offset = 1; offset < p; ++offset) {
      transport_.send((rank_ + offset) % p, Lane::kCollective, payload);
    }
    return payload;
  }
  return collective_receive(root).payload;
}

PERuntime::PERuntime(int num_pes, std::uint64_t seed)
    : fabric_(make_inproc_fabric(num_pes)), seed_(seed) {}

PERuntime::PERuntime(std::unique_ptr<TransportFabric> fabric,
                     std::uint64_t seed)
    : fabric_(std::move(fabric)), seed_(seed) {
  if (!fabric_) {
    throw std::invalid_argument("PERuntime: null transport fabric");
  }
}

PERuntime::~PERuntime() = default;

int PERuntime::num_pes() const { return fabric_->size(); }

int PERuntime::primary_rank() const {
  const std::vector<int> locals = fabric_->local_ranks();
  return *std::min_element(locals.begin(), locals.end());
}

const char* PERuntime::backend() const { return fabric_->name(); }

std::vector<RankCounters> PERuntime::run(
    const std::function<void(PEContext&)>& program) {
  const std::vector<int> locals = fabric_->local_ranks();
  std::vector<RankCounters> stats(static_cast<std::size_t>(num_pes()));
  std::vector<std::exception_ptr> errors(locals.size());
  // Start gate: no program runs before every thread has started. A rank
  // that ran ahead of a failed start would wait in its first collective
  // for a rank that never comes, and could never be joined.
  std::latch start(1);
  std::atomic<bool> aborted{false};
  // The local rank whose program threw first: its exception is the
  // original one. The fabric is failed right after, so the errors of the
  // ranks it leaves blocked are consequences, never rethrown.
  std::atomic<int> first_error{-1};
  std::vector<std::thread> threads;
  threads.reserve(locals.size());
  try {
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const int rank = locals[i];
      threads.emplace_back([this, &program, &stats, &errors, &start,
                            &aborted, &first_error, i, rank]() {
        start.wait();
        if (aborted.load()) return;
        try {
          PEContext context(fabric_->endpoint(rank), seed_);
          program(context);
          stats[static_cast<std::size_t>(rank)] = context.counters();
        } catch (...) {
          errors[i] = std::current_exception();
          int none = -1;
          first_error.compare_exchange_strong(none, static_cast<int>(i));
          fabric_->fail_local("rank " + std::to_string(rank) + " failed");
        }
      });
    }
  } catch (...) {
    aborted.store(true);
    start.count_down();
    for (auto& thread : threads) thread.join();
    throw;
  }
  start.count_down();
  for (auto& thread : threads) thread.join();
  if (first_error.load() >= 0) std::rethrow_exception(errors[first_error]);
  return stats;
}

}  // namespace kappa
