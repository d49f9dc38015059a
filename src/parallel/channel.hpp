/// \file channel.hpp
/// \brief Blocking message channels: the mailbox shared by the transport
/// backends.
///
/// Both transport backends (transport_inproc.hpp, transport_tcp.hpp)
/// deliver incoming messages through a Mailbox: send() enqueues a tagged
/// word buffer at the destination, receive() blocks until a message from
/// the requested source arrives. Payloads are flat 64-bit word vectors —
/// the same "serialize everything into buffers" discipline an MPI
/// implementation enforces.
///
/// Messages are kept in one FIFO queue *per source*, and every pop names
/// its source: a pop is O(1) at the head of that source's queue. There is
/// no any-source receive, so the order in which different sources'
/// messages arrive is invisible to the receiver — the property that
/// keeps the SPMD partition independent of thread and network timing.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/transport.hpp"

namespace kappa {

/// One PE's mailbox. Thread-safe multi-producer, single-consumer.
///
/// Lifecycle hooks for multi-process transports: finish_source() marks a
/// peer as cleanly shut down (queued messages still drain; popping beyond
/// them is a protocol error and throws), fail() poisons the whole mailbox
/// (a peer died — every subsequent pop throws immediately, so the failure
/// surfaces instead of hanging). The in-process backend never calls
/// either, preserving the original block-forever semantics.
class Mailbox {
 public:
  /// Enqueues a message (called by any sending thread). The source is a
  /// rank (>= 0): source ranks index the per-source queues.
  void push(Message message) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      source_queue(message.source).queue.push_back(std::move(message.payload));
    }
    available_.notify_all();
  }

  /// Pre-creates the queue of \p source so that an all-sources-finished
  /// condition can be detected even for peers that never sent anything.
  void register_source(int source) {
    std::lock_guard<std::mutex> lock(mutex_);
    (void)source_queue(source);
  }

  /// Blocks until a message from \p source arrives, then removes and
  /// returns it. Throws TransportError if the mailbox failed or the
  /// source can never deliver again, and std::invalid_argument for a
  /// negative source (there is no any-source receive).
  Message pop(int source) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (std::optional<Message> msg = take_locked(source)) {
        return std::move(*msg);
      }
      available_.wait(lock);
    }
  }

  /// pop() with a deadline: empty optional once \p deadline passes with
  /// no matching message. Still throws on failure / finished sources.
  std::optional<Message> pop_until(
      int source, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (std::optional<Message> msg = take_locked(source)) {
        return msg;
      }
      if (available_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        return take_locked(source);
      }
    }
  }

  /// Non-blocking variant; empty optional if no matching message queued.
  /// Throws like pop().
  std::optional<Message> try_pop(int source) {
    std::lock_guard<std::mutex> lock(mutex_);
    return take_locked(source);
  }

  /// Marks \p source as cleanly shut down: its queued messages remain
  /// poppable, but a pop finding it empty afterwards throws instead of
  /// waiting for a message that can never come.
  void finish_source(int source) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      source_queue(source).finished = true;
    }
    available_.notify_all();
  }

  /// Poisons the mailbox: every subsequent pop throws TransportError with
  /// \p reason (first failure wins). Queued messages are unreachable — a
  /// run whose peer died cannot complete, so surfacing the error beats
  /// draining stale traffic.
  void fail(std::string reason) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!failed_) {
        failed_ = true;
        fail_reason_ = std::move(reason);
      }
    }
    available_.notify_all();
  }

  /// Number of queued messages (for tests).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const SourceQueue& sq : sources_) total += sq.queue.size();
    return total;
  }

  /// Per-source queue depths, (source, depth) ascending by source — the
  /// stall-report view: a deep queue names the peer whose traffic this
  /// rank has stopped draining. Registered-but-empty sources report 0.
  [[nodiscard]] std::vector<std::pair<int, std::size_t>> depths() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<int, std::size_t>> result;
    result.reserve(sources_.size());
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      result.emplace_back(static_cast<int>(s), sources_[s].queue.size());
    }
    return result;
  }

 private:
  struct SourceQueue {
    std::deque<std::vector<std::uint64_t>> queue;
    bool finished = false;
  };

  SourceQueue& source_queue(int source) {
    const std::size_t index = static_cast<std::size_t>(source);
    if (sources_.size() <= index) sources_.resize(index + 1);
    return sources_[index];
  }

  // Removes and returns the head of \p source's queue, or nullopt when
  // the caller must keep waiting. Caller holds mutex_.
  std::optional<Message> take_locked(int source) {
    if (source < 0) {
      throw std::invalid_argument("receive needs a source rank, got " +
                                  std::to_string(source));
    }
    if (failed_) throw TransportError(fail_reason_);
    const std::size_t index = static_cast<std::size_t>(source);
    if (index < sources_.size() && !sources_[index].queue.empty()) {
      Message msg{source, std::move(sources_[index].queue.front())};
      sources_[index].queue.pop_front();
      return msg;
    }
    if (index < sources_.size() && sources_[index].finished) {
      throw TransportError("receive from rank " + std::to_string(source) +
                           ": peer already shut down cleanly with no "
                           "matching message queued");
    }
    return std::nullopt;
  }

  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::vector<SourceQueue> sources_;
  bool failed_ = false;
  std::string fail_reason_;
};

}  // namespace kappa
