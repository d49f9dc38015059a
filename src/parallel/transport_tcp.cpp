#include "parallel/transport_tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/channel.hpp"
#include "util/trace.hpp"

namespace kappa {

namespace {

using Clock = std::chrono::steady_clock;

/// Protocol constants. The magic doubles as an endianness/format canary:
/// a peer from a different build or byte order fails the handshake
/// instead of corrupting the word stream.
constexpr std::uint64_t kMagic = 0x6b6150506154llu;  // "kaPPaT"
constexpr std::uint64_t kProtocolVersion = 1;

/// Frame tags on the wire; the first two mirror Lane.
constexpr std::uint64_t kFrameApp = 0;
constexpr std::uint64_t kFrameCollective = 1;
constexpr std::uint64_t kFrameBye = 2;
/// kappa-watch heartbeat (Lane::kHeartbeat): a packed ProgressBoard
/// snapshot, sent by the transport's own heartbeat thread, delivered to
/// the receiver's peer-health table — never to a mailbox, so it can
/// never satisfy an application or collective receive.
constexpr std::uint64_t kFrameHeartbeat = 3;

/// How often a blocked receiver-thread read wakes up to check the stop
/// flag, and therefore the upper bound on teardown latency per peer.
constexpr int kReceiverPollMs = 200;

/// Largest piece of a frame payload a receiver thread allocates and reads
/// at once (512 KiB): the buffer grows only as payload bytes arrive, so a
/// hostile length prefix cannot allocate ahead of the data.
constexpr std::size_t kPayloadChunkWords = std::size_t{1} << 16;

/// After local teardown begins, how long a receiver thread waits for the
/// peer's BYE/EOF before abandoning the connection. Our own BYE is
/// already on the wire by then, so an abandoned peer still shuts down
/// cleanly when it gets around to closing.
constexpr int kTeardownGraceMs = 1000;

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
}

/// Writes the whole buffer or throws.
void write_full(int fd, const void* data, std::size_t bytes,
                const std::string& what) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(what + " (send)");
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
}

enum class ReadStatus { kOk, kEof, kTimeout };

/// Reads exactly \p bytes unless the connection ends cleanly *before the
/// first byte* (kEof) or nothing arrives within the socket's SO_RCVTIMEO
/// while nothing has been read yet (kTimeout). A connection dying in the
/// middle of a frame is an error, not an EOF. A mid-read SO_RCVTIMEO
/// expiry keeps waiting (the sender committed to the frame by starting
/// it) unless \p abort says to give up — that hook bounds teardown and
/// rendezvous deadlines.
ReadStatus read_full(int fd, void* data, std::size_t bytes,
                     const std::string& what,
                     const std::function<bool()>& abort = {}) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::recv(fd, p + done, bytes - done, 0);
    if (n == 0) {
      if (done == 0) return ReadStatus::kEof;
      throw TransportError(what + ": connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (done == 0) return ReadStatus::kTimeout;
        if (abort && abort()) {
          throw TransportError(what + ": gave up waiting mid-frame");
        }
        continue;
      }
      throw_errno(what + " (recv)");
    }
    done += static_cast<std::size_t>(n);
  }
  return ReadStatus::kOk;
}

/// read_full with an absolute deadline instead of the socket timeout:
/// kOk or kEof, throws once \p deadline passes. The socket must already
/// carry a finite SO_RCVTIMEO so the poll loop can observe the deadline.
ReadStatus read_full_deadline(int fd, void* data, std::size_t bytes,
                              const std::string& what,
                              Clock::time_point deadline) {
  const auto expired = [deadline] { return Clock::now() >= deadline; };
  while (true) {
    const ReadStatus status = read_full(fd, data, bytes, what, expired);
    if (status != ReadStatus::kTimeout) return status;
    if (expired()) {
      throw TransportError(what + ": nothing received within the deadline");
    }
  }
}

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(std::uint32_t ip_host_order, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip_host_order);
  addr.sin_port = htons(port);
  return addr;
}

std::uint32_t resolve_ipv4(const std::string& host) {
  in_addr parsed{};
  if (::inet_pton(AF_INET, host.c_str(), &parsed) != 1) {
    throw TransportError("tcp transport: '" + host +
                         "' is not a dotted IPv4 address");
  }
  return ntohl(parsed.s_addr);
}

/// Binds + listens; returns (fd, bound port).
std::pair<int, std::uint16_t> make_listen_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("tcp transport: socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(INADDR_ANY, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("tcp transport: bind port " + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw_errno("tcp transport: getsockname");
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    throw_errno("tcp transport: listen");
  }
  return {fd, ntohs(addr.sin_port)};
}

/// Accepts one connection before \p deadline or throws.
int accept_with_deadline(int listen_fd, Clock::time_point deadline,
                         const std::string& what) {
  while (true) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ms = remaining_ms(deadline);
    const int ready = ::poll(&pfd, 1, std::max(ms, 1));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno(what + " (poll)");
    }
    if (ready > 0) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) return fd;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno(what + " (accept)");
    }
    if (ms == 0) {
      throw TransportError(what + ": no connection within the deadline");
    }
  }
}

/// Connects to \p addr, retrying with exponential backoff until
/// \p deadline (the peer's listener may not be up yet).
int connect_with_retry(const sockaddr_in& addr, Clock::time_point deadline,
                       const std::string& what) {
  int backoff_ms = 20;
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno(what + " (socket)");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    const int saved = errno;
    ::close(fd);
    if (saved != ECONNREFUSED && saved != ETIMEDOUT && saved != EINTR &&
        saved != ENETUNREACH && saved != EHOSTUNREACH) {
      errno = saved;
      throw_errno(what + " (connect)");
    }
    if (Clock::now() >= deadline) {
      throw TransportError(what + ": gave up after the connect deadline (" +
                           std::strerror(saved) + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min(backoff_ms, remaining_ms(deadline))));
    backoff_ms = std::min(backoff_ms * 2, 500);
  }
}

/// Rendezvous hello: {magic, version, rank, num_ranks, listen_port}.
struct Hello {
  std::uint64_t words[5];
};

Hello make_hello(int rank, int num_ranks, std::uint16_t listen_port) {
  return {{kMagic, kProtocolVersion, static_cast<std::uint64_t>(rank),
           static_cast<std::uint64_t>(num_ranks),
           static_cast<std::uint64_t>(listen_port)}};
}

void check_hello(const Hello& hello, int num_ranks,
                 const std::string& what) {
  if (hello.words[0] != kMagic) {
    throw TransportError(what + ": bad magic (foreign protocol, stale "
                                "peer, or mixed byte order)");
  }
  if (hello.words[1] != kProtocolVersion) {
    throw TransportError(what + ": protocol version mismatch");
  }
  if (hello.words[3] != static_cast<std::uint64_t>(num_ranks)) {
    throw TransportError(what + ": peer expects " +
                         std::to_string(hello.words[3]) +
                         " ranks, this run has " + std::to_string(num_ranks));
  }
  if (hello.words[2] >= hello.words[3]) {
    throw TransportError(what + ": peer rank out of range");
  }
}

/// One rank's endpoint over the socket mesh.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(const TcpOptions& options) : options_(options) {
    if (options.num_ranks < 1) {
      throw std::invalid_argument(
          "tcp transport needs at least one rank, got " +
          std::to_string(options.num_ranks));
    }
    if (options.rank < 0 || options.rank >= options.num_ranks) {
      throw std::invalid_argument(
          "tcp transport rank " + std::to_string(options.rank) +
          " outside [0, " + std::to_string(options.num_ranks) + ")");
    }
    fds_.assign(static_cast<std::size_t>(options.num_ranks), -1);
    peers_.assign(static_cast<std::size_t>(options.num_ranks), PeerSlot{});
    hb_ok_.assign(static_cast<std::size_t>(options.num_ranks), 1);
    send_mutexes_ = std::vector<std::mutex>(
        static_cast<std::size_t>(options.num_ranks));
    for (int q = 0; q < options.num_ranks; ++q) {
      if (q == options.rank) continue;
      for (Mailbox& inbox : inbox_) inbox.register_source(q);
    }
    establish_mesh();
    try {
      for (int q = 0; q < options.num_ranks; ++q) {
        if (q == options.rank) continue;
        receivers_.emplace_back([this, q] { receive_loop(q); });
      }
      // One full synchronization before handing the endpoint out: every
      // rank's mesh and receiver threads are live, so the first real
      // message can never race the rendezvous.
      barrier();
    } catch (...) {
      // A constructor that throws runs no destructor, and a joinable
      // std::thread member would std::terminate as it is destroyed: a
      // peer dying between the mesh and the barrier must surface as the
      // barrier's TransportError instead.
      stop_receivers();
      throw;
    }
  }

  ~TcpTransport() override {
    disable_watch();  // join the heartbeat thread before touching the fds
    const std::uint64_t bye[2] = {kFrameBye, 0};
    for (std::size_t q = 0; q < fds_.size(); ++q) {
      const int fd = fds_[q];
      if (fd < 0) continue;
      try {
        const std::lock_guard<std::mutex> lock(send_mutexes_[q]);
        write_full(fd, bye, sizeof bye, "bye");
      } catch (const TransportError&) {
        // The peer is already gone; nothing left to say.
      }
    }
    stop_receivers();
  }

  [[nodiscard]] int rank() const override { return options_.rank; }
  [[nodiscard]] int size() const override { return options_.num_ranks; }

  void send(int dest, Lane lane,
            std::vector<std::uint64_t> payload) override {
    const std::uint64_t header[2] = {
        lane == Lane::kApp ? kFrameApp : kFrameCollective, payload.size()};
    const int fd = fds_.at(static_cast<std::size_t>(dest));
    const std::string what =
        "tcp send to rank " + std::to_string(dest);
    {
      // The heartbeat thread shares this fd; the per-peer mutex keeps the
      // header+payload pair contiguous on the wire. Uncontended in the
      // unwatched case — one CAS against a ~microsecond syscall.
      const std::lock_guard<std::mutex> lock(
          send_mutexes_[static_cast<std::size_t>(dest)]);
      write_full(fd, header, sizeof header, what);
      if (!payload.empty()) {
        write_full(fd, payload.data(),
                   payload.size() * sizeof(std::uint64_t), what);
      }
    }
    bytes_sent_.fetch_add(sizeof header +
                              payload.size() * sizeof(std::uint64_t),
                          std::memory_order_relaxed);
  }

  [[nodiscard]] Message receive(int source, Lane lane) override {
    Mailbox& inbox = inbox_[static_cast<std::size_t>(lane)];
    if (options_.recv_timeout_ms <= 0) return inbox.pop(source);
    std::optional<Message> msg = inbox.pop_until(
        source,
        Clock::now() + std::chrono::milliseconds(options_.recv_timeout_ms));
    if (!msg) {
      throw TransportError(
          "tcp receive from rank " + std::to_string(source) +
          " timed out after " + std::to_string(options_.recv_timeout_ms) +
          " ms — peer hung, deadlocked, or fell behind the deadline");
    }
    return std::move(*msg);
  }

  [[nodiscard]] std::optional<Message> try_receive(int source,
                                                   Lane lane) override {
    return inbox_[static_cast<std::size_t>(lane)].try_pop(source);
  }

  /// Dissemination barrier over the collective lane: ceil(log2 p) rounds
  /// of one empty pulse each; when the last round completes, every rank
  /// has provably entered. Positional FIFO matching on the lane keeps
  /// overlapping barriers and gathers straight.
  void barrier() override {
    const int p = options_.num_ranks;
    for (int distance = 1; distance < p; distance <<= 1) {
      send((options_.rank + distance) % p, Lane::kCollective, {});
      (void)receive((options_.rank - distance + p) % p, Lane::kCollective);
    }
  }

  [[nodiscard]] std::uint64_t wire_bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wire_bytes_received() const override {
    return bytes_received_.load(std::memory_order_relaxed);
  }

  void enable_watch(const ProgressBoard* board,
                    int heartbeat_interval_ms) override {
    if (board == nullptr || heartbeat_interval_ms <= 0 ||
        heartbeat_.joinable()) {
      return;
    }
    watch_board_ = board;
    {
      const std::lock_guard<std::mutex> lock(hb_mutex_);
      hb_stop_ = false;
    }
    heartbeat_ = std::thread(
        [this, heartbeat_interval_ms] { heartbeat_loop(heartbeat_interval_ms); });
  }

  void disable_watch() override {
    {
      const std::lock_guard<std::mutex> lock(hb_mutex_);
      hb_stop_ = true;
    }
    hb_cv_.notify_all();
    if (heartbeat_.joinable()) heartbeat_.join();
    watch_board_ = nullptr;
  }

  [[nodiscard]] std::optional<PeerHealth> peer_health(
      int peer) const override {
    if (peer < 0 || peer >= options_.num_ranks || peer == options_.rank) {
      return std::nullopt;
    }
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    const PeerSlot& slot = peers_[static_cast<std::size_t>(peer)];
    if (!slot.known && !slot.dead) return std::nullopt;
    PeerHealth health;
    health.dead = slot.dead;
    health.progress = slot.progress;
    health.last_heard_ns = slot.last_heard_ns;
    health.last_change_ns = slot.last_change_ns;
    return health;
  }

  [[nodiscard]] std::vector<LaneQueueDepth> queue_depths() const override {
    std::vector<LaneQueueDepth> depths;
    for (int lane = 0; lane < kNumLanes; ++lane) {
      for (const auto& [source, depth] :
           inbox_[static_cast<std::size_t>(lane)].depths()) {
        depths.push_back({source, static_cast<Lane>(lane), depth});
      }
    }
    return depths;
  }

  [[nodiscard]] std::uint64_t heartbeat_frames_sent() const override {
    return hb_frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t heartbeat_words_sent() const override {
    return hb_words_.load(std::memory_order_relaxed);
  }

 private:
  void establish_mesh() {
    const int p = options_.num_ranks;
    const int rank = options_.rank;
    if (p == 1) return;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);

    auto [listen_fd, listen_port] = make_listen_socket(
        rank == 0 ? options_.rendezvous_port : std::uint16_t{0});

    try {
      if (rank == 0) {
        // Collect every rank's hello over its rendezvous connection; the
        // connection itself becomes the mesh link (0, q).
        std::vector<std::uint64_t> table(
            static_cast<std::size_t>(2 * p), 0);
        for (int i = 1; i < p; ++i) {
          const int fd = accept_with_deadline(
              listen_fd, deadline, "tcp rendezvous: waiting for peers");
          Hello hello{};
          set_recv_timeout(fd, kReceiverPollMs);
          if (read_full_deadline(fd, hello.words, sizeof hello.words,
                                 "tcp rendezvous hello", deadline) !=
              ReadStatus::kOk) {
            ::close(fd);
            throw TransportError(
                "tcp rendezvous: peer disconnected during hello");
          }
          check_hello(hello, p, "tcp rendezvous");
          const int peer = static_cast<int>(hello.words[2]);
          if (peer == 0 || fds_[static_cast<std::size_t>(peer)] >= 0) {
            ::close(fd);
            throw TransportError("tcp rendezvous: duplicate rank " +
                                 std::to_string(peer));
          }
          sockaddr_in peer_addr{};
          socklen_t len = sizeof peer_addr;
          if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer_addr),
                            &len) != 0) {
            ::close(fd);
            throw_errno("tcp rendezvous: getpeername");
          }
          fds_[static_cast<std::size_t>(peer)] = fd;
          table[static_cast<std::size_t>(2 * peer)] =
              ntohl(peer_addr.sin_addr.s_addr);
          table[static_cast<std::size_t>(2 * peer + 1)] = hello.words[4];
        }
        // Every rank now known: publish the address table.
        for (int q = 1; q < p; ++q) {
          write_full(fds_[static_cast<std::size_t>(q)], table.data(),
                     table.size() * sizeof(std::uint64_t),
                     "tcp rendezvous table to rank " + std::to_string(q));
        }
      } else {
        const sockaddr_in rendezvous = make_addr(
            resolve_ipv4(options_.rendezvous_host), options_.rendezvous_port);
        const int fd0 = connect_with_retry(
            rendezvous, deadline,
            "tcp rendezvous: connecting to rank 0 at " +
                options_.rendezvous_host + ":" +
                std::to_string(options_.rendezvous_port));
        fds_[0] = fd0;
        const Hello hello = make_hello(rank, p, listen_port);
        write_full(fd0, hello.words, sizeof hello.words,
                   "tcp rendezvous hello");
        std::vector<std::uint64_t> table(static_cast<std::size_t>(2 * p));
        set_recv_timeout(fd0, kReceiverPollMs);
        if (read_full_deadline(fd0, table.data(),
                               table.size() * sizeof(std::uint64_t),
                               "tcp rendezvous table", deadline) !=
            ReadStatus::kOk) {
          throw TransportError(
              "tcp rendezvous: rank 0 disconnected before publishing the "
              "address table (another rank failed the handshake?)");
        }
        // Full mesh: connect to every lower rank, accept every higher.
        for (int q = 1; q < rank; ++q) {
          const sockaddr_in addr = make_addr(
              static_cast<std::uint32_t>(table[static_cast<std::size_t>(
                  2 * q)]),
              static_cast<std::uint16_t>(
                  table[static_cast<std::size_t>(2 * q + 1)]));
          const int fd = connect_with_retry(
              addr, deadline, "tcp mesh: connecting to rank " +
                                   std::to_string(q));
          const Hello mesh_hello = make_hello(rank, p, listen_port);
          write_full(fd, mesh_hello.words, sizeof mesh_hello.words,
                     "tcp mesh hello");
          fds_[static_cast<std::size_t>(q)] = fd;
        }
        for (int q = rank + 1; q < p; ++q) {
          const int fd = accept_with_deadline(
              listen_fd, deadline,
              "tcp mesh: waiting for higher ranks");
          Hello mesh_hello{};
          set_recv_timeout(fd, kReceiverPollMs);
          if (read_full_deadline(fd, mesh_hello.words,
                                 sizeof mesh_hello.words, "tcp mesh hello",
                                 deadline) != ReadStatus::kOk) {
            ::close(fd);
            throw TransportError(
                "tcp mesh: peer disconnected during hello");
          }
          check_hello(mesh_hello, p, "tcp mesh");
          const int peer = static_cast<int>(mesh_hello.words[2]);
          if (peer <= rank || fds_[static_cast<std::size_t>(peer)] >= 0) {
            ::close(fd);
            throw TransportError("tcp mesh: unexpected rank " +
                                 std::to_string(peer));
          }
          fds_[static_cast<std::size_t>(peer)] = fd;
        }
      }
    } catch (...) {
      ::close(listen_fd);
      for (int& fd : fds_) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
      throw;
    }
    ::close(listen_fd);

    for (const int fd : fds_) {
      if (fd < 0) continue;
      set_nodelay(fd);
      // Receiver threads wake periodically to observe the stop flag.
      set_recv_timeout(fd, kReceiverPollMs);
    }
  }

  /// Drains frames from peer \p q into the lane mailboxes until the
  /// shutdown handshake (BYE then EOF), a failure, or local teardown.
  void receive_loop(int q) {
    const int fd = fds_[static_cast<std::size_t>(q)];
    const std::string what = "tcp receive from rank " + std::to_string(q);
    bool peer_done = false;
    Clock::time_point stop_seen{};
    try {
      while (true) {
        std::uint64_t header[2];
        const ReadStatus status =
            read_full(fd, header, sizeof header, what);
        if (status == ReadStatus::kTimeout) {
          // During teardown: once the peer said BYE (or stayed silent
          // past the grace) stop waiting for its EOF, so the destructor
          // never blocks on a peer that keeps its socket open.
          if (stopping_.load(std::memory_order_acquire)) {
            if (peer_done) return;
            if (stop_seen == Clock::time_point{}) {
              stop_seen = Clock::now();
            } else if (Clock::now() - stop_seen >
                       std::chrono::milliseconds(kTeardownGraceMs)) {
              return;
            }
          }
          continue;
        }
        if (status == ReadStatus::kEof) {
          if (peer_done) return;  // clean shutdown: BYE then EOF
          mark_peer_dead(q);
          fail_all(what + ": connection closed without shutdown handshake "
                          "— peer died");
          return;
        }
        if (header[0] == kFrameBye) {
          peer_done = true;
          for (Mailbox& inbox : inbox_) inbox.finish_source(q);
          continue;
        }
        if (header[0] != kFrameApp && header[0] != kFrameCollective &&
            header[0] != kFrameHeartbeat) {
          fail_all(what + ": corrupt frame tag " +
                   std::to_string(header[0]));
          return;
        }
        if (header[1] > (std::uint64_t{1} << 32)) {
          fail_all(what + ": implausible frame length " +
                   std::to_string(header[1]));
          return;
        }
        // The header arrived; the payload must follow, chunk by chunk. An
        // EOF anywhere after the header is an error; local teardown aborts
        // the wait so a half-frame from a hung peer cannot block the
        // destructor.
        std::vector<std::uint64_t> payload;
        const auto aborted = [this] {
          return stopping_.load(std::memory_order_acquire);
        };
        while (payload.size() < header[1]) {
          const std::size_t have = payload.size();
          const std::size_t chunk = static_cast<std::size_t>(
              std::min<std::uint64_t>(header[1] - have, kPayloadChunkWords));
          payload.resize(have + chunk);
          ReadStatus body = ReadStatus::kTimeout;
          while (body == ReadStatus::kTimeout) {
            body = read_full(fd, payload.data() + have,
                             chunk * sizeof(std::uint64_t), what, aborted);
            if (body == ReadStatus::kTimeout && aborted()) {
              throw TransportError(what + ": teardown during frame");
            }
          }
          if (body == ReadStatus::kEof) {
            throw TransportError(what + ": connection closed after a header");
          }
        }
        bytes_received_.fetch_add(
            sizeof header + payload.size() * sizeof(std::uint64_t),
            std::memory_order_relaxed);
        if (header[0] == kFrameHeartbeat) {
          // Observer lane: update the peer-health table, never a mailbox.
          note_heartbeat(q, payload);
          continue;
        }
        const Lane lane =
            header[0] == kFrameApp ? Lane::kApp : Lane::kCollective;
        inbox_[static_cast<std::size_t>(lane)].push({q, std::move(payload)});
      }
    } catch (const TransportError& error) {
      mark_peer_dead(q);
      fail_all(error.what());
    } catch (const std::exception& error) {
      // Anything else (an allocation failure, say) must still reach the
      // rank as a TransportError, not std::terminate this thread.
      fail_all(what + ": " + error.what());
    }
  }

  /// Local teardown: flags the receiver threads to stop, joins them (each
  /// returns within the teardown grace) and closes every mesh socket.
  void stop_receivers() {
    stopping_.store(true, std::memory_order_release);
    for (std::thread& t : receivers_) t.join();
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  void fail_all(const std::string& reason) {
    for (Mailbox& inbox : inbox_) inbox.fail(reason);
  }

  /// What this endpoint has heard about one peer over the heartbeat lane.
  struct PeerSlot {
    bool known = false;
    bool dead = false;
    ProgressSnapshot progress;
    std::uint64_t last_heard_ns = 0;
    std::uint64_t last_change_ns = 0;
  };

  void mark_peer_dead(int q) {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    peers_[static_cast<std::size_t>(q)].dead = true;
  }

  /// Receiver thread: folds one heartbeat payload into the peer table.
  /// The advance counter decides "changed": a stopped peer (SIGSTOP) that
  /// resumes delivering stale queued frames still reads as unchanged
  /// until its board actually moves again.
  void note_heartbeat(int q, const std::vector<std::uint64_t>& payload) {
    if (payload.size() != ProgressBoard::kWireWords) return;
    std::array<std::uint64_t, ProgressBoard::kWireWords> words{};
    std::copy(payload.begin(), payload.end(), words.begin());
    const ProgressSnapshot snap = ProgressBoard::unpack(words);
    const std::uint64_t now = trace_now_ns();
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    PeerSlot& slot = peers_[static_cast<std::size_t>(q)];
    if (!slot.known || slot.progress.advances != snap.advances) {
      slot.last_change_ns = now;
    }
    slot.known = true;
    slot.progress = snap;
    slot.last_heard_ns = now;
  }

  /// Heartbeat thread body: one frame per peer per interval, first frame
  /// immediately so peers learn of this rank before its first silence.
  void heartbeat_loop(int interval_ms) {
    while (true) {
      send_heartbeats();
      std::unique_lock<std::mutex> lock(hb_mutex_);
      if (hb_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                          [this] { return hb_stop_; })) {
        return;
      }
    }
  }

  void send_heartbeats() {
    std::uint64_t frame[2 + ProgressBoard::kWireWords];
    frame[0] = kFrameHeartbeat;
    frame[1] = ProgressBoard::kWireWords;
    const auto words = watch_board_->pack();
    std::copy(words.begin(), words.end(), frame + 2);
    for (int q = 0; q < options_.num_ranks; ++q) {
      const std::size_t slot = static_cast<std::size_t>(q);
      if (q == options_.rank || fds_[slot] < 0 || hb_ok_[slot] == 0) {
        continue;
      }
      try {
        const std::lock_guard<std::mutex> lock(send_mutexes_[slot]);
        write_full(fds_[slot], frame, sizeof frame,
                   "tcp heartbeat to rank " + std::to_string(q));
      } catch (const TransportError&) {
        // This peer's link is gone; its receive_loop reports the death.
        // Stop heartbeating it so the watch thread never throws again.
        hb_ok_[slot] = 0;
        continue;
      }
      bytes_sent_.fetch_add(sizeof frame, std::memory_order_relaxed);
      hb_frames_.fetch_add(1, std::memory_order_relaxed);
      hb_words_.fetch_add(ProgressBoard::kWireWords,
                          std::memory_order_relaxed);
    }
  }

  TcpOptions options_;
  std::vector<int> fds_;  ///< mesh connection per rank; own rank = -1
  /// Serializes writers per peer fd: the PE thread (send) and the
  /// heartbeat thread share the socket; without this, frame bytes could
  /// interleave mid-frame and corrupt the stream.
  std::vector<std::mutex> send_mutexes_;
  std::array<Mailbox, kNumLanes> inbox_;
  std::vector<std::thread> receivers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};

  // kappa-watch state.
  const ProgressBoard* watch_board_ = nullptr;
  std::thread heartbeat_;
  std::mutex hb_mutex_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;           ///< guarded by hb_mutex_
  std::vector<char> hb_ok_;        ///< heartbeat thread only, after ctor
  std::atomic<std::uint64_t> hb_frames_{0};
  std::atomic<std::uint64_t> hb_words_{0};
  mutable std::mutex watch_mutex_;
  std::vector<PeerSlot> peers_;    ///< guarded by watch_mutex_
};

/// The fabric of a TCP process: exactly one locally hosted rank.
class TcpFabric final : public TransportFabric {
 public:
  explicit TcpFabric(const TcpOptions& options) : transport_(options) {}

  [[nodiscard]] int size() const override { return transport_.size(); }

  [[nodiscard]] std::vector<int> local_ranks() const override {
    return {transport_.rank()};
  }

  [[nodiscard]] Transport& endpoint(int rank) override {
    if (rank != transport_.rank()) {
      throw std::invalid_argument(
          "tcp fabric hosts only rank " + std::to_string(transport_.rank()) +
          ", not rank " + std::to_string(rank));
    }
    return transport_;
  }

  [[nodiscard]] const char* name() const override { return "tcp"; }

 private:
  TcpTransport transport_;
};

}  // namespace

std::unique_ptr<TransportFabric> make_tcp_fabric(const TcpOptions& options) {
  return std::make_unique<TcpFabric>(options);
}

}  // namespace kappa
