#include "parallel/watch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/trace.hpp"

namespace kappa {
namespace {

std::string j_str(const char* key, const std::string& value) {
  return std::string("\"") + key + "\":" + json_string(value);
}

std::string j_u64(const char* key, std::uint64_t value) {
  return std::string("\"") + key + "\":" + std::to_string(value);
}

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::kApp:
      return "app";
    case Lane::kCollective:
      return "collective";
    case Lane::kHeartbeat:
      return "heartbeat";
  }
  return "?";
}

/// Classifies a peer from the transport's liveness knowledge. `stalled`
/// requires a configured timeout: without one, any quiet-but-connected
/// peer is simply `alive`.
const char* classify_peer(const std::optional<PeerHealth>& health,
                          std::uint64_t now_ns, std::uint64_t timeout_ns) {
  if (!health.has_value()) return "unknown";
  if (health->dead) return "dead";
  if (timeout_ns > 0 && health->last_change_ns != 0 &&
      now_ns > health->last_change_ns &&
      now_ns - health->last_change_ns >= timeout_ns) {
    return "stalled";
  }
  return "alive";
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

WatchOptions resolve_watch_options(const std::string& snapshot_path,
                                   int stall_timeout_ms, int sample_interval_ms,
                                   int heartbeat_interval_ms) {
  WatchOptions options;
  options.snapshot_path = snapshot_path;
  options.stall_timeout_ms = stall_timeout_ms;
  options.sample_interval_ms = sample_interval_ms;
  options.heartbeat_interval_ms = heartbeat_interval_ms;
  const char* env_path = std::getenv("KAPPA_WATCH_OUT");
  if (env_path != nullptr && *env_path != '\0') {
    options.snapshot_path = env_path;
  }
  options.stall_timeout_ms = static_cast<int>(env_u64(
      "KAPPA_STALL_TIMEOUT_MS",
      static_cast<std::uint64_t>(options.stall_timeout_ms)));
  options.sample_interval_ms = static_cast<int>(env_u64(
      "KAPPA_WATCH_INTERVAL_MS",
      static_cast<std::uint64_t>(options.sample_interval_ms)));
  options.heartbeat_interval_ms = static_cast<int>(env_u64(
      "KAPPA_HEARTBEAT_INTERVAL_MS",
      static_cast<std::uint64_t>(options.heartbeat_interval_ms)));
  options.sample_interval_ms = std::max(1, options.sample_interval_ms);
  options.heartbeat_interval_ms = std::max(1, options.heartbeat_interval_ms);
  return options;
}

void WatchSink::append(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) {
    opened_ = true;
    if (!path_.empty()) {
      out_.open(path_, std::ios::out | std::ios::trunc);
      if (!out_.is_open()) {
        std::fprintf(stderr, "kappa-watch: cannot open %s, falling back to stderr\n",
                     path_.c_str());
      }
    }
  }
  if (out_.is_open()) {
    out_ << json_line << '\n';
    out_.flush();
  } else {
    std::fprintf(stderr, "%s\n", json_line.c_str());
  }
}

RankWatch::RankWatch(PEContext& pe, const ProgressBoard& board,
                     WatchOptions options, WatchSink* sink, bool run_sampler)
    : pe_(pe), board_(board), options_(std::move(options)), sink_(sink) {
  pe_.enable_watch(&board_, options_.heartbeat_interval_ms);
  try {
    if (options_.stall_timeout_ms > 0) {
      watchdog_ = std::thread([this] { watchdog_loop(); });
    }
    if (run_sampler && sink_ != nullptr && !options_.snapshot_path.empty()) {
      sampler_ = std::thread([this] { sampler_loop(); });
    }
  } catch (...) {
    // A constructor that throws runs no destructor, and a joinable
    // std::thread member would std::terminate as it is destroyed: stop
    // whatever already started before the exception leaves.
    stop();
    throw;
  }
}

RankWatch::~RankWatch() { stop(); }

void RankWatch::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  if (sampler_.joinable()) sampler_.join();
  pe_.disable_watch();
}

void RankWatch::watchdog_loop() {
  const std::uint64_t timeout_ns =
      static_cast<std::uint64_t>(options_.stall_timeout_ms) * 1000000ull;
  // Check a few times per timeout window so a stall is reported within
  // ~1.25x the configured deadline, but never spin faster than 10 ms.
  const int tick_ms = std::clamp(options_.stall_timeout_ms / 4, 10, 250);
  // One report per stall episode: after reporting, stay quiet until the
  // advance counter moves again, then re-arm for the next episode.
  bool armed = true;
  std::uint64_t reported_advances = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                     [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    const ProgressSnapshot snap = board_.snapshot();
    const std::uint64_t now_ns = trace_now_ns();
    if (!armed && snap.advances != reported_advances) armed = true;
    if (armed && snap.last_advance_ns != 0 && now_ns > snap.last_advance_ns &&
        now_ns - snap.last_advance_ns >= timeout_ns) {
      emit_stall_report(snap, now_ns, now_ns - snap.last_advance_ns);
      armed = false;
      reported_advances = snap.advances;
      stall_reports_.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

void RankWatch::sampler_loop() {
  std::uint64_t seq = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const bool stopping =
        cv_.wait_for(lock, std::chrono::milliseconds(options_.sample_interval_ms),
                     [this] { return stop_; });
    lock.unlock();
    emit_snapshot(seq++);
    if (stopping) return;  // final snapshot emitted — every run gets >= 1
    lock.lock();
  }
}

std::string RankWatch::rank_table_json(std::uint64_t now_ns) const {
  const std::uint64_t timeout_ns =
      static_cast<std::uint64_t>(options_.stall_timeout_ms) * 1000000ull;
  std::string out = "[";
  for (int q = 0; q < pe_.size(); ++q) {
    if (q > 0) out += ',';
    ProgressSnapshot snap;
    const char* state = "unknown";
    std::uint64_t change_ns = 0;
    if (q == pe_.rank()) {
      snap = board_.snapshot();
      change_ns = snap.last_advance_ns;
      state = "alive";
      if (timeout_ns > 0 && change_ns != 0 && now_ns > change_ns &&
          now_ns - change_ns >= timeout_ns) {
        state = "stalled";
      }
    } else {
      const std::optional<PeerHealth> health = pe_.peer_health(q);
      state = classify_peer(health, now_ns, timeout_ns);
      if (health.has_value()) {
        snap = health->progress;
        change_ns = health->last_change_ns;
      }
    }
    const std::uint64_t age_ms =
        (change_ns != 0 && now_ns > change_ns) ? (now_ns - change_ns) / 1000000ull
                                               : 0;
    out += '{';
    out += j_u64("rank", static_cast<std::uint64_t>(q)) + ',';
    out += j_str("state", state) + ',';
    out += j_str("phase", progress_phase_name(snap.phase)) + ',';
    out += j_u64("level", static_cast<std::uint64_t>(snap.level)) + ',';
    out += j_u64("iteration", static_cast<std::uint64_t>(snap.iteration)) + ',';
    out += j_u64("pairs", snap.pairs_executed) + ',';
    out += j_u64("advances", snap.advances) + ',';
    out += j_u64("age_ms", age_ms);
    out += '}';
  }
  out += ']';
  return out;
}

void RankWatch::emit_stall_report(const ProgressSnapshot& snap,
                                  std::uint64_t now_ns,
                                  std::uint64_t stalled_ns) {
  const std::uint64_t stalled_ms = stalled_ns / 1000000ull;
  const std::vector<const char*> spans = board_.open_spans();
  const std::vector<ProgressBoard::RecentEvent> recent = board_.recent_events();
  const std::vector<LaneQueueDepth> depths = pe_.queue_depths();

  // --- JSON record (kappa.stall.v1) -----------------------------------
  std::string json = "{";
  json += j_str("schema", "kappa.stall.v1") + ',';
  json += j_u64("rank", static_cast<std::uint64_t>(pe_.rank())) + ',';
  json += j_u64("t_ns", now_ns) + ',';
  json += j_u64("stalled_ms", stalled_ms) + ',';
  json += "\"progress\":{";
  json += j_str("phase", progress_phase_name(snap.phase)) + ',';
  json += j_u64("level", static_cast<std::uint64_t>(snap.level)) + ',';
  json += j_u64("iteration", static_cast<std::uint64_t>(snap.iteration)) + ',';
  json += j_u64("pairs", snap.pairs_executed) + ',';
  json += j_u64("advances", snap.advances) + ',';
  json += j_u64("last_advance_ns", snap.last_advance_ns);
  json += "},";
  json += "\"open_spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) json += ',';
    json += json_string(spans[i]);
  }
  json += "],";
  json += "\"recent\":[";
  for (std::size_t i = 0; i < recent.size(); ++i) {
    if (i > 0) json += ',';
    json += '{' + j_str("name", recent[i].name) + ',' +
            j_u64("t_ns", recent[i].at_ns) + '}';
  }
  json += "],";
  json += "\"queue_depths\":[";
  {
    bool first = true;
    for (const LaneQueueDepth& d : depths) {
      if (d.depth == 0) continue;
      if (!first) json += ',';
      first = false;
      json += '{' + j_u64("source", static_cast<std::uint64_t>(d.source)) +
              ',' + j_str("lane", lane_name(d.lane)) + ',' +
              j_u64("depth", d.depth) + '}';
    }
  }
  json += "],";
  json += "\"peers\":" + rank_table_json(now_ns);
  json += '}';
  if (sink_ != nullptr) sink_->append(json);

  // --- human-readable block (stderr, one write to avoid interleaving) --
  std::string text = "kappa-watch: rank " + std::to_string(pe_.rank()) +
                     " STALLED for " + std::to_string(stalled_ms) +
                     " ms in phase " + progress_phase_name(snap.phase) +
                     " (level " + std::to_string(snap.level) + ", iteration " +
                     std::to_string(snap.iteration) + ", " +
                     std::to_string(snap.pairs_executed) + " pairs)\n";
  text += "  open spans:";
  if (spans.empty()) text += " (none)";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    text += (i == 0 ? " " : " > ");
    text += spans[i];
  }
  text += "\n  recent:";
  if (recent.empty()) text += " (none)";
  for (const ProgressBoard::RecentEvent& e : recent) {
    text += ' ';
    text += e.name;
  }
  text += "\n  queues:";
  {
    bool any = false;
    for (const LaneQueueDepth& d : depths) {
      if (d.depth == 0) continue;
      any = true;
      text += ' ';
      text += lane_name(d.lane);
      text += "<-" + std::to_string(d.source) + ":" + std::to_string(d.depth);
    }
    if (!any) text += " (empty)";
  }
  text += "\n  peers:";
  {
    const std::uint64_t timeout_ns =
        static_cast<std::uint64_t>(options_.stall_timeout_ms) * 1000000ull;
    for (int q = 0; q < pe_.size(); ++q) {
      if (q == pe_.rank()) continue;
      text.append(" ").append(std::to_string(q)).append("=").append(
          classify_peer(pe_.peer_health(q), now_ns, timeout_ns));
    }
  }
  text += '\n';
  std::fputs(text.c_str(), stderr);
}

void RankWatch::emit_snapshot(std::uint64_t seq) {
  const std::uint64_t now_ns = trace_now_ns();
  const ProgressSnapshot snap = board_.snapshot();
  const std::uint64_t wire_sent = pe_.wire_bytes_sent();
  const std::uint64_t wire_received = pe_.wire_bytes_received();
  const std::uint64_t hb_frames = pe_.heartbeat_frames_sent();
  const std::uint64_t hb_words = pe_.heartbeat_words_sent();

  std::string json = "{";
  json += j_str("schema", "kappa.snapshot.v1") + ',';
  json += j_u64("seq", seq) + ',';
  json += j_u64("t_ns", now_ns) + ',';
  json += j_u64("rank", static_cast<std::uint64_t>(pe_.rank())) + ',';
  json += j_u64("num_ranks", static_cast<std::uint64_t>(pe_.size())) + ',';
  json += "\"metrics\":{";
  json += j_u64("wire_bytes_sent_delta", wire_sent - prev_wire_sent_) + ',';
  json +=
      j_u64("wire_bytes_received_delta", wire_received - prev_wire_received_) +
      ',';
  json += j_u64("heartbeat_frames_delta", hb_frames - prev_hb_frames_) + ',';
  json += j_u64("heartbeat_words_delta", hb_words - prev_hb_words_) + ',';
  json += j_u64("pairs_delta", snap.pairs_executed - prev_pairs_) + ',';
  json += j_u64("advances_delta", snap.advances - prev_advances_);
  json += "},";
  json += "\"ranks\":" + rank_table_json(now_ns);
  json += '}';
  prev_wire_sent_ = wire_sent;
  prev_wire_received_ = wire_received;
  prev_hb_frames_ = hb_frames;
  prev_hb_words_ = hb_words;
  prev_pairs_ = snap.pairs_executed;
  prev_advances_ = snap.advances;
  if (sink_ != nullptr) sink_->append(json);
}

}  // namespace kappa
