/// \file kappa_cli.cpp
/// \brief Command-line partitioner: METIS-format graphs in, partition
/// files out — the interface downstream users expect from a partitioning
/// tool (same conventions as kmetis / scotch / kahip).
///
/// Usage:
///   kappa_cli <graph.metis> <k> [--preset=fast|strong|minimal]
///             [--eps=0.03] [--seed=1] [--pes=0]
///             [--transport=inproc|tcp] [--rank=R] [--peers=HOST:PORT]
///             [--recv-timeout-ms=60000] [--output=out.part]
///             [--trace-out=FILE] [--metrics-out=FILE]
///             [--watch-out=FILE] [--stall-timeout-ms=N]
///
/// Any other argument after <k> is an error, and so is a malformed or
/// out-of-range number (k >= 2, eps finite and >= 0, pes >= 0,
/// 0 <= rank < pes, 1 <= port <= 65535, timeouts >= 0): the usage line
/// goes to stderr and the tool exits with status 2 before reading the
/// graph.
///
/// --pes=N > 0 runs the pipeline SPMD on a PE runtime of N PEs (the
/// result is identical for every N under a fixed seed; N changes wall
/// time and the communication counters printed at the end).
///
/// --transport=tcp spans the run over N processes, one rank each: start
/// N copies of this binary with the same graph/k/seed/--pes=N, distinct
/// --rank=0..N-1, and the same --peers=HOST:PORT naming rank 0's
/// rendezvous address (see examples/launch_tcp.sh). Every process
/// computes the identical partition; each writes its own copy unless
/// --output is given, in which case only rank 0 writes.
///
/// --trace-out=FILE turns tracing on and writes the merged Chrome-trace
/// JSON of every rank's spans (open in https://ui.perfetto.dev). On a TCP
/// fabric the flag must be passed to every rank (the tracing decision is
/// collective); the merged file appears on the rank-0 process only.
/// --metrics-out=FILE dumps the unified metrics registry
/// (schema kappa.metrics.v2) without turning tracing on: every SPMD run
/// gathers every rank's counters, so the document lists all ranks on
/// every backend. TCP ranks > 0 write the same complete document to
/// FILE.rank<R> so the per-process files never race; trace.* keys appear
/// only when --trace-out is given too.
///
/// --watch-out=FILE turns on kappa-watch: rank 0 streams kappa.snapshot.v1
/// JSONL snapshots (metrics deltas + per-rank liveness) to FILE while the
/// run is in flight — render them live with tools/kappa_top.py. TCP ranks
/// > 0 write stall reports (if any) to FILE.rank<R>. --stall-timeout-ms=N
/// arms a per-rank watchdog that emits a structured stall report (open
/// span stack, recent events, queue depths, peer verdicts) when a rank
/// stops advancing for N ms. Observer-only: the partition is
/// byte-identical with watch on or off. KAPPA_WATCH_OUT and
/// KAPPA_STALL_TIMEOUT_MS override both.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>

#include "core/metrics_export.hpp"
#include "core/partitioner.hpp"
#include "graph/graph_io.hpp"
#include "graph/validation.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport_tcp.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

/// Every option the tool knows; each takes a value (--name=value).
constexpr const char* kOptions[] = {
    "--preset",    "--eps",         "--seed",        "--pes",
    "--transport", "--rank",        "--peers",       "--recv-timeout-ms",
    "--output",    "--trace-out",   "--metrics-out", "--watch-out",
    "--stall-timeout-ms"};

void print_usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s <graph.metis> <k> [--preset=fast|strong|minimal]"
               " [--eps=0.03] [--seed=1] [--pes=0]"
               " [--transport=inproc|tcp] [--rank=R] [--peers=HOST:PORT]"
               " [--recv-timeout-ms=N] [--output=FILE]"
               " [--trace-out=FILE] [--metrics-out=FILE]"
               " [--watch-out=FILE] [--stall-timeout-ms=N]\n",
               program);
}

/// The first argument after <graph> <k> that is not a known
/// --name=value option, or nullptr. Empty arguments (an empty array
/// expanded by a launcher script) are ignored.
const char* unknown_option(int argc, char** argv) {
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] == '\0') continue;
    const char* eq = std::strchr(arg, '=');
    const std::size_t len =
        eq == nullptr ? 0 : static_cast<std::size_t>(eq - arg);
    bool known = false;
    for (const char* option : kOptions) {
      known = known || (std::strlen(option) == len &&
                        std::strncmp(arg, option, len) == 0);
    }
    if (!known) return arg;
  }
  return nullptr;
}

const char* arg_value(int argc, char** argv, const char* key) {
  const std::size_t len = std::strlen(key);
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

/// Parses all of \p text with std::from_chars (no leading space or '+',
/// no trailing characters) as a number in [lo, hi] into \p out; floating
/// point must also be finite. Leaves \p out alone and returns false
/// otherwise.
template <typename T>
bool parse_number(const char* text, T lo, T hi, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  if (value < lo || value > hi) return false;
  out = value;
  return true;
}

/// Reads option \p key, if given, with parse_number(); a bad value is
/// reported on stderr and returns false.
template <typename T>
bool number_option(int argc, char** argv, const char* key, T lo, T hi,
                   T& out) {
  const char* value = arg_value(argc, argv, key);
  if (value == nullptr || parse_number(value, lo, hi, out)) return true;
  std::fprintf(stderr, "error: bad value '%s' for %s\n", value, key);
  return false;
}

/// Keeps the merged trace of the run for the export step below.
struct CaptureTraceSink final : kappa::TraceSink {
  kappa::MergedTrace trace;
  bool fired = false;
  void on_trace(const kappa::MergedTrace& merged) override {
    trace = merged;
    fired = true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace kappa;
  if (argc < 3) {
    print_usage(argv[0]);
    return 2;
  }
  if (const char* option = unknown_option(argc, argv)) {
    std::fprintf(stderr,
                 "error: unknown option '%s' (options are --name=value)\n",
                 option);
    print_usage(argv[0]);
    return 2;
  }

  // Every option is checked before the graph is read.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  BlockID k = 0;
  if (!parse_number(argv[2], BlockID{2}, kInvalidBlock - 1, k)) {
    std::fprintf(stderr, "error: k must be an integer >= 2, got '%s'\n",
                 argv[2]);
    print_usage(argv[0]);
    return 2;
  }

  Preset preset = Preset::kFast;
  if (const char* name = arg_value(argc, argv, "--preset")) {
    if (std::strcmp(name, "strong") == 0) {
      preset = Preset::kStrong;
    } else if (std::strcmp(name, "minimal") == 0) {
      preset = Preset::kMinimal;
    } else if (std::strcmp(name, "fast") != 0) {
      std::fprintf(stderr, "error: unknown preset '%s'\n", name);
      return 2;
    }
  }
  double eps = 0.03;
  if (!number_option(argc, argv, "--eps", 0.0,
                     std::numeric_limits<double>::max(), eps)) {
    print_usage(argv[0]);
    return 2;
  }
  Config config = Config::preset(preset, k, eps);
  int pes = 0;
  if (!number_option(argc, argv, "--seed", std::uint64_t{0},
                     std::numeric_limits<std::uint64_t>::max(),
                     config.seed) ||
      !number_option(argc, argv, "--pes", 0, kIntMax, pes) ||
      !number_option(argc, argv, "--stall-timeout-ms", 0, kIntMax,
                     config.stall_timeout_ms)) {
    print_usage(argv[0]);
    return 2;
  }
  const char* trace_out = arg_value(argc, argv, "--trace-out");
  const char* metrics_out = arg_value(argc, argv, "--metrics-out");
  if (trace_out != nullptr) config.trace_enabled = true;
  if (const char* value = arg_value(argc, argv, "--watch-out")) {
    config.watch_out = value;
  }
  if ((!config.watch_out.empty() || config.stall_timeout_ms > 0) && pes < 1) {
    std::fprintf(stderr,
                 "warning: --watch-out/--stall-timeout-ms observe the SPMD "
                 "runtime; a sequential run (--pes=0) publishes nothing\n");
  }

  bool tcp = false;
  if (const char* name = arg_value(argc, argv, "--transport")) {
    if (std::strcmp(name, "tcp") == 0) {
      tcp = true;
    } else if (std::strcmp(name, "inproc") != 0) {
      std::fprintf(stderr, "error: unknown transport '%s'\n", name);
      return 2;
    }
  }
  TcpOptions tcp_options;
  if (!number_option(argc, argv, "--rank", 0, pes - 1, tcp_options.rank) ||
      !number_option(argc, argv, "--recv-timeout-ms", 0, kIntMax,
                     tcp_options.recv_timeout_ms)) {
    print_usage(argv[0]);
    return 2;
  }
  if (tcp) {
    if (pes < 1) {
      std::fprintf(stderr, "error: --transport=tcp needs --pes=N >= 1\n");
      return 2;
    }
    tcp_options.num_ranks = pes;
    const char* peers = arg_value(argc, argv, "--peers");
    if (peers == nullptr) {
      std::fprintf(stderr,
                   "error: --transport=tcp needs --peers=HOST:PORT (rank 0's "
                   "rendezvous address)\n");
      return 2;
    }
    const char* colon = std::strrchr(peers, ':');
    int port = 0;
    if (colon == nullptr || colon == peers ||
        !parse_number(colon + 1, 1, 65535, port)) {
      std::fprintf(stderr, "error: --peers wants HOST:PORT, got '%s'\n",
                   peers);
      print_usage(argv[0]);
      return 2;
    }
    tcp_options.rendezvous_host.assign(peers, colon);
    tcp_options.rendezvous_port = static_cast<std::uint16_t>(port);
  }

  StaticGraph graph;
  try {
    graph = read_metis_graph(argv[1]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  std::fprintf(stderr,
               "graph: %u nodes, %llu edges; k=%u eps=%.3f (%s%s)\n",
               graph.num_nodes(),
               static_cast<unsigned long long>(graph.num_edges()), k, eps,
               preset_name(preset),
               tcp ? ", spmd/tcp" : (pes > 0 ? ", spmd" : ""));

  PartitionResult result;
  bool write_output = true;
  CaptureTraceSink trace_sink;
  try {
    if (tcp) {
      PERuntime runtime(make_tcp_fabric(tcp_options), config.seed);
      Partitioner partitioner(Context::spmd(config, runtime));
      partitioner.set_trace_sink(&trace_sink);
      result = partitioner.partition(graph);
      // Every rank holds the identical partition. With an explicit
      // --output all ranks would race for one file — let rank 0 write it;
      // default (per-invocation) paths are shared too, same rule.
      write_output = runtime.primary_rank() == 0;
    } else if (pes > 0) {
      PERuntime runtime(pes, config.seed);
      Partitioner partitioner(Context::spmd(config, runtime));
      partitioner.set_trace_sink(&trace_sink);
      result = partitioner.partition(graph);
    } else {
      Partitioner partitioner(Context::sequential(config));
      partitioner.set_trace_sink(&trace_sink);
      result = partitioner.partition(graph);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  std::printf("cut      %lld\n", static_cast<long long>(result.cut));
  std::printf("balance  %.4f\n", result.balance);
  std::printf("feasible %s\n", result.balanced ? "yes" : "no");
  std::printf("time     %.3f s  (coarsen %.3f | initial %.3f | refine %.3f)\n",
              result.total_time, result.coarsening_time, result.initial_time,
              result.refinement_time);
  if (result.num_pes > 0) {
    std::printf("spmd     %d PEs, %llu msgs, %llu words, %llu barriers\n",
                result.num_pes,
                static_cast<unsigned long long>(result.comm.messages_sent),
                static_cast<unsigned long long>(result.comm.words_sent),
                static_cast<unsigned long long>(result.comm.barriers));
  }
  if (tcp) {
    const CommStats& mine =
        result.comm_per_pe[static_cast<std::size_t>(tcp_options.rank)];
    std::printf("wire     rank %d: %llu bytes sent, %llu bytes received\n",
                tcp_options.rank,
                static_cast<unsigned long long>(mine.wire_bytes_sent),
                static_cast<unsigned long long>(mine.wire_bytes_received));
  }

  if (trace_out != nullptr && trace_sink.fired) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_out);
      return 1;
    }
    write_chrome_trace(trace_sink.trace, out);
    std::uint64_t dropped = 0;
    for (const std::uint64_t d : trace_sink.trace.dropped_per_rank) {
      dropped += d;
    }
    std::fprintf(stderr,
                 "trace written to %s (%zu events, %d ranks, %llu dropped)\n",
                 trace_out, trace_sink.trace.events.size(),
                 trace_sink.trace.num_ranks,
                 static_cast<unsigned long long>(dropped));
  }
  if (metrics_out != nullptr) {
    const std::string backend =
        tcp ? "tcp" : (pes > 0 ? "inproc" : "sequential");
    MetricsRegistry registry = metrics_from_result(result, config, backend);
    if (trace_sink.fired) {
      registry.set_u64("trace.events",
                       trace_sink.trace.events.size());
      registry.set_u64_list("trace.dropped_per_rank",
                            trace_sink.trace.dropped_per_rank);
    }
    // Every TCP rank holds the complete document, and one path would be
    // raced for: ranks > 0 suffix theirs, so rank 0's file is THE one.
    std::string metrics_path = metrics_out;
    if (tcp && !write_output) {
      metrics_path += ".rank" + std::to_string(tcp_options.rank);
    }
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    registry.write_json(out);
    out << "\n";
    std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
  }

  if (write_output) {
    const char* output = arg_value(argc, argv, "--output");
    const std::string output_path =
        output != nullptr
            ? output
            : std::string(argv[1]) + ".part." + std::to_string(k);
    write_partition(result.partition, output_path);
    std::fprintf(stderr, "partition written to %s\n", output_path.c_str());
  }
  return 0;
}
