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
/// Any other argument after <k> is an error: the usage line goes to
/// stderr and the tool exits with status 2 before reading the graph.
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
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

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

  StaticGraph graph;
  try {
    graph = read_metis_graph(argv[1]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  const BlockID k = static_cast<BlockID>(std::atoi(argv[2]));
  if (k < 2) {
    std::fprintf(stderr, "error: k must be >= 2\n");
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
  if (const char* value = arg_value(argc, argv, "--eps")) {
    eps = std::atof(value);
  }

  Config config = Config::preset(preset, k, eps);
  if (const char* value = arg_value(argc, argv, "--seed")) {
    config.seed = std::strtoull(value, nullptr, 10);
  }
  int pes = 0;
  if (const char* value = arg_value(argc, argv, "--pes")) {
    pes = std::atoi(value);
  }
  const char* trace_out = arg_value(argc, argv, "--trace-out");
  const char* metrics_out = arg_value(argc, argv, "--metrics-out");
  if (trace_out != nullptr) config.trace_enabled = true;
  if (const char* value = arg_value(argc, argv, "--watch-out")) {
    config.watch_out = value;
  }
  if (const char* value = arg_value(argc, argv, "--stall-timeout-ms")) {
    config.stall_timeout_ms = std::atoi(value);
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
  if (tcp) {
    if (pes < 1) {
      std::fprintf(stderr, "error: --transport=tcp needs --pes=N >= 1\n");
      return 2;
    }
    tcp_options.num_ranks = pes;
    if (const char* value = arg_value(argc, argv, "--rank")) {
      tcp_options.rank = std::atoi(value);
    }
    const char* peers = arg_value(argc, argv, "--peers");
    if (peers == nullptr) {
      std::fprintf(stderr,
                   "error: --transport=tcp needs --peers=HOST:PORT (rank 0's "
                   "rendezvous address)\n");
      return 2;
    }
    const char* colon = std::strrchr(peers, ':');
    if (colon == nullptr || colon == peers || colon[1] == '\0') {
      std::fprintf(stderr, "error: --peers wants HOST:PORT, got '%s'\n",
                   peers);
      return 2;
    }
    tcp_options.rendezvous_host.assign(peers, colon);
    tcp_options.rendezvous_port =
        static_cast<std::uint16_t>(std::atoi(colon + 1));
    if (const char* value = arg_value(argc, argv, "--recv-timeout-ms")) {
      tcp_options.recv_timeout_ms = std::atoi(value);
    }
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
