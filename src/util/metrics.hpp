/// \file metrics.hpp
/// \brief The unified metrics registry: named, typed run metrics behind
/// one namespace, dumped as stable-schema JSON.
///
/// The registry replaces the ad-hoc counter plumbing that grew around
/// PartitionResult — every consumer (CLI `--metrics-out`, benches,
/// tests) reads the same names with the same types instead of
/// hand-formatting its own JSON. Keys are dot-separated namespaces
/// ("comm.words_sent", "memory.shard.per_rank.owned_nodes"); the document
/// is sorted by key, so two runs diff cleanly. Per-rank counters are
/// declared: set_counter() writes a counter's aggregate under
/// `<group>.<name>` and its per-rank list under `<group>.per_rank.<name>`
/// and lists it in the document's `counters` declaration, against which
/// a validator checks the values. The schema identifier only changes
/// when the value model changes incompatibly, not when keys are added.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "parallel/comm_stats.hpp"

namespace kappa {

/// Schema identifier written into every metrics dump.
inline constexpr const char* kMetricsSchema = "kappa.metrics.v2";

/// Named, typed metrics of one run. Setting a name again overwrites it
/// (types may change; last writer wins).
class MetricsRegistry {
 public:
  void set_u64(const std::string& name, std::uint64_t value);
  void set_i64(const std::string& name, std::int64_t value);
  void set_f64(const std::string& name, double value);
  void set_str(const std::string& name, std::string value);
  void set_u64_list(const std::string& name,
                    std::vector<std::uint64_t> values);
  void set_f64_list(const std::string& name, std::vector<double> values);
  /// Declares the counter-table row \p field (static storage) and sets
  /// its aggregate and per-rank list.
  void set_counter(const CounterField& field, std::uint64_t total,
                   std::vector<std::uint64_t> per_rank);

  /// The declared counters, in declaration order.
  [[nodiscard]] const std::vector<const CounterField*>& counters() const {
    return counters_;
  }

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  /// Registered names, sorted (the JSON emission order).
  [[nodiscard]] std::vector<std::string> names() const;

  // Typed getters; throw std::out_of_range on a missing name and
  // std::logic_error on a type mismatch.
  [[nodiscard]] std::uint64_t u64(const std::string& name) const;
  [[nodiscard]] std::int64_t i64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] const std::string& str(const std::string& name) const;
  [[nodiscard]] const std::vector<std::uint64_t>& u64_list(
      const std::string& name) const;
  [[nodiscard]] const std::vector<double>& f64_list(
      const std::string& name) const;

  /// Writes the stable-schema document:
  ///   { "schema": "kappa.metrics.v2",
  ///     "counters": [ {"group", "name", "unit", "fold"}, ... ],
  ///     "metrics": { "<name>": {"type": "<t>", "value": <v>}, ... } }
  /// with the metrics sorted by name. \p indent shifts every line right
  /// (embedding a run inside a bench's run array).
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  enum class Type { kU64, kI64, kF64, kStr, kU64List, kF64List };

  struct Value {
    Type type = Type::kU64;
    std::uint64_t u64 = 0;
    std::int64_t i64 = 0;
    double f64 = 0.0;
    std::string str;
    std::vector<std::uint64_t> u64s;
    std::vector<double> f64s;
  };

  const Value& at(const std::string& name, Type type) const;

  std::map<std::string, Value> metrics_;
  std::vector<const CounterField*> counters_;
};

}  // namespace kappa
