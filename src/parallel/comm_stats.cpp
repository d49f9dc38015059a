/// \file comm_stats.cpp
/// \brief The table-driven fold and wire codec of the per-rank record.
#include "parallel/comm_stats.hpp"

#include <string>

#include "parallel/transport.hpp"

namespace kappa {

RankCounters fold_counters(const std::vector<RankCounters>& per_rank) {
  RankCounters total;
  std::vector<LevelHaloStats>& halo = total.comm.halo_per_level;
  for (const RankCounters& counters : per_rank) {
    for (const CounterField& field : kRankCounters) {
      std::uint64_t& sum = field.of(total);
      const std::uint64_t value = field.of(counters);
      sum = field.fold == CounterFold::kSum ? sum + value
                                            : std::max(sum, value);
    }
    const std::vector<LevelHaloStats>& levels = counters.comm.halo_per_level;
    if (levels.size() > halo.size()) halo.resize(levels.size());
    for (std::size_t l = 0; l < levels.size(); ++l) {
      halo[l].messages += levels[l].messages;
      halo[l].words += levels[l].words;
    }
  }
  return total;
}

std::vector<std::uint64_t> encode_counters(const RankCounters& counters) {
  const std::vector<LevelHaloStats>& halo = counters.comm.halo_per_level;
  std::vector<std::uint64_t> words;
  words.reserve(2 + std::size(kRankCounters) + 2 * halo.size());
  words.push_back(std::size(kRankCounters));
  for (const CounterField& field : kRankCounters) {
    words.push_back(field.of(counters));
  }
  words.push_back(halo.size());
  for (const LevelHaloStats& level : halo) {
    words.push_back(level.messages);
    words.push_back(level.words);
  }
  return words;
}

RankCounters decode_counters(const std::vector<std::uint64_t>& words) {
  constexpr std::size_t kFields = std::size(kRankCounters);
  const std::size_t n = words.size();
  // The level count is checked against n / 2 before it is doubled.
  if (n < kFields + 2 || words[0] != kFields || words[kFields + 1] > n / 2 ||
      n != kFields + 2 + 2 * words[kFields + 1]) {
    throw TransportError("malformed counter record of " + std::to_string(n) +
                         " words");
  }
  RankCounters counters;
  for (std::size_t f = 0; f < kFields; ++f) {
    kRankCounters[f].of(counters) = words[1 + f];
  }
  std::vector<LevelHaloStats>& halo = counters.comm.halo_per_level;
  halo.resize(words[kFields + 1]);
  for (std::size_t l = 0; l < halo.size(); ++l) {
    halo[l] = {words[kFields + 2 + 2 * l], words[kFields + 3 + 2 * l]};
  }
  return counters;
}

}  // namespace kappa
