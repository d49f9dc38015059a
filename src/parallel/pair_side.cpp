#include "parallel/pair_side.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "parallel/transport.hpp"
#include "parallel/wire_format.hpp"

namespace kappa {

namespace {

[[noreturn]] void malformed(const char* what) {
  throw TransportError(std::string("malformed pair side: ") + what);
}

/// Whether every word of \p bits is a non-negative weight and their sum
/// stays in range.
bool summable_weights(std::span<const std::uint64_t> bits) {
  std::int64_t total = 0;
  for (const std::uint64_t word : bits) {
    const std::int64_t w = bits_weight(word);
    if (w < 0 || w > std::numeric_limits<std::int64_t>::max() - total) {
      return false;
    }
    total += w;
  }
  return true;
}

/// Whether \p ids are valid node ids in strictly ascending order.
bool ascending_ids(std::span<const std::uint64_t> ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= kInvalidNode) return false;
    if (i > 0 && ids[i] <= ids[i - 1]) return false;
  }
  return true;
}

}  // namespace

void PairSide::locate() {
  nband_ = static_cast<NodeID>(words_[0]);
  nfringe_ = static_cast<NodeID>(words_[1]);
  weights_ = kIds + nband_;
  ends_ = weights_ + nband_;
  targets_ = ends_ + nband_;
  narcs_ = nband_ == 0 ? 0 : words_[ends_ + nband_ - 1];
  fringe_ = targets_ + 2 * narcs_;
}

PairSide PairSide::parse(std::vector<std::uint64_t> words) {
  if (words.size() < kIds) malformed("truncated counts");
  std::size_t rest = words.size() - kIds;
  const std::uint64_t nband = words[0];
  const std::uint64_t nfringe = words[1];
  if (nband > rest / 3) malformed("band count exceeds payload");
  rest -= 3 * nband;
  if (nfringe > rest) malformed("fringe count exceeds payload");
  rest -= nfringe;
  if (nband + nfringe >= kGlobalTag) malformed("index references overflow");

  PairSide side;
  side.words_ = std::move(words);
  side.locate();
  const std::span<const std::uint64_t> all(side.words_);
  if (!ascending_ids(all.subspan(kIds, side.nband_))) {
    malformed("band ids not ascending node ids");
  }
  std::uint64_t previous = 0;
  for (NodeID i = 0; i < side.nband_; ++i) {
    const std::uint64_t end = all[side.ends_ + i];
    if (end < previous) malformed("row ends decrease");
    previous = end;
  }
  if (side.narcs_ > rest / 2 || 2 * side.narcs_ != rest) {
    malformed("arc count disagrees with payload");
  }
  const std::uint64_t listed = std::uint64_t{side.nband_} + side.nfringe_;
  for (std::uint64_t e = 0; e < side.narcs_; ++e) {
    const std::uint64_t ref = all[side.targets_ + e];
    if (ref >= listed &&
        (ref < kGlobalTag || ref - kGlobalTag >= kInvalidNode)) {
      malformed("target reference out of range");
    }
  }
  if (!ascending_ids(all.subspan(side.fringe_, side.nfringe_))) {
    malformed("fringe ids not ascending node ids");
  }
  // The weights become the executor's node and arc weights.
  if (!summable_weights(all.subspan(side.weights_, side.nband_)) ||
      !summable_weights(all.subspan(side.targets_ + side.narcs_,
                                    side.narcs_))) {
    malformed("weight negative or out of range");
  }
  return side;
}

NodeWeight PairSide::band_weight(NodeID i) const {
  return bits_weight(words_[weights_ + i]);
}

NodeID PairSide::target_global(std::uint64_t arc) const {
  const std::uint64_t ref = target_ref(arc);
  if (ref < nband_) return band_id(static_cast<NodeID>(ref));
  if (ref < kGlobalTag) return fringe_id(static_cast<NodeID>(ref - nband_));
  return static_cast<NodeID>(ref - kGlobalTag);
}

EdgeWeight PairSide::arc_weight(std::uint64_t arc) const {
  return bits_weight(words_[targets_ + narcs_ + arc]);
}

PairSideWriter::PairSideWriter(NodeID band_size)
    : words_(PairSide::kIds + 3 * static_cast<std::size_t>(band_size), 0),
      band_size_(band_size) {
  words_[0] = band_size;  // words_[1], the fringe count, is set by finish()
}

void PairSideWriter::begin_row(NodeID id, NodeWeight weight) {
  assert(row_ < band_size_);
  constexpr std::size_t ids = PairSide::kIds;
  const std::size_t fixed = ids + 3 * static_cast<std::size_t>(band_size_);
  if (row_ > 0) words_[ids + 2 * band_size_ + row_ - 1] = words_.size() - fixed;
  words_[ids + row_] = id;
  words_[ids + band_size_ + row_] = weight_bits(weight);
  ++row_;
}

PairSide PairSideWriter::finish(std::span<const NodeID> fringe) {
  assert(row_ == band_size_);
  constexpr std::size_t ids = PairSide::kIds;
  const std::size_t fixed = ids + 3 * static_cast<std::size_t>(band_size_);
  if (band_size_ > 0) words_[ids + 3 * band_size_ - 1] = words_.size() - fixed;
  words_[1] = fringe.size();

  // Fringe references were written as list positions; renumber them to
  // the positions of the ascending fringe section.
  std::vector<std::pair<NodeID, NodeID>> order;  // (id, list position)
  order.reserve(fringe.size());
  for (NodeID j = 0; j < fringe.size(); ++j) order.emplace_back(fringe[j], j);
  std::sort(order.begin(), order.end());
  std::vector<NodeID> sorted_index(fringe.size());
  for (NodeID j = 0; j < order.size(); ++j) sorted_index[order[j].second] = j;
  const std::uint64_t begin = band_size_;
  const std::uint64_t end = begin + fringe.size();
  for (std::size_t w = fixed; w < words_.size(); ++w) {
    if (words_[w] >= begin && words_[w] < end) {
      words_[w] = begin + sorted_index[words_[w] - begin];
    }
  }
  words_.insert(words_.end(), arc_weights_.begin(), arc_weights_.end());
  for (const auto& [id, position] : order) words_.push_back(id);
  PairSide side;
  side.words_ = std::move(words_);
  side.locate();
  return side;
}

}  // namespace kappa
