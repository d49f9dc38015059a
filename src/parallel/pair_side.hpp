/// \file pair_side.hpp
/// \brief One side of a pairwise-refinement pair, in its wire layout.
///
/// The owner of block `side` of a pair {a, b} ships its §5.2 band to the
/// pair's executor: the band nodes with their in-pair rows, plus the
/// one-hop same-side fringe, frozen context whose block the executor may
/// not hold. A PairSide *is* its wire layout — a flat CSR over 64-bit words, written once by the
/// builder's row pass, moved into the message as is, and read in place
/// by the executor:
///
///   nband  nfringe
///   band ids     (nband, strictly ascending)
///   band weights (nband, weight bits)
///   row ends     (nband, cumulative arc counts; narcs = the last one)
///   targets      (narcs, one reference word each, row order)
///   arc weights  (narcs, weight bits)
///   fringe ids   (nfringe, strictly ascending)
///
/// A target reference names the arc's target in one of three ways:
///
///   r < nband                  the band node at index r;
///   nband <= r < nband+nfringe the fringe node at index r - nband;
///   r >= kGlobalTag            the node with global id r - kGlobalTag,
///                              for every other target (the partner
///                              side's nodes, or unlisted ones).
///
/// Same-side targets thus resolve by index, and only the tagged ones
/// need a lookup when the executor attaches the side to its partition
/// state (attach_shipped_side(), parallel/resident_pair.hpp). Still one
/// word per arc, so the wire volume is that of plain global ids.
///
/// A received payload is parsed in place, without copying. parse() checks
/// every count and every reference against the payload before reading,
/// and every weight — non-negative, each kind summing within range — so
/// a truncated, oversized or garbage side raises TransportError instead
/// of reading out of bounds, allocating without limit or overflowing the
/// executor's gains.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/wire_format.hpp"
#include "util/types.hpp"

namespace kappa {

class PairSide {
 public:
  /// Offset of a target reference that carries a global id.
  static constexpr std::uint64_t kGlobalTag = std::uint64_t{1} << 32;

  /// The reference word that names \p global by its id.
  [[nodiscard]] static constexpr std::uint64_t global_ref(NodeID global) {
    return kGlobalTag + global;
  }

  PairSide() = default;

  /// Validates \p words as a side and takes them over. Throws
  /// TransportError on malformed input.
  [[nodiscard]] static PairSide parse(std::vector<std::uint64_t> words);

  [[nodiscard]] NodeID band_size() const { return nband_; }
  [[nodiscard]] NodeID fringe_size() const { return nfringe_; }
  [[nodiscard]] std::uint64_t num_arcs() const { return narcs_; }

  [[nodiscard]] NodeID band_id(NodeID i) const {
    return static_cast<NodeID>(words_[kIds + i]);
  }
  [[nodiscard]] NodeWeight band_weight(NodeID i) const;
  [[nodiscard]] std::uint64_t row_begin(NodeID i) const {
    return i == 0 ? 0 : words_[ends_ + i - 1];
  }
  [[nodiscard]] std::uint64_t row_end(NodeID i) const {
    return words_[ends_ + i];
  }
  /// The arc's target reference word (see the file comment).
  [[nodiscard]] std::uint64_t target_ref(std::uint64_t arc) const {
    return words_[targets_ + arc];
  }
  /// Global id of the arc's target, whichever way the arc names it.
  [[nodiscard]] NodeID target_global(std::uint64_t arc) const;
  [[nodiscard]] EdgeWeight arc_weight(std::uint64_t arc) const;
  [[nodiscard]] NodeID fringe_id(NodeID i) const {
    return static_cast<NodeID>(words_[fringe_ + i]);
  }

  /// The band and fringe ids as word ranges (ascending).
  [[nodiscard]] std::span<const std::uint64_t> band_ids() const {
    return {words_.data() + kIds, nband_};
  }
  [[nodiscard]] std::span<const std::uint64_t> fringe_ids() const {
    return {words_.data() + fringe_, nfringe_};
  }

  /// The whole message.
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  [[nodiscard]] std::vector<std::uint64_t> release() && {
    return std::move(words_);
  }

 private:
  friend class PairSideWriter;

  /// Offset of the band ids: they follow the band and fringe counts.
  static constexpr std::size_t kIds = 2;

  /// Sets the section offsets from the leading counts.
  void locate();

  std::vector<std::uint64_t> words_;
  NodeID nband_ = 0;
  NodeID nfringe_ = 0;
  std::uint64_t narcs_ = 0;
  std::size_t weights_ = 0;
  std::size_t ends_ = 0;
  std::size_t targets_ = 0;
  std::size_t fringe_ = 0;
};

/// Writes a PairSide in one pass over its band rows: open with the band
/// size, then per band node in ascending id order begin_row() followed by
/// its kept arcs, and finish() with the fringe.
class PairSideWriter {
 public:
  explicit PairSideWriter(NodeID band_size);

  void begin_row(NodeID id, NodeWeight weight);
  /// An arc to the band node at \p index (its rank in the band order).
  void add_band_arc(NodeID index, EdgeWeight weight) {
    add_arc(index, weight);
  }
  /// An arc to the fringe node at \p index of the list finish() takes.
  void add_fringe_arc(NodeID index, EdgeWeight weight) {
    add_arc(std::uint64_t{band_size_} + index, weight);
  }
  /// An arc named by its target's global id.
  void add_global_arc(NodeID target, EdgeWeight weight) {
    add_arc(PairSide::global_ref(target), weight);
  }
  /// Seals the side with \p fringe: distinct ids in any order (the order
  /// add_fringe_arc() indexed), written ascending with the fringe
  /// references renumbered to match.
  [[nodiscard]] PairSide finish(std::span<const NodeID> fringe);

 private:
  void add_arc(std::uint64_t ref, EdgeWeight weight) {
    words_.push_back(ref);
    arc_weights_.push_back(weight_bits(weight));
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> arc_weights_;
  NodeID band_size_ = 0;
  NodeID row_ = 0;
};

}  // namespace kappa
