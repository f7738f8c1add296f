// Partitions of a machine's state set (paper section 2.1).
//
// A Partition over N elements (top-machine states) assigns each element a
// block id in 0..block_count()-1, normalized so blocks are numbered by first
// occurrence; two partitions are equal iff they group identically.
//
// Order convention follows the paper: P1 <= P2 iff each block of P2 is
// contained in a block of P1 — i.e. *smaller means coarser*. The bottom
// element is the single-block partition, the top is the identity (all
// singletons, corresponding to the reachable cross product itself).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace ffsm {

class Partition {
 public:
  Partition() = default;

  /// Builds from an arbitrary block assignment (tags need not be dense);
  /// normalizes to first-occurrence numbering. One read-only pass when the
  /// input is already normalized; otherwise a hash-map renumbering.
  explicit Partition(std::vector<std::uint32_t> assignment);

  /// Identity partition: every element its own block (the paper's top).
  [[nodiscard]] static Partition identity(std::uint32_t n);

  /// Single-block partition (the paper's bottom).
  [[nodiscard]] static Partition single_block(std::uint32_t n);

  /// Number of elements partitioned.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(block_of_.size());
  }

  [[nodiscard]] std::uint32_t block_count() const noexcept {
    return num_blocks_;
  }

  [[nodiscard]] std::uint32_t block_of(std::uint32_t element) const;

  [[nodiscard]] std::span<const std::uint32_t> assignment() const noexcept {
    return block_of_;
  }

  /// True iff elements i and j lie in distinct blocks — the machine
  /// "distinguishes" the two top states (paper section 3).
  [[nodiscard]] bool separates(std::uint32_t i, std::uint32_t j) const {
    return block_of(i) != block_of(j);
  }

  /// Blocks as sorted element lists (the paper's set representation).
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> blocks() const;

  /// Paper order: true iff `coarser` <= `finer`, i.e. every block of `finer`
  /// is contained in one block of `coarser`. Requires equal size().
  [[nodiscard]] static bool leq(const Partition& coarser,
                                const Partition& finer);

  /// Strict order: leq && not equal.
  [[nodiscard]] static bool less(const Partition& coarser,
                                 const Partition& finer) {
    return coarser != finer && leq(coarser, finer);
  }

  friend bool operator==(const Partition& a, const Partition& b) noexcept {
    return a.block_of_ == b.block_of_;
  }

  /// FNV-1a over the normalized assignment; suitable for hash containers.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// "{0,3}{1}{2}"-style rendering (element indices).
  [[nodiscard]] std::string to_string() const;

  /// Rendering with caller-supplied element names.
  [[nodiscard]] std::string to_string(
      const std::function<std::string(std::uint32_t)>& element_name) const;

 private:
  std::vector<std::uint32_t> block_of_;
  std::uint32_t num_blocks_ = 0;
};

struct PartitionHash {
  std::size_t operator()(const Partition& p) const noexcept {
    return p.hash();
  }
};

}  // namespace ffsm
