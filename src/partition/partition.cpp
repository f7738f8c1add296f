#include "partition/partition.hpp"

#include <unordered_map>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ffsm {

Partition::Partition(std::vector<std::uint32_t> assignment)
    : block_of_(std::move(assignment)) {
  FFSM_EXPECTS(!block_of_.empty());
  // Input already numbered by first occurrence (every wire frame,
  // identity(), every canonical closure) has each tag either a block seen
  // before or the next new one, and keeps its numbers.
  std::uint32_t next = 0;
  std::size_t i = 0;
  for (; i < block_of_.size() && block_of_[i] <= next; ++i)
    next += (block_of_[i] == next) ? 1u : 0u;
  if (i == block_of_.size()) {
    num_blocks_ = next;
    return;
  }

  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  remap.reserve(block_of_.size());
  for (auto& b : block_of_) {
    const auto [it, inserted] =
        remap.emplace(b, static_cast<std::uint32_t>(remap.size()));
    b = it->second;
  }
  num_blocks_ = static_cast<std::uint32_t>(remap.size());
}

Partition Partition::identity(std::uint32_t n) {
  FFSM_EXPECTS(n >= 1);
  std::vector<std::uint32_t> assignment(n);
  for (std::uint32_t i = 0; i < n; ++i) assignment[i] = i;
  return Partition(std::move(assignment));
}

Partition Partition::single_block(std::uint32_t n) {
  FFSM_EXPECTS(n >= 1);
  return Partition(std::vector<std::uint32_t>(n, 0));
}

std::uint32_t Partition::block_of(std::uint32_t element) const {
  FFSM_EXPECTS(element < block_of_.size());
  return block_of_[element];
}

std::vector<std::vector<std::uint32_t>> Partition::blocks() const {
  std::vector<std::vector<std::uint32_t>> result(num_blocks_);
  for (std::uint32_t i = 0; i < block_of_.size(); ++i)
    result[block_of_[i]].push_back(i);
  return result;
}

bool Partition::leq(const Partition& coarser, const Partition& finer) {
  FFSM_EXPECTS(coarser.size() == finer.size());
  // Every block of `finer` must map into a single block of `coarser`:
  // record the coarser-block seen for each finer-block and demand
  // consistency.
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> image(finer.block_count(), kUnset);
  for (std::uint32_t i = 0; i < coarser.size(); ++i) {
    const std::uint32_t fb = finer.block_of_[i];
    const std::uint32_t cb = coarser.block_of_[i];
    if (image[fb] == kUnset)
      image[fb] = cb;
    else if (image[fb] != cb)
      return false;
  }
  return true;
}

std::size_t Partition::hash() const noexcept { return fnv1a(block_of_); }

std::string Partition::to_string() const {
  return to_string(
      [](std::uint32_t i) { return std::to_string(i); });
}

std::string Partition::to_string(
    const std::function<std::string(std::uint32_t)>& element_name) const {
  const auto groups = blocks();
  std::string out;
  for (const auto& block : groups) {
    out += '{';
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (i != 0) out += ',';
      out += element_name(block[i]);
    }
    out += '}';
  }
  return out;
}

}  // namespace ffsm
