// Key -> partition -> server placement (paper §III-A "Data partitioning").
//
// Vectors and matrices are partitioned by row (or column, for LINE's
// embedding layout) index; vertex data and neighbor tables by vertex
// index. Three schemes are implemented, as in the paper: hash, range and
// hash-range (contiguous chunks scattered by hash — the hybrid-range
// strategy of Ghandeharizadeh & DeWitt).

#ifndef PSGRAPH_PS_PARTITIONER_H_
#define PSGRAPH_PS_PARTITIONER_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/hash.h"

namespace psgraph::ps {

enum class PartitionScheme : uint8_t {
  kHash = 0,
  kRange = 1,
  kHashRange = 2,
};

/// Stateless mapping from a 64-bit key to one of `num_partitions`
/// partitions; partition i is served by server (i % num_servers).
class Partitioner {
 public:
  Partitioner() = default;
  Partitioner(PartitionScheme scheme, uint64_t key_space,
              int32_t num_partitions, uint64_t range_chunk = 4096)
      : scheme_(scheme),
        key_space_(key_space == 0 ? 1 : key_space),
        num_partitions_(num_partitions <= 0 ? 1 : num_partitions),
        range_chunk_(range_chunk == 0 ? 1 : range_chunk) {}

  int32_t num_partitions() const { return num_partitions_; }
  PartitionScheme scheme() const { return scheme_; }
  uint64_t key_space() const { return key_space_; }

  int32_t PartitionOf(uint64_t key) const {
    switch (scheme_) {
      case PartitionScheme::kHash:
        return static_cast<int32_t>(Hash64(key) % num_partitions_);
      case PartitionScheme::kRange: {
        uint64_t width = (key_space_ + num_partitions_ - 1) /
                         num_partitions_;
        uint64_t p = key / width;
        return static_cast<int32_t>(
            p >= static_cast<uint64_t>(num_partitions_)
                ? num_partitions_ - 1
                : p);
      }
      case PartitionScheme::kHashRange:
        return static_cast<int32_t>(Hash64(key / range_chunk_) %
                                    num_partitions_);
    }
    return 0;
  }

  /// kRange only: the keys [begin, end) below `num_rows` that map to
  /// `partition` (keys at or beyond num_rows clamp into the last
  /// partition but are outside every range).
  std::pair<uint64_t, uint64_t> RangeOf(int32_t partition,
                                        uint64_t num_rows) const {
    const uint64_t width =
        (key_space_ + num_partitions_ - 1) / num_partitions_;
    const uint64_t begin =
        std::min(num_rows, width * static_cast<uint64_t>(partition));
    return {begin, std::min(num_rows, begin + width)};
  }

  int32_t ServerOf(uint64_t key, int32_t num_servers) const {
    return PartitionOf(key) % num_servers;
  }

 private:
  PartitionScheme scheme_ = PartitionScheme::kHash;
  uint64_t key_space_ = 1;
  int32_t num_partitions_ = 1;
  uint64_t range_chunk_ = 4096;
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_PARTITIONER_H_
