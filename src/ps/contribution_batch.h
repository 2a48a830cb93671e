// Dense accumulation of scattered per-key contributions into key-sorted
// push batches.
//
// Graph algorithms on the PS (delta PageRank, its incremental variant)
// scatter one contribution per edge into the destination's slot, then
// push every touched destination as one `add` batch. The executor side
// therefore needs a scatter-add over a dense id space and a compact,
// key-sorted (keys, values) list at the end. AccumulateInto does both on
// a thread-local [num_keys] scratch with a touched bitmap: Add is one
// indexed add, and gathering walks the bitmap once, so the batch comes out
// sorted without a sort and the scratch is left zeroed for the next call.
//
// An executor whose work spans several dataflow partitions keeps one
// running batch and passes it to every partition's AccumulateInto; the
// batch is scattered back into the scratch first, so each key sees the
// same sequence of float additions as one accumulator kept alive across
// the partitions would.

#ifndef PSGRAPH_PS_CONTRIBUTION_BATCH_H_
#define PSGRAPH_PS_CONTRIBUTION_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace psgraph::ps {

/// Distinct keys in ascending order, with one accumulated value each.
template <typename T>
struct ContributionBatch {
  std::vector<uint64_t> keys;
  std::vector<T> values;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }
  void clear() {
    keys.clear();
    values.clear();
  }
};

/// The scatter target handed to an AccumulateInto callback.
template <typename T>
class DenseAccumulator {
 public:
  /// values[key] += v. A key at or beyond num_keys is not accumulated; it
  /// fails the enclosing AccumulateInto.
  void Add(uint64_t key, T v) {
    if (key >= num_keys_) {
      if (!out_of_range_) {
        out_of_range_ = true;
        bad_key_ = key;
      }
      return;
    }
    touched_[key >> 6] |= uint64_t{1} << (key & 63);
    values_[key] += v;
  }

 private:
  template <typename U, typename Fn>
  friend Status AccumulateInto(uint64_t num_keys, ContributionBatch<U>* batch,
                               Fn&& scatter);

  void Reset(uint64_t num_keys) {
    num_keys_ = num_keys;
    if (values_.size() < num_keys) {
      values_.resize(num_keys, T{});
      touched_.resize((num_keys + 63) / 64, 0);
    }
    out_of_range_ = false;
  }

  /// Moves every touched slot, ascending, into `batch` and zeroes it.
  void Gather(ContributionBatch<T>* batch) {
    batch->clear();
    const size_t words = (num_keys_ + 63) / 64;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = touched_[w]; bits != 0; bits &= bits - 1) {
        const uint64_t key =
            w * 64 + static_cast<uint64_t>(__builtin_ctzll(bits));
        batch->keys.push_back(key);
        batch->values.push_back(values_[key]);
        values_[key] = T{};
      }
      touched_[w] = 0;
    }
  }

  uint64_t num_keys_ = 0;
  std::vector<T> values_;
  std::vector<uint64_t> touched_;
  bool out_of_range_ = false;
  uint64_t bad_key_ = 0;
};

/// Runs scatter(acc) over this thread's dense scratch for keys
/// [0, num_keys), seeded with `batch`, and replaces `batch` with the
/// result. Fails with InvalidArgument if scatter added to a key outside
/// the range (`batch` then holds the in-range contributions). scatter
/// must not itself call AccumulateInto for the same value type.
template <typename T, typename Fn>
Status AccumulateInto(uint64_t num_keys, ContributionBatch<T>* batch,
                      Fn&& scatter) {
  thread_local DenseAccumulator<T> acc;
  acc.Reset(num_keys);
  // Earlier partitions' sums come back as the starting values: x + 0 is
  // x, so the next addition to each key rounds exactly as it would have
  // without the round trip.
  for (size_t i = 0; i < batch->size(); ++i) {
    acc.Add(batch->keys[i], batch->values[i]);
  }
  scatter(acc);
  acc.Gather(batch);
  if (acc.out_of_range_) {
    return Status::InvalidArgument(
        "contribution to key " + std::to_string(acc.bad_key_) +
        " outside the id space [0, " + std::to_string(num_keys) + ")");
  }
  return Status::OK();
}

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_CONTRIBUTION_BATCH_H_
