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
//
// Gathering rows by key runs the same dense pattern the other way round.
// SortedDistinctKeys marks every id a batch reads in a thread-local
// touched bitmap and walks it once, so the pull list comes out sorted and
// deduplicated without a sort; WithKeySlots then maps each pulled key to
// its row with one indexed load from a thread-local [num_keys] slot table
// instead of a binary search. The two are separate calls so no scratch
// stays claimed across the pull itself.

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

// This thread's key-gathering scratch, shared by every caller (a
// thread_local inside the templates would be one per instantiation): a
// touched bitmap over [0, num_keys), all zero between calls, and a
// [num_keys] slot table.
inline std::vector<uint64_t>& KeyBitmapScratch(uint64_t num_keys) {
  thread_local std::vector<uint64_t> bits;
  const size_t words = (num_keys + 63) / 64;
  if (bits.size() < words) bits.resize(words, 0);
  return bits;
}

inline std::vector<uint32_t>& KeySlotScratch(uint64_t num_keys) {
  thread_local std::vector<uint32_t> slots;
  if (slots.size() < num_keys) slots.resize(num_keys);
  return slots;
}

/// Replaces `out` with the distinct ids, ascending, that
/// for_each_id(visit) passes to visit. for_each_id runs twice: once to
/// check every id against [0, num_keys) — failing with InvalidArgument
/// before the scratch is touched — and once to mark them.
template <typename ForEachId>
Status SortedDistinctKeys(uint64_t num_keys, ForEachId&& for_each_id,
                          std::vector<uint64_t>* out) {
  bool out_of_range = false;
  uint64_t bad_key = 0;
  for_each_id([&](uint64_t id) {
    if (id >= num_keys && !out_of_range) {
      out_of_range = true;
      bad_key = id;
    }
  });
  if (out_of_range) {
    return Status::InvalidArgument(
        "key " + std::to_string(bad_key) + " outside the id space [0, " +
        std::to_string(num_keys) + ")");
  }
  std::vector<uint64_t>& bits = KeyBitmapScratch(num_keys);
  for_each_id(
      [&](uint64_t id) { bits[id >> 6] |= uint64_t{1} << (id & 63); });
  out->clear();
  const size_t words = (num_keys + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t b = bits[w]; b != 0; b &= b - 1) {
      out->push_back(w * 64 + static_cast<uint64_t>(__builtin_ctzll(b)));
    }
    bits[w] = 0;
  }
  return Status::OK();
}

/// Runs fn(slot_of), where slot_of(key) is the index of `key` in `keys`.
/// `keys` must be distinct, each below num_keys, and fewer than 2^32 (a
/// SortedDistinctKeys result); slot_of may only be asked for those keys.
template <typename Fn>
void WithKeySlots(uint64_t num_keys, const std::vector<uint64_t>& keys,
                  Fn&& fn) {
  std::vector<uint32_t>& slots = KeySlotScratch(num_keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    slots[keys[i]] = static_cast<uint32_t>(i);
  }
  const uint32_t* table = slots.data();
  fn([table](uint64_t key) -> size_t { return table[key]; });
}

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_CONTRIBUTION_BATCH_H_
