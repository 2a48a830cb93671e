// RowStore: the float-row storage of one matrix shard.
//
// Two physical layouts behind one interface:
//
// - Dense (slab): for row-partitioned, range-partitioned matrices, whose
//   keys on a server form one contiguous owned range [begin, end). Rows
//   live in a slab of [rows x cols] floats addressed by offset within the
//   range. The slab is split into fixed-size pages allocated on first
//   touch, so a huge id space with a few hot keys costs only the pages
//   those keys land in. A presence bitmap per page keeps "never pushed"
//   distinct from "pushed": absent rows read as init_value and the first
//   touch of a row is what the server charges memory for. Rows never
//   move once materialized, and iteration is in ascending key order.
//
// - Sparse: every other matrix (hash, hash-range, column-partitioned)
//   keeps one FlatHashMap entry per materialized row, iterated in slot
//   order, exactly as before the slab existed.
//
// The sim memory charge of a row is the same in both layouts (the server
// charges it, not the store): the simulated cluster models the paper's
// testbed, the physical layout is how this process holds it.

#ifndef PSGRAPH_PS_ROW_STORE_H_
#define PSGRAPH_PS_ROW_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"

namespace psgraph::ps {

class RowStore {
 public:
  RowStore() = default;
  /// Sparse store with rows of `cols` floats; absent rows read as
  /// init_value.
  RowStore(uint32_t cols, float init_value)
      : cols_(cols), init_value_(init_value) {}

  /// Dense store over the owned key range [begin, end) when its page
  /// directory stays small; sparse otherwise.
  static RowStore ForRange(uint64_t begin, uint64_t end, uint32_t cols,
                           float init_value);

  bool dense() const { return dense_; }
  /// Materialized rows.
  size_t size() const { return dense_ ? dense_rows_ : sparse_.size(); }
  /// Dense stores own exactly [owned_begin, owned_end); sparse stores
  /// accept any key.
  bool Owns(uint64_t key) const {
    return !dense_ || (key >= begin_ && key < end_);
  }
  uint64_t owned_begin() const { return begin_; }
  uint64_t owned_end() const { return end_; }
  /// Pages of slab storage allocated so far (0 for a sparse store).
  size_t allocated_pages() const { return allocated_pages_; }

  bool Contains(uint64_t key) const {
    if (!dense_) return sparse_.contains(key);
    const Page* page = PageOf(key);
    return page != nullptr && page->Has(SlotOf(key));
  }

  /// The row of `key`, or nullptr if it was never materialized. A
  /// materialized zero-width row is a non-null pointer too.
  const float* Find(uint64_t key) const {
    return const_cast<RowStore*>(this)->Find(key);
  }
  float* Find(uint64_t key) {
    if (!dense_) {
      auto it = sparse_.find(key);
      return it == sparse_.end() ? nullptr : Data(it->second);
    }
    Page* page = PageOf(key);
    const uint64_t slot = SlotOf(key);
    return page != nullptr && page->Has(slot)
               ? page->data.get() + slot * cols_
               : nullptr;
  }

  /// The row of `key`, materialized and filled with init_value if it was
  /// absent. The key must be owned. Sparse rows relocate on rehash, so a
  /// returned pointer is only valid until the next insertion; dense rows
  /// never move.
  float* FindOrInsert(uint64_t key) {
    if (!dense_) {
      auto [it, inserted] = sparse_.try_emplace(key);
      if (inserted) it->second.assign(cols_, init_value_);
      return Data(it->second);
    }
    const uint64_t local = key - begin_;
    std::unique_ptr<Page>& page = pages_[local >> page_shift_];
    if (page == nullptr) AllocatePage(local >> page_shift_);
    const uint64_t slot = local & page_mask_;
    float* row = page->data.get() + slot * cols_;
    if (!page->Has(slot)) {
      page->Set(slot);
      ++dense_rows_;
      std::fill_n(row, cols_, init_value_);
    }
    return row;
  }

  /// Calls fn(key, row) for every materialized row: ascending key order
  /// when dense, slot order when sparse. fn returns void, or a Status
  /// that stops the walk and is returned when not OK.
  template <typename Fn>
  Status ForEach(Fn&& fn) {
    return ForEachImpl(*this, fn);
  }
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    return ForEachImpl(*this, fn);
  }

 private:
  struct Page {
    std::unique_ptr<float[]> data;  ///< rows x cols, written on insert
    std::unique_ptr<uint64_t[]> present;  ///< one bit per row
    bool Has(uint64_t slot) const {
      return (present[slot >> 6] >> (slot & 63)) & 1;
    }
    void Set(uint64_t slot) {
      present[slot >> 6] |= uint64_t{1} << (slot & 63);
    }
  };

  static float* Data(std::vector<float>& row) {
    // Zero-width rows (an empty column slice) still count as present.
    return row.empty() ? &empty_row_ : row.data();
  }
  Page* PageOf(uint64_t key) const {
    if (key < begin_ || key >= end_) return nullptr;
    return pages_[(key - begin_) >> page_shift_].get();
  }
  uint64_t SlotOf(uint64_t key) const { return (key - begin_) & page_mask_; }
  uint64_t PageRows(size_t page) const;
  void AllocatePage(size_t page);

  template <typename Self, typename Fn>
  static Status ForEachImpl(Self& self, Fn& fn) {
    using Row = std::conditional_t<std::is_const_v<Self>, const float*,
                                   float*>;
    auto call = [&fn](uint64_t key, Row row) -> Status {
      if constexpr (std::is_void_v<
                        std::invoke_result_t<Fn&, uint64_t, Row>>) {
        fn(key, row);
        return Status::OK();
      } else {
        return fn(key, row);
      }
    };
    if (!self.dense_) {
      for (auto& [key, row] : self.sparse_) {
        Status st = call(key, Data(const_cast<std::vector<float>&>(row)));
        if (!st.ok()) return st;
      }
      return Status::OK();
    }
    for (size_t p = 0; p < self.pages_.size(); ++p) {
      const Page* page = self.pages_[p].get();
      if (page == nullptr) continue;
      const uint64_t first = self.begin_ + (uint64_t{p} << self.page_shift_);
      const uint64_t words = (self.PageRows(p) + 63) / 64;
      for (uint64_t w = 0; w < words; ++w) {
        for (uint64_t bits = page->present[w]; bits != 0; bits &= bits - 1) {
          const uint64_t slot = w * 64 + static_cast<uint64_t>(
                                             __builtin_ctzll(bits));
          Status st = call(first + slot,
                           page->data.get() + slot * self.cols_);
          if (!st.ok()) return st;
        }
      }
    }
    return Status::OK();
  }

  static inline float empty_row_ = 0.0f;

  bool dense_ = false;
  uint32_t cols_ = 0;
  float init_value_ = 0.0f;
  // Sparse layout.
  FlatHashMap<std::vector<float>> sparse_;
  // Dense layout.
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  uint32_t page_shift_ = 0;
  uint64_t page_mask_ = 0;
  std::vector<std::unique_ptr<Page>> pages_;
  size_t allocated_pages_ = 0;
  size_t dense_rows_ = 0;
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_ROW_STORE_H_
