#include "ps/row_store.h"

#include <bit>

namespace psgraph::ps {

namespace {
/// Slab page size. Wide rows get fewer rows per page (at least one), so a
/// page's first touch costs the same whatever the row width.
constexpr uint64_t kPageBytes = 64 << 10;
/// A directory larger than this (an id space far beyond what one server
/// could ever fill) falls back to the sparse layout.
constexpr uint64_t kMaxPages = 1 << 20;
}  // namespace

RowStore RowStore::ForRange(uint64_t begin, uint64_t end, uint32_t cols,
                            float init_value) {
  RowStore store(cols, init_value);
  const uint64_t row_bytes = std::max<uint64_t>(1, uint64_t{cols} * 4);
  const uint64_t rows_per_page =
      std::bit_floor(std::max<uint64_t>(1, kPageBytes / row_bytes));
  const uint64_t span = end > begin ? end - begin : 0;
  const uint64_t num_pages = (span + rows_per_page - 1) / rows_per_page;
  if (num_pages > kMaxPages) return store;
  store.dense_ = true;
  store.begin_ = begin;
  store.end_ = begin + span;
  store.page_shift_ = static_cast<uint32_t>(std::countr_zero(rows_per_page));
  store.page_mask_ = rows_per_page - 1;
  store.pages_.resize(num_pages);
  return store;
}

uint64_t RowStore::PageRows(size_t page) const {
  const uint64_t first = uint64_t{page} << page_shift_;
  return std::min<uint64_t>(page_mask_ + 1, (end_ - begin_) - first);
}

void RowStore::AllocatePage(size_t page) {
  // The last page only spans what is left of the range, so a range
  // smaller than one page costs exactly its rows.
  const uint64_t rows = PageRows(page);
  auto p = std::make_unique<Page>();
  p->data = std::make_unique_for_overwrite<float[]>(rows * cols_);
  p->present = std::make_unique<uint64_t[]>((rows + 63) / 64);
  pages_[page] = std::move(p);
  ++allocated_pages_;
}

}  // namespace psgraph::ps
