// LEB128 varints and delta-encoded integer lists: the compact framing
// used by the PS RPC wire format and serving snapshot blobs.
//
// Key batches and neighbor tables dominate payload bytes at PSGraph
// scale; both arrive (nearly) sorted, so "varint(first) + zigzag varint
// deltas" shrinks an 8-byte key to 1-2 bytes in the common case while
// still round-tripping arbitrary (unsorted, duplicate) lists losslessly.
// Decoding is bounds-checked and fail-loud: a truncated or overlong
// varint returns a Status naming the byte offset, never garbage.

#ifndef PSGRAPH_COMMON_VARINT_H_
#define PSGRAPH_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace psgraph {

/// Longest LEB128 encoding of a uint64_t (10 * 7 bits >= 64 bits).
inline constexpr size_t kMaxVarint64Bytes = 10;

/// Writes `v` as a LEB128 varint (1..10 bytes, little-endian 7-bit
/// groups, high bit = continuation) at `dst` and returns one past its
/// last byte.
inline uint8_t* EncodeVarint64(uint8_t* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<uint8_t>(v);
  return dst;
}

/// Appends `v` as a LEB128 varint.
inline void PutVarint64(ByteBuffer* buf, uint64_t v) {
  uint8_t tmp[kMaxVarint64Bytes];
  buf->WriteRaw(tmp, static_cast<size_t>(EncodeVarint64(tmp, v) - tmp));
}

/// Number of bytes PutVarint64 would write for `v`: one per started
/// 7-bit group of its significant bits (0 counts as one bit).
inline size_t Varint64Size(uint64_t v) {
  const int bits = 64 - __builtin_clzll(v | 1);
  return static_cast<size_t>(bits + 6) / 7;
}

/// Reads one LEB128 varint. Errors name the offset of the varint's first
/// byte: truncation (buffer ends mid-varint) and overlong/overflowing
/// encodings (more than 10 bytes, or bit 64+ set) are both rejected.
inline Status GetVarint64(ByteReader* reader, uint64_t* out) {
  const size_t start = reader->position();
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxVarint64Bytes; ++i) {
    uint8_t byte = 0;
    Status st = reader->Read(&byte);
    if (!st.ok()) {
      return Status::OutOfRange("varint: truncated at offset " +
                                std::to_string(start));
    }
    // The 10th byte may only contribute the final bit (64 = 9*7 + 1).
    if (i == kMaxVarint64Bytes - 1 && byte > 0x01) {
      return Status::InvalidArgument("varint: overflow at offset " +
                                     std::to_string(start));
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      *out = value;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("varint: overlong encoding at offset " +
                                 std::to_string(start));
}

/// Maps signed deltas onto small unsigned varints (0,-1,1,-2,... ->
/// 0,1,2,3,...).
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Encoded size of PutDeltaList(values) without writing it.
inline size_t DeltaListSize(const uint64_t* values, size_t count) {
  size_t bytes = Varint64Size(count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    bytes += (i == 0)
                 ? Varint64Size(values[0])
                 : Varint64Size(
                       ZigZagEncode(static_cast<int64_t>(values[i] - prev)));
    prev = values[i];
  }
  return bytes;
}

/// Appends `values` as [varint count][varint first][zigzag varint deltas].
/// Deltas are signed, so unsorted or duplicate-bearing lists round-trip
/// exactly; sorted lists (the PS batch common case) compress best. The
/// list is sized first and written in one append of exactly that many
/// bytes.
inline void PutDeltaList(ByteBuffer* buf, const uint64_t* values,
                         size_t count) {
  uint8_t* p = buf->Extend(DeltaListSize(values, count));
  p = EncodeVarint64(p, count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    p = EncodeVarint64(
        p, i == 0 ? values[0]
                  : ZigZagEncode(static_cast<int64_t>(values[i] - prev)));
    prev = values[i];
  }
}

inline void PutDeltaList(ByteBuffer* buf, const std::vector<uint64_t>& v) {
  PutDeltaList(buf, v.data(), v.size());
}

/// Decodes one well-formed varint from `p`, which must have at least
/// kMaxVarint64Bytes readable bytes. Returns the bytes consumed, or 0 for
/// an overlong or overflowing encoding (left to GetVarint64 to report).
inline size_t DecodeVarint64Unchecked(const uint8_t* p, uint64_t* out) {
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxVarint64Bytes; ++i) {
    const uint64_t byte = p[i];
    if (i == kMaxVarint64Bytes - 1 && byte > 0x01) return 0;
    value |= (byte & 0x7f) << (7 * i);
    if (byte < 0x80) {
      *out = value;
      return i + 1;
    }
  }
  return 0;
}

/// Reads a PutDeltaList payload, appending the decoded values to `out`
/// (any vector-like container of uint64_t with resize/data/size). While
/// at least kMaxVarint64Bytes remain, values are decoded from a raw
/// cursor; the tail and any malformed varint go through the checked
/// GetVarint64, so errors carry its text and offset. On error `out` holds
/// the values decoded before the bad one.
template <typename Container>
Status GetDeltaList(ByteReader* reader, Container* out) {
  const size_t start = reader->position();
  uint64_t count = 0;
  PSG_RETURN_NOT_OK(GetVarint64(reader, &count));
  // Each value takes at least one encoded byte: a count the buffer cannot
  // possibly hold is corruption, not a huge allocation request.
  if (count > reader->remaining()) {
    return Status::OutOfRange(
        "delta list: count " + std::to_string(count) + " at offset " +
        std::to_string(start) + " exceeds remaining " +
        std::to_string(reader->remaining()) + " bytes");
  }
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(count));
  uint64_t* dst = out->data() + base;
  uint64_t prev = 0;
  size_t i = 0;
  // Bulk path: every varint read here has its 10 bytes in bounds.
  if (reader->remaining() >= kMaxVarint64Bytes) {
    const uint8_t* const begin = reader->cursor();
    const uint8_t* const bulk_end =
        begin + (reader->remaining() - kMaxVarint64Bytes);
    const uint8_t* p = begin;
    for (; i < count && p <= bulk_end; ++i) {
      uint64_t raw = 0;
      const size_t n = DecodeVarint64Unchecked(p, &raw);
      if (n == 0) break;
      p += n;
      prev = (i == 0) ? raw : prev + static_cast<uint64_t>(ZigZagDecode(raw));
      dst[i] = prev;
    }
    reader->Skip(static_cast<size_t>(p - begin));
  }
  for (; i < count; ++i) {
    uint64_t raw = 0;
    Status st = GetVarint64(reader, &raw);
    if (!st.ok()) {
      out->resize(base + i);
      return st;
    }
    prev = (i == 0) ? raw : prev + static_cast<uint64_t>(ZigZagDecode(raw));
    dst[i] = prev;
  }
  return Status::OK();
}

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_VARINT_H_
