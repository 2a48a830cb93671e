// Tests for the varint/delta wire framing (common/varint.h,
// common/wire.h): LEB128 boundaries, fail-loud truncated/overlong
// decoding, delta-list round trips for sorted/unsorted/duplicate key
// lists, and float blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "common/varint.h"
#include "common/wire.h"

namespace psgraph {
namespace {

uint64_t RoundTripVarint(uint64_t v, size_t* encoded_bytes = nullptr) {
  ByteBuffer buf;
  PutVarint64(&buf, v);
  if (encoded_bytes != nullptr) *encoded_bytes = buf.size();
  EXPECT_EQ(buf.size(), Varint64Size(v));
  ByteReader reader(buf);
  uint64_t out = 0;
  EXPECT_TRUE(GetVarint64(&reader, &out).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  return out;
}

TEST(VarintTest, BoundaryValuesRoundTrip) {
  // The LEB128 length steps at every 7-bit boundary.
  struct Case {
    uint64_t value;
    size_t bytes;
  };
  const Case cases[] = {
      {0, 1},
      {1, 1},
      {127, 1},
      {128, 2},
      {16383, 2},
      {16384, 3},
      {(1ull << 35) - 1, 5},
      {1ull << 35, 6},
      {(1ull << 63), 10},
      {std::numeric_limits<uint64_t>::max(), 10},
  };
  for (const Case& c : cases) {
    size_t bytes = 0;
    EXPECT_EQ(RoundTripVarint(c.value, &bytes), c.value);
    EXPECT_EQ(bytes, c.bytes) << "value " << c.value;
  }
}

TEST(VarintTest, ExhaustiveSmallAndRandomLargeRoundTrip) {
  for (uint64_t v = 0; v < 4096; ++v) {
    EXPECT_EQ(RoundTripVarint(v), v);
  }
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextU64();
    EXPECT_EQ(RoundTripVarint(v), v);
  }
}

TEST(VarintTest, TruncatedInputNamesOffset) {
  ByteBuffer buf;
  buf.Write<uint8_t>(0x42);          // one complete varint at offset 0
  PutVarint64(&buf, 5000000000ull);  // multi-byte varint at offset 1
  // Drop the final byte: the second varint is now truncated.
  ByteReader reader(buf.data().data(), buf.size() - 1);
  uint64_t out = 0;
  ASSERT_TRUE(GetVarint64(&reader, &out).ok());
  Status st = GetVarint64(&reader, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
  EXPECT_NE(st.ToString().find("offset 1"), std::string::npos)
      << st.ToString();
}

TEST(VarintTest, OverlongAndOverflowingEncodingsRejected) {
  {
    // Eleven continuation bytes: no terminator within the legal window.
    ByteBuffer buf;
    for (int i = 0; i < 11; ++i) buf.Write<uint8_t>(0x80);
    ByteReader reader(buf);
    uint64_t out = 0;
    Status st = GetVarint64(&reader, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument) << st.ToString();
  }
  {
    // Ten bytes whose last contributes more than the single bit a
    // uint64_t has room for: value would overflow.
    ByteBuffer buf;
    for (int i = 0; i < 9; ++i) buf.Write<uint8_t>(0xff);
    buf.Write<uint8_t>(0x02);
    ByteReader reader(buf);
    uint64_t out = 0;
    Status st = GetVarint64(&reader, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.ToString().find("overflow"), std::string::npos);
  }
}

TEST(VarintTest, ZigZagIsBijectiveOnExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes map to small codes (the compression property).
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

std::vector<uint64_t> RoundTripDeltaList(const std::vector<uint64_t>& in) {
  ByteBuffer buf;
  PutDeltaList(&buf, in);
  EXPECT_EQ(buf.size(), DeltaListSize(in.data(), in.size()));
  ByteReader reader(buf);
  std::vector<uint64_t> out;
  EXPECT_TRUE(GetDeltaList(&reader, &out).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  return out;
}

TEST(DeltaListTest, SortedUnsortedDuplicateAndEmptyListsRoundTrip) {
  const std::vector<std::vector<uint64_t>> cases = {
      {},
      {0},
      {42},
      {1, 2, 3, 100, 101, 1000000},
      // Unsorted: deltas go negative and must zigzag round-trip.
      {100, 1, 50, 0, std::numeric_limits<uint64_t>::max(), 7},
      // Duplicates: zero deltas.
      {5, 5, 5, 9, 9, 5},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RoundTripDeltaList(c), c);
  }
  Rng rng(9);
  std::vector<uint64_t> random(5000);
  for (auto& v : random) v = rng.NextU64();
  EXPECT_EQ(RoundTripDeltaList(random), random);
}

TEST(DeltaListTest, SortedKeysCompressWellBelowFixedWidth) {
  // The PS batch common case: 4096 sorted keys from a 2^20 space fit
  // in ~2 bytes each vs 8 fixed — the whole point of the format.
  Rng rng(11);
  std::vector<uint64_t> keys(4096);
  for (auto& k : keys) k = rng.NextBounded(1ull << 20);
  std::sort(keys.begin(), keys.end());
  const size_t encoded = DeltaListSize(keys.data(), keys.size());
  EXPECT_LT(encoded, keys.size() * sizeof(uint64_t) / 2);
}

TEST(DeltaListTest, CorruptCountRejectedBeforeAllocation) {
  // A huge count with a tiny payload is corruption; the decoder must
  // reject it instead of reserving terabytes.
  ByteBuffer buf;
  PutVarint64(&buf, 1ull << 60);
  buf.Write<uint8_t>(0x01);
  ByteReader reader(buf);
  std::vector<uint64_t> out;
  Status st = GetDeltaList(&reader, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
  EXPECT_NE(st.ToString().find("exceeds remaining"), std::string::npos);
}

TEST(DeltaListTest, TruncatedPayloadFailsLoud) {
  std::vector<uint64_t> keys = {10, 20, 30, 40};
  ByteBuffer buf;
  PutDeltaList(&buf, keys);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    ByteReader reader(buf.data().data(), buf.size() - cut);
    std::vector<uint64_t> out;
    EXPECT_FALSE(GetDeltaList(&reader, &out).ok())
        << "cut " << cut << " bytes and still decoded";
  }
}

// --- Differential checks of the bulk codec against per-value references.

/// PutDeltaList written one PutVarint64 at a time.
void ReferencePutDeltaList(ByteBuffer* buf, const std::vector<uint64_t>& v) {
  PutVarint64(buf, v.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    PutVarint64(buf, i == 0 ? v[0]
                            : ZigZagEncode(static_cast<int64_t>(v[i] - prev)));
    prev = v[i];
  }
}

/// The byte-at-a-time decoder: one checked GetVarint64 per value.
Status ReferenceGetDeltaList(ByteReader* reader, std::vector<uint64_t>* out) {
  const size_t start = reader->position();
  uint64_t count = 0;
  PSG_RETURN_NOT_OK(GetVarint64(reader, &count));
  if (count > reader->remaining()) {
    return Status::OutOfRange(
        "delta list: count " + std::to_string(count) + " at offset " +
        std::to_string(start) + " exceeds remaining " +
        std::to_string(reader->remaining()) + " bytes");
  }
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    PSG_RETURN_NOT_OK(GetVarint64(reader, &raw));
    uint64_t value =
        (i == 0) ? raw : prev + static_cast<uint64_t>(ZigZagDecode(raw));
    out->push_back(value);
    prev = value;
  }
  return Status::OK();
}

/// Decodes bytes[skip, len) with both decoders into lists that already
/// hold a value, and expects the same values, Status and end position.
void ExpectDecodersAgree(const std::vector<uint8_t>& bytes, size_t skip,
                         size_t len, const std::string& what) {
  ByteReader ref(bytes.data(), len);
  ByteReader got(bytes.data(), len);
  ref.Skip(skip);
  got.Skip(skip);
  std::vector<uint64_t> ref_out = {123};
  std::vector<uint64_t> got_out = {123};
  const Status ref_st = ReferenceGetDeltaList(&ref, &ref_out);
  const Status got_st = GetDeltaList(&got, &got_out);
  EXPECT_EQ(got_st.code(), ref_st.code()) << what;
  EXPECT_EQ(got_st.message(), ref_st.message()) << what;
  EXPECT_EQ(got_out, ref_out) << what;
  EXPECT_EQ(got.position(), ref.position()) << what;
}

/// A random list: sorted, unsorted or duplicate-heavy, over small or full
/// 64-bit values, with 0 and UINT64_MAX mixed in.
std::vector<uint64_t> RandomList(Rng& rng, size_t len) {
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const uint64_t kind = rng.NextBounded(4);
  std::vector<uint64_t> v(len);
  for (auto& x : v) {
    switch (rng.NextBounded(6)) {
      case 0: x = 0; break;
      case 1: x = kMax; break;
      case 2: x = rng.NextU64(); break;  // mostly 10-byte deltas
      default: x = rng.NextBounded(kind == 3 ? 4 : 1ull << 20); break;
    }
  }
  if (kind == 0) std::sort(v.begin(), v.end());
  if (kind == 1) std::sort(v.rbegin(), v.rend());
  return v;
}

TEST(DeltaListDifferentialTest, EncodeMatchesPerValueVarints) {
  Rng rng(21);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<std::vector<uint64_t>> lists = {
      {}, {0}, {kMax}, {0, kMax, 0, kMax}, {kMax, 1, kMax - 1}};
  for (int i = 0; i < 300; ++i) lists.push_back(RandomList(rng, i % 40));
  for (const auto& v : lists) {
    ByteBuffer got;
    got.Write<uint8_t>(0xab);  // appends after what is already there
    PutDeltaList(&got, v);
    ByteBuffer ref;
    ref.Write<uint8_t>(0xab);
    ReferencePutDeltaList(&ref, v);
    EXPECT_EQ(got.data(), ref.data());
    EXPECT_EQ(got.size(), 1 + DeltaListSize(v.data(), v.size()));
  }
}

TEST(DeltaListDifferentialTest, DecodeMatchesReferenceAtEveryTruncation) {
  Rng rng(22);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<std::vector<uint64_t>> lists = {
      {}, {0}, {kMax}, {0, kMax, 0, kMax}, {5, 5, 5, 9, 9, 5}};
  for (int i = 0; i < 200; ++i) lists.push_back(RandomList(rng, i % 30));
  for (size_t l = 0; l < lists.size(); ++l) {
    // A 3-byte header first, so error offsets are not list-relative, and
    // a second list behind it, so the first decodes entirely in bulk.
    ByteBuffer buf;
    buf.Write<uint8_t>(1);
    buf.Write<uint16_t>(2);
    PutDeltaList(&buf, lists[l]);
    PutDeltaList(&buf, lists[(l + 1) % lists.size()]);
    const std::vector<uint8_t>& bytes = buf.data();
    for (size_t len = 3; len <= bytes.size(); ++len) {
      ExpectDecodersAgree(bytes, 3, len,
                          "list " + std::to_string(l) + " cut at " +
                              std::to_string(len));
    }
  }
}

TEST(DeltaListDifferentialTest, MalformedVarintsMatchReference) {
  // Overflowing 10th bytes and a continuation bit on the 10th byte, at
  // every value position, followed by 0..12 valid bytes: the bad varint
  // lands both in the bulk window and in the checked tail, and every
  // truncation of the buffer is decoded too.
  const std::vector<std::vector<uint8_t>> bad = {
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f, 0x00},
  };
  const std::vector<uint64_t> good = {300, 1ull << 40, 7, 0};
  for (size_t b = 0; b < bad.size(); ++b) {
    for (size_t at = 0; at <= good.size(); ++at) {  // at == size: the count
      for (size_t pad = 0; pad <= 12; ++pad) {
        ByteBuffer buf;
        buf.Write<uint8_t>(9);
        if (at == good.size()) {
          buf.WriteRaw(bad[b].data(), bad[b].size());
        } else {
          PutVarint64(&buf, good.size() + 1);
          for (size_t i = 0; i < at; ++i) PutVarint64(&buf, good[i]);
          buf.WriteRaw(bad[b].data(), bad[b].size());
        }
        for (size_t i = 0; i < pad; ++i) buf.Write<uint8_t>(0x05);
        const std::vector<uint8_t>& bytes = buf.data();
        for (size_t len = 1; len <= bytes.size(); ++len) {
          ExpectDecodersAgree(bytes, 1, len,
                              "bad " + std::to_string(b) + " at " +
                                  std::to_string(at) + " pad " +
                                  std::to_string(pad) + " cut " +
                                  std::to_string(len));
        }
        // The untruncated buffer fails on the bad varint itself.
        ByteReader reader(bytes.data(), bytes.size());
        reader.Skip(1);
        std::vector<uint64_t> out;
        const Status st = GetDeltaList(&reader, &out);
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      }
    }
  }
}

TEST(FloatBlockTest, RoundTripAndAppendSemantics) {
  std::vector<float> values = {0.0f, -1.5f, 3.25f, 1e-30f, -1e30f};
  ByteBuffer buf;
  WriteFloatBlock(&buf, values);
  ByteReader reader(buf);
  std::vector<float> out = {99.0f};  // decoder appends, never clobbers
  ASSERT_TRUE(ReadFloatBlock(&reader, &out).ok());
  ASSERT_EQ(out.size(), values.size() + 1);
  EXPECT_EQ(out[0], 99.0f);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out[i + 1], values[i]);
  }
}

TEST(FloatBlockTest, CorruptCountAndTruncationRejected) {
  {
    ByteBuffer buf;
    PutVarint64(&buf, 1ull << 40);  // count no buffer could hold
    buf.Write<float>(1.0f);
    ByteReader reader(buf);
    std::vector<float> out;
    Status st = ReadFloatBlock(&reader, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
  }
  {
    std::vector<float> values(16, 2.0f);
    ByteBuffer buf;
    WriteFloatBlock(&buf, values);
    ByteReader reader(buf.data().data(), buf.size() - 3);
    std::vector<float> out;
    EXPECT_FALSE(ReadFloatBlock(&reader, &out).ok());
  }
}

TEST(WireFormatTest, MixedFramesDecodeInSequence) {
  // A pull-style payload: [delta keys][float block][delta keys] — each
  // frame must leave the reader exactly at the next frame's start.
  std::vector<uint64_t> keys = {3, 1, 4, 1, 5};
  std::vector<float> vals = {1.0f, 2.0f};
  std::vector<uint64_t> nbrs = {900, 901, 902};
  ByteBuffer buf;
  PutDeltaList(&buf, keys);
  WriteFloatBlock(&buf, vals);
  PutDeltaList(&buf, nbrs);
  ByteReader reader(buf);
  std::vector<uint64_t> keys_out, nbrs_out;
  std::vector<float> vals_out;
  ASSERT_TRUE(GetDeltaList(&reader, &keys_out).ok());
  ASSERT_TRUE(ReadFloatBlock(&reader, &vals_out).ok());
  ASSERT_TRUE(GetDeltaList(&reader, &nbrs_out).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(keys_out, keys);
  EXPECT_EQ(vals_out, vals);
  EXPECT_EQ(nbrs_out, nbrs);
}

}  // namespace
}  // namespace psgraph
