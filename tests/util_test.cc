// Status/Result, hex, histogram and RNG determinism.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/arena.h"
#include "util/flat_hash_map.h"
#include "util/hex.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/status.h"
#include "wire/wire.h"

namespace seemore {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "Ok");
  Status s = Status::Corruption("bad bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.ToString(), "Corruption: bad bytes");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  EXPECT_EQ(ok_result.value_or(7), 42);

  Result<int> err_result(Status::NotFound("missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err_result.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  SEEMORE_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

TEST(HexTest, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
  EXPECT_TRUE(HexDecode("0001ABFF").ok());  // case-insensitive
  EXPECT_FALSE(HexDecode("abc").ok());      // odd length
  EXPECT_FALSE(HexDecode("zz").ok());       // non-hex
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 100000);
  EXPECT_NEAR(h.Mean(), 50500.0, 1.0);
  EXPECT_GT(h.Percentile(50.0), 20000.0);
  EXPECT_LT(h.Percentile(50.0), 80000.0);
  EXPECT_GE(h.Percentile(99.0), h.Percentile(50.0));
  EXPECT_LE(h.Percentile(100.0), 100000.0);
}

TEST(HistogramTest, EmptyAndClear) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  h.Record(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Record(10);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 30);
  EXPECT_NEAR(a.Mean(), 20.0, 0.01);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  h.Record(int64_t{1} << 50);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max(), int64_t{1} << 50);
}

TEST(RngTest, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / 20000.0, 4.0, 0.15);
}

TEST(FlatHashMapTest, InsertFindErase) {
  FlatHashMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());

  m[1] = "one";
  auto [it, inserted] = m.try_emplace(2, "two");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "two");
  EXPECT_FALSE(m.try_emplace(2, "TWO").second);  // no overwrite
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(2)->second, "two");
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(3));

  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatHashMapTest, GrowthKeepsAllEntries) {
  FlatHashMap<uint64_t, uint64_t> m;
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) m[i * 7919] = i;
  EXPECT_EQ(m.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    auto it = m.find(i * 7919);
    ASSERT_NE(it, m.end()) << i;
    EXPECT_EQ(it->second, i);
  }
  uint64_t count = 0;
  for (const auto& kv : m) {
    EXPECT_EQ(kv.first, kv.second * 7919);
    ++count;
  }
  EXPECT_EQ(count, kN);
}

TEST(FlatHashMapTest, TombstoneChurnStaysBounded) {
  // Insert/erase cycles must not poison probe chains or leak slots: the
  // in-place tombstone rehash keeps lookups working at steady-state size.
  FlatHashMap<int, int> m;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) m[round * 64 + i] = i;
    for (int i = 0; i < 64; ++i) EXPECT_EQ(m.erase(round * 64 + i), 1u);
  }
  EXPECT_TRUE(m.empty());
  m[42] = 7;
  EXPECT_EQ(m.find(42)->second, 7);
}

TEST(FlatHashMapTest, EraseByIteratorAdvances) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 2 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 50u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.contains(i), i % 2 == 1);
}

TEST(ArenaTest, BumpAllocationAndAlignment) {
  Arena arena(/*chunk_bytes=*/256);
  uint8_t* a = arena.Allocate(10, 1);
  uint8_t* b = arena.Allocate(10, 1);
  // Same chunk: the second allocation bumps past the first.
  EXPECT_EQ(b, a + 10);
  // Alignment holds on absolute addresses up to alignof(max_align_t) (the
  // chunk base's own guarantee from operator new[]).
  uint8_t* c = arena.Allocate(1, alignof(std::max_align_t));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % alignof(std::max_align_t), 0u);
  EXPECT_GE(arena.bytes_in_use(), 21u);
}

TEST(ArenaTest, ResetReusesCapacityWithoutReallocating) {
  Arena arena(/*chunk_bytes=*/128);
  // Fill several chunks, note the footprint, then reset: the next interval
  // must hand out the same memory again with zero new reservation (the
  // steady-state contract the replica hot path depends on).
  for (int i = 0; i < 10; ++i) arena.Allocate(100);
  uint8_t* first_round = arena.Allocate(64);
  const size_t reserved = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  uint8_t* second_round = nullptr;
  for (int i = 0; i < 10; ++i) arena.Allocate(100);
  second_round = arena.Allocate(64);
  EXPECT_EQ(second_round, first_round);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, OversizedRequestGetsExactChunk) {
  Arena arena(/*chunk_bytes=*/64);
  const size_t before = arena.bytes_reserved();
  uint8_t* big = arena.Allocate(1000);
  ASSERT_NE(big, nullptr);
  // One huge request reserves exactly its own size, not a multiple of the
  // chunk size — a single large message can't inflate every interval.
  EXPECT_EQ(arena.bytes_reserved(), before + 1000);
  big[0] = 1;
  big[999] = 2;  // whole extent is writable
  // Small allocations keep working after an oversized chunk.
  uint8_t* small = arena.Allocate(8);
  ASSERT_NE(small, nullptr);
  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(ArenaTest, AllocateArrayDefaultConstructs) {
  Arena arena;
  struct Span {
    uint32_t offset = 7;
    const uint8_t* data = nullptr;
    size_t len = 0;
  };
  Span* spans = arena.AllocateArray<Span>(33);
  for (size_t i = 0; i < 33; ++i) {
    EXPECT_EQ(spans[i].offset, 7u);
    EXPECT_EQ(spans[i].data, nullptr);
    EXPECT_EQ(spans[i].len, 0u);
  }
  EXPECT_EQ(reinterpret_cast<uintptr_t>(spans) % alignof(Span), 0u);
}

TEST(ArenaTest, ArenaVectorUsesArenaStorage) {
  Arena arena;
  ArenaVector<uint64_t> v{ArenaAllocator<uint64_t>(&arena)};
  for (uint64_t i = 0; i < 100; ++i) v.push_back(i);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
  // Element storage came from the arena (growth leaks old capacity into the
  // arena by design — deallocate is a no-op until Reset).
  EXPECT_GE(arena.bytes_in_use(), 100 * sizeof(uint64_t));
}

}  // namespace
}  // namespace seemore
