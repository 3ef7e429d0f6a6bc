// Differential tests for the batched accumulation kernels and the
// pluggable BitmapColumn: every container-aware fast path must produce
// exactly what the per-bit ForEach reference produces, for every container
// kind and both backends.

#include "bitmap/bitmap_column.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bitmap/kernels.h"
#include "bitmap/kernels_simd.h"
#include "core/simd_dispatch.h"
#include "util/random.h"

namespace les3 {
namespace bitmap {
namespace {

constexpr uint32_t kUniverse = 3000;  // one chunk, bitset-capable

/// Runs `fn` once pinned to each dispatch level this machine supports
/// (always at least scalar), restoring normal dispatch afterwards.
template <typename Fn>
void ForEachDispatchLevel(Fn&& fn) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(std::string("dispatch level ") + simd::LevelName(level));
    simd::SetLevelForTesting(level);
    fn();
  }
  simd::ClearLevelForTesting();
}

/// Value layouts that force each Roaring container kind within kUniverse.
std::vector<uint32_t> ArrayValues() {
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < 200; ++i) v.push_back(i * 13 % kUniverse);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<uint32_t> DenseValues() {
  // > 4096 would leave the chunk; instead spread over several chunks so at
  // least one becomes a bitset: use a wider universe for the bitset case.
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < 5000; ++i) v.push_back(i * 2);  // 0..9998, sparse
  return v;
}

std::vector<uint32_t> RunValues() {
  std::vector<uint32_t> v;
  for (uint32_t i = 100; i < 900; ++i) v.push_back(i);
  for (uint32_t i = 1500; i < 2800; ++i) v.push_back(i);
  return v;
}

/// Reference accumulation through ForEach.
std::vector<uint32_t> ReferenceCounts(const BitmapColumn& col,
                                      uint32_t num_groups, uint32_t weight,
                                      std::vector<uint32_t> base = {}) {
  base.resize(num_groups, 0);
  col.ForEach([&](uint32_t v) { base[v] += weight; });
  return base;
}

class BitmapColumnBackendTest
    : public ::testing::TestWithParam<BitmapBackend> {};

TEST_P(BitmapColumnBackendTest, AccumulateMatchesForEachPerKind) {
  ForEachDispatchLevel([this] {
    for (const auto& values : {ArrayValues(), DenseValues(), RunValues()}) {
      uint32_t n = values.back() + 1;
      BitmapColumn col = BitmapColumn::FromSorted(GetParam(), values);
      if (GetParam() == BitmapBackend::kRoaring) col.RunOptimize();
      // Accumulator path at Q = 1 (runs go through the difference array).
      std::vector<uint32_t> counts;
      BatchGroupCountAccumulator acc;
      acc.Reset(1, n, &counts);
      const QueryWeight sub{0, 3};
      col.AccumulateIntoBatch(acc, &sub, 1);
      acc.Finish();
      EXPECT_EQ(counts, ReferenceCounts(col, n, 3));
      // Direct-array path.
      std::vector<uint32_t> direct(n, 0);
      col.AccumulateInto(direct.data(), direct.size(), 3);
      EXPECT_EQ(direct, ReferenceCounts(col, n, 3));
    }
  });
}

TEST(AccumulateWordsTest, VectorTiersMatchScalarAtEveryBoundary) {
  // The vector kernels read-modify-write whole 64-counter word spans; the
  // dangerous inputs are counter arrays that end mid-word, density around
  // the vectorization cutoff, and bits at lane boundaries. Differential
  // against the scalar kernel over random words at every dispatch level,
  // with counts_size swept across the last word.
  Rng rng(53);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_words = 1 + rng.Uniform(8);
    std::vector<uint64_t> words(num_words);
    for (auto& w : words) {
      switch (rng.Uniform(4)) {
        case 0: w = 0; break;                        // empty
        case 1: w = rng.Next(); break;               // ~50% density
        case 2: w = rng.Next() & rng.Next() & rng.Next(); break;  // sparse
        default: w = ~uint64_t{0}; break;            // full
      }
    }
    const uint32_t base = static_cast<uint32_t>(rng.Uniform(3)) * 64;
    const uint32_t weight = 1 + static_cast<uint32_t>(rng.Uniform(5));
    // Sweep the array end across the final word (and give slack past it).
    for (size_t tail : {size_t{0}, size_t{1}, size_t{17}, size_t{63},
                        size_t{64}, size_t{130}}) {
      const size_t counts_size = base + (num_words - 1) * 64 + tail;
      // Drop bits the scalar kernel would write out of bounds — the
      // contract (bitvector.cc enforces it structurally) is that no set
      // bit maps past the counter array.
      std::vector<uint64_t> clipped = words;
      for (size_t w = 0; w < num_words; ++w) {
        for (int bit = 0; bit < 64; ++bit) {
          if (base + w * 64 + bit >= counts_size) {
            clipped[w] &= ~(uint64_t{1} << bit);
          }
        }
      }
      std::vector<uint32_t> expected(counts_size, 0);
      AccumulateWordsScalar(clipped.data(), num_words, base, expected.data(),
                            weight);
      ForEachDispatchLevel([&] {
        std::vector<uint32_t> counts(counts_size, 0);
        AccumulateWords(clipped.data(), num_words, base, counts.data(),
                        weight, counts_size);
        ASSERT_EQ(counts, expected)
            << "words=" << num_words << " base=" << base << " tail=" << tail;
      });
    }
  }
}

TEST(ArrayAccumulateTest, VectorTierMatchesScalarEveryLength) {
  // Array-container bulk add: every length through 2x the gather width,
  // random strictly-increasing uint16 values, at every dispatch level.
  Rng rng(59);
  for (size_t len = 0; len <= 33; ++len) {
    std::set<uint16_t> unique;
    while (unique.size() < len) {
      unique.insert(static_cast<uint16_t>(rng.Uniform(1u << 16)));
    }
    std::vector<uint16_t> values(unique.begin(), unique.end());
    const uint32_t base = static_cast<uint32_t>(rng.Uniform(2)) << 16;
    const uint32_t weight = 1 + static_cast<uint32_t>(rng.Uniform(4));
    const size_t counts_size = base + (1u << 16);
    std::vector<uint32_t> expected(counts_size, 0);
    for (uint16_t v : values) expected[base + v] += weight;
    ForEachDispatchLevel([&] {
      std::vector<uint32_t> counts(counts_size, 0);
      ArrayAccumulate(values.data(), values.size(), base, counts.data(),
                      weight);
      ASSERT_EQ(counts, expected) << "len=" << len << " base=" << base;
    });
  }
}

TEST_P(BitmapColumnBackendTest, AccumulatorFusesManyColumns) {
  Rng rng(17);
  std::vector<BitmapColumn> cols;
  std::vector<uint32_t> weights;
  std::vector<uint32_t> expected(kUniverse, 0);
  for (int c = 0; c < 20; ++c) {
    std::set<uint32_t> vals;
    size_t card = 1 + rng.Uniform(400);
    // Mix point sets and contiguous blocks so RunOptimize produces a mix
    // of container kinds across the columns.
    if (c % 3 == 0) {
      uint32_t start = static_cast<uint32_t>(rng.Uniform(kUniverse - 500));
      for (uint32_t i = 0; i < 400; ++i) vals.insert(start + i);
    } else {
      for (size_t i = 0; i < card; ++i) {
        vals.insert(static_cast<uint32_t>(rng.Uniform(kUniverse)));
      }
    }
    uint32_t w = 1 + static_cast<uint32_t>(rng.Uniform(4));
    BitmapColumn col = BitmapColumn::FromSorted(
        GetParam(), std::vector<uint32_t>(vals.begin(), vals.end()));
    if (c % 2 == 0) col.RunOptimize();
    for (uint32_t v : vals) expected[v] += w;
    cols.push_back(std::move(col));
    weights.push_back(w);
  }
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  acc.Reset(1, kUniverse, &counts);
  for (size_t c = 0; c < cols.size(); ++c) {
    const QueryWeight sub{0, weights[c]};
    cols[c].AccumulateIntoBatch(acc, &sub, 1);
  }
  acc.Finish();
  EXPECT_EQ(counts, expected);
}

TEST_P(BitmapColumnBackendTest, BasicOpsMatchReferenceModel) {
  Rng rng(23);
  BitmapColumn col(GetParam());
  std::set<uint32_t> ref;
  for (int i = 0; i < 4000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 16));
    col.Add(v);
    ref.insert(v);
  }
  EXPECT_EQ(col.Cardinality(), ref.size());
  EXPECT_FALSE(col.Empty());
  EXPECT_EQ(col.ToVector(), std::vector<uint32_t>(ref.begin(), ref.end()));
  for (int i = 0; i < 2000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 16));
    EXPECT_EQ(col.Contains(v), ref.count(v) > 0);
  }
  col.RunOptimize();
  EXPECT_EQ(col.ToVector(), std::vector<uint32_t>(ref.begin(), ref.end()));
}

TEST_P(BitmapColumnBackendTest, WeightedIntersectMatchesContains) {
  Rng rng(29);
  BitmapColumn col(GetParam());
  std::set<uint32_t> ref;
  for (int i = 0; i < 3000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 18));
    col.Add(v);
    ref.insert(v);
  }
  std::vector<std::pair<uint32_t, uint32_t>> probes;
  uint64_t expected = 0;
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 18));
    uint32_t w = 1 + static_cast<uint32_t>(rng.Uniform(5));
    probes.emplace_back(v, w);
  }
  std::sort(probes.begin(), probes.end());
  for (const auto& [v, w] : probes) {
    if (ref.count(v)) expected += w;
  }
  EXPECT_EQ(col.WeightedIntersect(probes.data(), probes.size()), expected);
}

TEST_P(BitmapColumnBackendTest, EmptyColumn) {
  BitmapColumn col(GetParam());
  EXPECT_TRUE(col.Empty());
  EXPECT_EQ(col.Cardinality(), 0u);
  EXPECT_FALSE(col.Contains(0));
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  acc.Reset(1, 16, &counts);
  const QueryWeight sub{0, 2};
  col.AccumulateIntoBatch(acc, &sub, 1);
  acc.Finish();
  EXPECT_EQ(counts, std::vector<uint32_t>(16, 0));
}

INSTANTIATE_TEST_SUITE_P(Backends, BitmapColumnBackendTest,
                         ::testing::Values(BitmapBackend::kRoaring,
                                           BitmapBackend::kBitVector),
                         [](const auto& info) { return ToString(info.param); });

TEST(BatchGroupCountAccumulatorTest, RangesFoldExactly) {
  // Three rows over 10 groups: direct adds and ranges mix within a row,
  // and no row's ranges leak into another (row 1 has none at all).
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  acc.Reset(3, 10, &counts);
  acc.row(0)[2] += 5;
  acc.AddRange(0, 0, 3, 2);
  acc.AddRange(0, 3, 9, 1);
  acc.AddRange(0, 9, 9, 7);
  acc.row(1)[4] += 1;
  acc.AddRange(2, 0, 9, 4);
  acc.AddRange(2, 5, 5, 1);
  acc.Finish();
  EXPECT_EQ(counts, (std::vector<uint32_t>{2, 2, 7, 3, 1, 1, 1, 1, 1, 8,  //
                                           0, 0, 0, 0, 1, 0, 0, 0, 0, 0,  //
                                           4, 4, 4, 4, 4, 5, 4, 4, 4, 4}));
}

TEST(BatchGroupCountAccumulatorTest, ResetClearsState) {
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  acc.Reset(2, 4, &counts);
  acc.AddRange(0, 0, 3, 9);
  acc.AddRange(1, 1, 2, 9);
  acc.Finish();
  acc.Reset(3, 6, &counts);
  acc.Finish();
  EXPECT_EQ(counts, std::vector<uint32_t>(18, 0));
}

TEST(BatchGroupCountAccumulatorTest, AbandonedBindingLeavesNoResidue) {
  // A binding dropped after AddRange without Finish() leaves deltas in
  // the difference matrix; the next Reset — here with a different Q and
  // group count, so the stale deltas sit at other offsets of the new
  // layout — must discard them.
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  acc.Reset(4, 8, &counts);
  acc.AddRange(0, 0, 7, 3);
  acc.AddRange(2, 1, 4, 5);
  acc.AddRange(3, 7, 7, 1);
  // No Finish(): abandon the binding.
  acc.Reset(3, 5, &counts);
  acc.Finish();
  EXPECT_EQ(counts, std::vector<uint32_t>(15, 0));
  // And the accumulator is fully usable again afterwards.
  acc.Reset(2, 3, &counts);
  acc.AddRange(1, 0, 2, 2);
  acc.Finish();
  EXPECT_EQ(counts, (std::vector<uint32_t>{0, 0, 0, 2, 2, 2}));
}

TEST(BitmapBackendTest, ParseRoundTrips) {
  for (BitmapBackend b :
       {BitmapBackend::kRoaring, BitmapBackend::kBitVector}) {
    auto parsed = ParseBitmapBackend(ToString(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), b);
  }
  EXPECT_FALSE(ParseBitmapBackend("ewah").ok());
}

}  // namespace
}  // namespace bitmap
}  // namespace les3
