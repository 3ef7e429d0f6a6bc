// Micro-benchmarks for the verification kernels (core/verify.h): the
// branchless linear merge vs the galloping kernel vs the per-query token
// bitmap (QueryVerifier) vs the pre-pipeline scalar verifier, across
// operand-size ratios and token skews, in verified pairs per second.
//
// The scalar baseline is the verifier this repo shipped before the
// cache-resident pipeline: a branchy merge that re-evaluates the
// similarity formula (a divide) at every step for its early-exit test.
// The current kernels precompute the integer overlap requirement once
// (MinOverlapForPair) and check it per block, which is where most of the
// per-pair win comes from on small sets.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/simd_dispatch.h"
#include "core/verify.h"
#include "core/verify_simd.h"
#include "datagen/zipf.h"
#include "util/random.h"

namespace les3 {
namespace {

/// The pre-pipeline scalar verifier, kept verbatim as the micro baseline.
VerifyResult VerifyScalarReference(SimilarityMeasure measure, SetView a,
                                   SetView b, double threshold) {
  VerifyResult result;
  if (threshold <= 0.0) {
    result.similarity = Similarity(measure, a, b);
    result.passed = true;
    return result;
  }
  size_t i = 0, j = 0, overlap = 0;
  while (i < a.size() && j < b.size()) {
    size_t max_overlap = overlap + std::min(a.size() - i, b.size() - j);
    double best =
        SimilarityFromOverlap(measure, max_overlap, a.size(), b.size());
    if (best < threshold) {
      result.similarity = best;
      result.passed = false;
      return result;
    }
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  result.similarity =
      SimilarityFromOverlap(measure, overlap, a.size(), b.size());
  result.passed = result.similarity >= threshold;
  return result;
}

/// One pre-generated workload: pairs with |small| = base_size and
/// |large| = base_size * ratio, tokens Zipf(skew)-drawn from a shared
/// universe so overlap arises naturally (more skew -> more overlap). Each
/// pair carries a FEASIBLE threshold (80% of its best attainable
/// similarity): an unattainable threshold makes every kernel return after
/// one bound check, which benchmarks the rejection fast path instead of
/// the merge/gallop loops — and the engine's size window already rejects
/// those pairs before a kernel ever runs.
struct PairPool {
  std::vector<std::vector<TokenId>> small;
  std::vector<std::vector<TokenId>> large;
  std::vector<double> thresholds;
  size_t next = 0;
};

constexpr uint32_t kUniverse = 4096;  // token universe of the Zipf pools

PairPool MakePool(size_t base_size, size_t ratio, double skew) {
  constexpr size_t kPairs = 512;
  Rng rng(base_size * 1315423911u + ratio * 2654435761u +
          static_cast<uint64_t>(skew * 977));
  datagen::ZipfSampler zipf(kUniverse, skew);
  PairPool pool;
  auto draw = [&](size_t n) {
    std::vector<TokenId> tokens;
    tokens.reserve(n);
    for (size_t t = 0; t < n; ++t) {
      tokens.push_back(static_cast<TokenId>(zipf.Sample(&rng)));
    }
    std::sort(tokens.begin(), tokens.end());
    return tokens;
  };
  for (size_t p = 0; p < kPairs; ++p) {
    pool.small.push_back(draw(base_size));
    pool.large.push_back(draw(base_size * ratio));
    pool.thresholds.push_back(
        0.8 * MaxSimForSize(SimilarityMeasure::kJaccard, base_size,
                            base_size * ratio));
  }
  return pool;
}

/// Args: (base_size, size_ratio, skew_x10). kernel: 0 = adaptive
/// VerifyThreshold dispatch, 1 = forced merge, 2 = forced gallop,
/// 3 = pre-pipeline scalar.
void VerifyBench(benchmark::State& state, int kernel) {
  const size_t base_size = static_cast<size_t>(state.range(0));
  const size_t ratio = static_cast<size_t>(state.range(1));
  const double skew = state.range(2) / 10.0;
  PairPool pool = MakePool(base_size, ratio, skew);
  for (auto _ : state) {
    size_t p = pool.next++ % pool.small.size();
    SetView a(pool.small[p].data(), pool.small[p].size());
    SetView b(pool.large[p].data(), pool.large[p].size());
    const double kThreshold = pool.thresholds[p];
    VerifyResult v;
    switch (kernel) {
      case 0: v = VerifyThreshold(SimilarityMeasure::kJaccard, a, b,
                                  kThreshold); break;
      case 1: v = VerifyMerge(SimilarityMeasure::kJaccard, a, b,
                              kThreshold); break;
      case 2: v = VerifyGallop(SimilarityMeasure::kJaccard, a, b,
                               kThreshold); break;
      default: v = VerifyScalarReference(SimilarityMeasure::kJaccard, a, b,
                                         kThreshold); break;
    }
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());  // pairs/sec
}

/// The query-bitmap rows: the small side is the query, bound once per
/// pass over the pool, and every large side is a candidate verified
/// against it — the engine's shape, where one bind serves a query's whole
/// candidate stream (here 512 candidates per bind, bind cost included).
/// scan_only pins QueryVerifier::Scan, skipping the gallop fallback for
/// candidates kGallopSizeRatio times larger than the query. The Zipf
/// pools are multisets, so candidates with repeated tokens take the
/// duplicate fallback to VerifyThreshold on top of the scan.
void QueryBitmapBench(benchmark::State& state, const PairPool& pool,
                      uint32_t universe, bool scan_only) {
  const size_t num_pairs = pool.small.size();
  std::optional<QueryVerifier> verifier;
  size_t next_query = 0;
  size_t query_size = 0;
  size_t p = 0;
  for (auto _ : state) {
    if (p == 0) {
      verifier.reset();  // unbind before the next query binds
      const std::vector<TokenId>& q = pool.small[next_query++ % num_pairs];
      verifier.emplace(SetView(q.data(), q.size()), universe);
      query_size = q.size();
    }
    SetView b(pool.large[p].data(), pool.large[p].size());
    const double threshold = pool.thresholds[p];
    const size_t min_overlap = MinOverlapForPair(
        SimilarityMeasure::kJaccard, query_size, b.size(), threshold);
    VerifyResult v =
        scan_only ? verifier->Scan(SimilarityMeasure::kJaccard, b, threshold,
                                   min_overlap)
                  : verifier->Verify(SimilarityMeasure::kJaccard, b,
                                     threshold, min_overlap);
    benchmark::DoNotOptimize(v);
    p = (p + 1) % num_pairs;
  }
  state.SetItemsProcessed(state.iterations());  // pairs/sec
}

void QueryBitmapGridBench(benchmark::State& state, bool scan_only) {
  PairPool pool = MakePool(static_cast<size_t>(state.range(0)),
                           static_cast<size_t>(state.range(1)),
                           state.range(2) / 10.0);
  QueryBitmapBench(state, pool, kUniverse, scan_only);
}

void BM_VerifyAdaptive(benchmark::State& state) { VerifyBench(state, 0); }
void BM_VerifyMerge(benchmark::State& state) { VerifyBench(state, 1); }
void BM_VerifyGallop(benchmark::State& state) { VerifyBench(state, 2); }
void BM_VerifyScalar(benchmark::State& state) { VerifyBench(state, 3); }
void BM_VerifyQueryBitmap(benchmark::State& state) {
  QueryBitmapGridBench(state, /*scan_only=*/false);
}
void BM_VerifyQueryBitmapScan(benchmark::State& state) {
  QueryBitmapGridBench(state, /*scan_only=*/true);
}

#define VERIFY_ARGS                                        \
  ->ArgNames({"base", "ratio", "skew_x10"})                \
      ->Args({8, 1, 7})                                    \
      ->Args({8, 4, 7})                                    \
      ->Args({8, 64, 7})                                   \
      ->Args({64, 1, 7})                                   \
      ->Args({64, 16, 7})                                  \
      ->Args({64, 64, 7})                                  \
      ->Args({8, 1, 11})                                   \
      ->Args({8, 64, 11})                                  \
      ->Args({64, 16, 11})

BENCHMARK(BM_VerifyAdaptive) VERIFY_ARGS;
BENCHMARK(BM_VerifyMerge) VERIFY_ARGS;
BENCHMARK(BM_VerifyGallop) VERIFY_ARGS;
BENCHMARK(BM_VerifyScalar) VERIFY_ARGS;
BENCHMARK(BM_VerifyQueryBitmap) VERIFY_ARGS;
BENCHMARK(BM_VerifyQueryBitmapScan) VERIFY_ARGS;

// ---------------------------------------------------------------------------
// Per-dispatch-level rows (the BENCH_verify_simd.json payload): the same
// VerifyMerge entry point pinned to each SIMD tier this machine supports,
// so scalar vs avx2 vs avx512 pairs/sec compare directly. The pools here
// use DISTINCT tokens (sampled without replacement): the Zipf pools above
// are duplicate-heavy multisets, which the vector kernels deliberately
// route through the scalar duplicate fallback — real corpora are sets,
// and these rows measure the vector fast path those corpora take.

PairPool MakeDistinctPool(size_t base_size, size_t ratio) {
  constexpr size_t kPairs = 512;
  const size_t large_size = base_size * ratio;
  // Universe 4x the large side: overlap is common but partial.
  const uint32_t universe = static_cast<uint32_t>(large_size * 4);
  Rng rng(base_size * 40503u + ratio * 2654435761u);
  PairPool pool;
  auto draw = [&](size_t n) {
    std::vector<uint32_t> vals = rng.SampleWithoutReplacement(
        universe, static_cast<uint32_t>(n));
    std::sort(vals.begin(), vals.end());
    return std::vector<TokenId>(vals.begin(), vals.end());
  };
  for (size_t p = 0; p < kPairs; ++p) {
    pool.small.push_back(draw(base_size));
    pool.large.push_back(draw(large_size));
    pool.thresholds.push_back(
        0.8 * MaxSimForSize(SimilarityMeasure::kJaccard, base_size,
                            large_size));
  }
  return pool;
}

void VerifyMergeAtLevel(benchmark::State& state, simd::Level level,
                        size_t base_size, size_t ratio) {
  PairPool pool = MakeDistinctPool(base_size, ratio);
  simd::SetLevelForTesting(level);
  for (auto _ : state) {
    size_t p = pool.next++ % pool.small.size();
    SetView a(pool.small[p].data(), pool.small[p].size());
    SetView b(pool.large[p].data(), pool.large[p].size());
    VerifyResult v = VerifyMerge(SimilarityMeasure::kJaccard, a, b,
                                 pool.thresholds[p]);
    benchmark::DoNotOptimize(v);
  }
  simd::ClearLevelForTesting();
  state.SetItemsProcessed(state.iterations());  // pairs/sec
}

/// The gallop cutoff of QueryVerifier on set (distinct-token) operands:
/// the bitmap scan reads all |S| candidate tokens, the galloping kernel
/// O(|Q| log |S|), so the rows sweep |S| / |Q| around kGallopSizeRatio,
/// query = small side. Named BM_VerifyBitmapCutoff/<kernel>/base:<n>/
/// ratio:<r>, kernel scan (QueryVerifier::Scan) or gallop (VerifyGallop
/// with the pair's precomputed min overlap).
void RegisterBitmapCutoffBenchmarks() {
  for (size_t base : {4, 8, 16}) {
    for (size_t ratio : {1, 2, 4, 16, 64}) {
      for (bool scan : {true, false}) {
        std::string name = std::string("BM_VerifyBitmapCutoff/") +
                           (scan ? "scan" : "gallop") +
                           "/base:" + std::to_string(base) +
                           "/ratio:" + std::to_string(ratio);
        benchmark::RegisterBenchmark(
            name.c_str(), [base, ratio, scan](benchmark::State& state) {
              PairPool pool = MakeDistinctPool(base, ratio);
              if (scan) {
                QueryBitmapBench(state, pool,
                                 static_cast<uint32_t>(base * ratio * 4),
                                 /*scan_only=*/true);
                return;
              }
              for (auto _ : state) {
                size_t p = pool.next++ % pool.small.size();
                SetView a(pool.small[p].data(), pool.small[p].size());
                SetView b(pool.large[p].data(), pool.large[p].size());
                const double threshold = pool.thresholds[p];
                VerifyResult v = VerifyGallop(
                    SimilarityMeasure::kJaccard, a, b, threshold,
                    MinOverlapForPair(SimilarityMeasure::kJaccard, a.size(),
                                      b.size(), threshold));
                benchmark::DoNotOptimize(v);
              }
              state.SetItemsProcessed(state.iterations());  // pairs/sec
            });
      }
    }
  }
}

/// Registered at runtime because the level list depends on the machine:
/// one row per (supported level x operand shape), named
/// BM_VerifyMergeLevel/<level>/base:<n>/ratio:<r>.
void RegisterLevelBenchmarks() {
  struct Shape {
    size_t base, ratio;
  };
  for (simd::Level level : simd::SupportedLevels()) {
    for (Shape shape : {Shape{64, 1}, Shape{256, 1}, Shape{64, 4},
                        Shape{16, 1}}) {
      std::string name = std::string("BM_VerifyMergeLevel/") +
                         simd::LevelName(level) +
                         "/base:" + std::to_string(shape.base) +
                         "/ratio:" + std::to_string(shape.ratio);
      benchmark::RegisterBenchmark(
          name.c_str(), [level, shape](benchmark::State& state) {
            VerifyMergeAtLevel(state, level, shape.base, shape.ratio);
          });
    }
  }
}

}  // namespace
}  // namespace les3

int main(int argc, char** argv) {
  les3::RegisterLevelBenchmarks();
  les3::RegisterBitmapCutoffBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
