// Micro-benchmarks for the query-path hot spots: TGM upper-bound
// computation vs group count, PTR embedding throughput vs PCA/MDS, and
// exact verification.

#include <benchmark/benchmark.h>

#include "datagen/generators.h"
#include "embed/mds.h"
#include "embed/pca.h"
#include "embed/ptr.h"
#include "tgm/tgm.h"
#include "util/random.h"

namespace les3 {
namespace {

const SetDatabase& BenchDb() {
  datagen::ZipfOptions opts;
  opts.num_sets = 50000;
  opts.num_tokens = 20000;
  opts.avg_set_size = 10;
  opts.seed = 3;
  static SetDatabase db = datagen::GenerateZipf(opts);
  return db;
}

/// Dense regime: strong clustering + a fat Zipf head, so most head-token
/// columns cover nearly every group and run-encode after RunOptimize —
/// the corpus shape where the batched kernels shine.
const SetDatabase& DenseBenchDb() {
  datagen::ZipfOptions opts;
  opts.num_sets = 50000;
  opts.num_tokens = 5000;
  opts.avg_set_size = 10;
  opts.zipf_exponent = 1.1;
  opts.cluster_fraction = 0.7;
  opts.seed = 4;
  static SetDatabase db = datagen::GenerateZipf(opts);
  return db;
}

/// Args: (num_groups, corpus: 0 sparse Zipf | 1 dense clustered,
/// backend: 0 roaring | 1 bitvector). `kernel` selects the batched
/// kernel path (Tgm::MatchedCounts) vs the per-bit ForEach reference.
void TgmMatchedCountsBench(benchmark::State& state, bool kernel) {
  const SetDatabase& db = state.range(1) == 0 ? BenchDb() : DenseBenchDb();
  uint32_t groups = static_cast<uint32_t>(state.range(0));
  auto backend = state.range(2) == 0 ? bitmap::BitmapBackend::kRoaring
                                     : bitmap::BitmapBackend::kBitVector;
  Rng rng(5);
  std::vector<GroupId> assignment(db.size());
  for (auto& g : assignment) g = static_cast<GroupId>(rng.Uniform(groups));
  tgm::Tgm index(db, assignment, groups, backend);
  index.RunOptimize();
  std::vector<uint32_t> counts;
  size_t q = 0;
  for (auto _ : state) {
    SetView query = db.set(q++ % db.size());
    benchmark::DoNotOptimize(
        kernel ? index.MatchedCounts(query, &counts)
               : index.MatchedCountsReference(query, &counts));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TgmMatchedCounts(benchmark::State& state) {
  TgmMatchedCountsBench(state, /*kernel=*/true);
}
void BM_TgmMatchedCountsForEach(benchmark::State& state) {
  TgmMatchedCountsBench(state, /*kernel=*/false);
}
BENCHMARK(BM_TgmMatchedCounts)
    ->ArgNames({"groups", "corpus", "backend"})
    ->Args({64, 0, 0})
    ->Args({256, 0, 0})
    ->Args({1024, 0, 0})
    ->Args({4096, 0, 0})
    ->Args({256, 1, 0})
    ->Args({1024, 1, 0})
    ->Args({256, 1, 1})
    ->Args({1024, 1, 1});
BENCHMARK(BM_TgmMatchedCountsForEach)
    ->ArgNames({"groups", "corpus", "backend"})
    ->Args({256, 0, 0})
    ->Args({1024, 0, 0})
    ->Args({4096, 0, 0})
    ->Args({256, 1, 0})
    ->Args({1024, 1, 0})
    ->Args({256, 1, 1})
    ->Args({1024, 1, 1});

void BM_PtrEmbed(benchmark::State& state) {
  const SetDatabase& db = BenchDb();
  embed::PtrRepresentation ptr(db.num_tokens());
  std::vector<float> out(ptr.dim());
  size_t i = 0;
  for (auto _ : state) {
    ptr.Embed(0, db.set(i++ % db.size()), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtrEmbed);

void BM_PcaEmbed(benchmark::State& state) {
  const SetDatabase& db = BenchDb();
  embed::PcaOptions opts;
  opts.dim = 16;
  opts.power_iterations = 4;
  embed::PcaRepresentation pca(db, opts);
  std::vector<float> out(pca.dim());
  size_t i = 0;
  for (auto _ : state) {
    pca.Embed(0, db.set(i++ % db.size()), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcaEmbed);

void BM_MdsEmbed(benchmark::State& state) {
  const SetDatabase& db = BenchDb();
  embed::MdsOptions opts;
  opts.dim = 16;
  opts.num_landmarks = 64;
  embed::MdsRepresentation mds(db, opts);
  std::vector<float> out(mds.dim());
  size_t i = 0;
  for (auto _ : state) {
    mds.Embed(0, db.set(i++ % db.size()), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MdsEmbed);

void BM_ExactVerification(benchmark::State& state) {
  const SetDatabase& db = BenchDb();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Similarity(SimilarityMeasure::kJaccard,
                                        db.set(i % db.size()),
                                        db.set((i * 31 + 7) % db.size())));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactVerification);

}  // namespace
}  // namespace les3

BENCHMARK_MAIN();
