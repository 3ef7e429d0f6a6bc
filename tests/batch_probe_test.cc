// Differential suite for the batched column-probe pipeline: KnnBatch /
// RangeBatch must agree BYTE-exactly (ids, similarity bit patterns, order,
// and per-query counters) with sequential Knn / Range on every backend,
// every similarity measure, and both bitmap backends — including ragged
// batches, empty queries, duplicate-token multisets, out-of-universe
// tokens, unreachable thresholds, and a batch of one. A single query runs
// as a batch of one, and each row of a batch runs the same per-query
// kernel sequence, so any divergence here is a bug, not a tolerance. Since
// the solo entry points are that same code, every answer is also held to
// brute force over the same database — the oracle that shares nothing
// with the probe.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/engine_builder.h"
#include "api/engine_options.h"
#include "api/search_engine.h"
#include "datagen/generators.h"

namespace les3 {
namespace api {
namespace {

std::shared_ptr<SetDatabase> MakeDb(uint64_t seed, uint32_t num_sets = 400,
                                    uint32_t num_tokens = 120) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = num_tokens;
  opts.avg_set_size = 8;
  opts.zipf_exponent = 0.8;
  opts.seed = seed;
  return std::make_shared<SetDatabase>(datagen::GenerateZipf(opts));
}

EngineOptions FastOptions() {
  EngineOptions options;
  options.num_groups = 24;
  options.num_shards = 3;  // exercises the (chunk, shard) striping + id map
  options.cascade.init_groups = 16;
  options.cascade.min_group_size = 10;
  options.cascade.pairs_per_model = 2000;
  options.cascade.seed = 7;
  return options;
}

std::unique_ptr<SearchEngine> MustBuild(std::shared_ptr<SetDatabase> db,
                                        const std::string& backend,
                                        EngineOptions options) {
  auto engine = EngineBuilder::Build(std::move(db), backend, options);
  EXPECT_TRUE(engine.ok()) << backend << ": " << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

/// The ragged query battery: empty set, singleton, duplicate-token
/// multiset, tokens beyond the trained universe, a wide set, and a spread
/// of database sets (so cache-free batches mix hot and cold columns).
std::vector<SetRecord> RaggedQueries(const SetDatabase& db,
                                     uint32_t num_tokens) {
  std::vector<SetRecord> queries;
  queries.emplace_back();                                      // empty
  queries.push_back(SetRecord::FromSortedTokens({0}));         // singleton
  queries.push_back(SetRecord::FromSortedTokens({5, 5, 5}));   // multiset
  queries.push_back(SetRecord::FromSortedTokens(               // unseen ids
      {num_tokens + 3, num_tokens + 9}));
  {
    std::vector<TokenId> wide;
    for (TokenId t = 0; t < 40; t += 2) wide.push_back(t);
    queries.push_back(SetRecord::FromSortedTokens(std::move(wide)));
  }
  for (SetId i = 0; i < db.size(); i += 37) {
    queries.emplace_back(db.set(i));
  }
  // A duplicate of an earlier query: both rows must fan out independently.
  queries.push_back(queries[1]);
  return queries;
}

/// Byte-exact: same ids, same similarity BIT PATTERNS, same order.
void ExpectExactHits(const std::vector<Hit>& expected,
                     const std::vector<Hit>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << label << " rank " << i;
    EXPECT_EQ(expected[i].second, actual[i].second) << label << " rank " << i;
  }
}

/// Every deterministic counter must agree too — micros is wall time and
/// is the one field allowed to differ.
void ExpectExactStats(const search::QueryStats& expected,
                      const search::QueryStats& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.candidates_verified, actual.candidates_verified) << label;
  EXPECT_EQ(expected.candidates_size_skipped, actual.candidates_size_skipped)
      << label;
  EXPECT_EQ(expected.groups_visited, actual.groups_visited) << label;
  EXPECT_EQ(expected.groups_pruned, actual.groups_pruned) << label;
  EXPECT_EQ(expected.columns_scanned, actual.columns_scanned) << label;
  EXPECT_EQ(expected.results, actual.results) << label;
  EXPECT_EQ(expected.pruning_efficiency, actual.pruning_efficiency) << label;
}

void ExpectBatchMatchesSequential(
    const SearchEngine& engine, const std::vector<SetRecord>& queries,
    const std::string& label, bool check_stats,
    SimilarityMeasure measure = SimilarityMeasure::kJaccard) {
  EngineOptions oracle_options;
  oracle_options.measure = measure;
  auto oracle = MustBuild(std::make_shared<SetDatabase>(*engine.StableDb()),
                          "brute_force", oracle_options);
  for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{1000}}) {
    std::vector<QueryResult> batch = engine.KnnBatch(queries, k);
    ASSERT_EQ(batch.size(), queries.size()) << label;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryResult solo = engine.Knn(queries[i].view(), k);
      std::string tag =
          label + " knn k=" + std::to_string(k) + " q=" + std::to_string(i);
      EXPECT_TRUE(batch[i].status.ok()) << tag;
      ExpectExactHits(solo.hits, batch[i].hits, tag);
      ExpectExactHits(oracle->Knn(queries[i].view(), k).hits, batch[i].hits,
                      tag + " vs brute_force");
      if (check_stats) ExpectExactStats(solo.stats, batch[i].stats, tag);
    }
  }
  // 1.1 is an unreachable threshold (finite, above every measure's upper
  // bound): the solo path early-returns, the batch path must ride the
  // query along as hopeless and answer identically.
  for (double delta : {0.0, 0.3, 0.7, 1.1}) {
    std::vector<QueryResult> batch = engine.RangeBatch(queries, delta);
    ASSERT_EQ(batch.size(), queries.size()) << label;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryResult solo = engine.Range(queries[i].view(), delta);
      std::string tag =
          label + " range d=" + std::to_string(delta) + " q=" + std::to_string(i);
      EXPECT_TRUE(batch[i].status.ok()) << tag;
      ExpectExactHits(solo.hits, batch[i].hits, tag);
      ExpectExactHits(oracle->Range(queries[i].view(), delta).hits,
                      batch[i].hits, tag + " vs brute_force");
      if (check_stats) ExpectExactStats(solo.stats, batch[i].stats, tag);
    }
  }
}

// Every backend, one mixed batch: the fused pipelines (les3, sharded_les3)
// and the thread-pooled base path must all be invisible in the answers.
TEST(BatchProbe, AllBackendsMatchSequential) {
  auto db = MakeDb(31);
  std::vector<SetRecord> queries = RaggedQueries(*db, 120);
  for (const std::string& backend : BackendNames()) {
    auto engine = MustBuild(db, backend, FastOptions());
    // Stats comparison is meaningful on the fused pipelines; the base
    // path trivially shares code with the solo entry points.
    bool check_stats = backend == "les3";
    ExpectBatchMatchesSequential(*engine, queries, backend, check_stats);
  }
}

// The batched accumulators have per-measure weights and two bitmap
// decoders; sweep the full grid on the fused backends.
TEST(BatchProbe, MeasuresTimesBitmapBackendsMatchSequential) {
  auto db = MakeDb(32);
  std::vector<SetRecord> queries = RaggedQueries(*db, 120);
  for (SimilarityMeasure measure :
       {SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
        SimilarityMeasure::kCosine, SimilarityMeasure::kContainment}) {
    for (bitmap::BitmapBackend bitmap_backend :
         {bitmap::BitmapBackend::kRoaring, bitmap::BitmapBackend::kBitVector}) {
      for (const std::string& backend : {std::string("les3"),
                                         std::string("sharded_les3")}) {
        EngineOptions options = FastOptions();
        options.measure = measure;
        options.bitmap_backend = bitmap_backend;
        auto engine = MustBuild(db, backend, options);
        std::string label = backend + "/" + ToString(measure) + "/" +
                            bitmap::ToString(bitmap_backend);
        ExpectBatchMatchesSequential(*engine, queries, label,
                                     backend == "les3", measure);
      }
    }
  }
}

// Degenerate batch shapes the fan-out plan must not trip over.
TEST(BatchProbe, DegenerateBatchShapes) {
  auto db = MakeDb(33);
  auto engine = MustBuild(db, "les3", FastOptions());

  std::vector<SetRecord> empty_batch;
  EXPECT_TRUE(engine->KnnBatch(empty_batch, 5).empty());
  EXPECT_TRUE(engine->RangeBatch(empty_batch, 0.5).empty());

  std::vector<SetRecord> one{SetRecord(db->set(3))};
  ExpectBatchMatchesSequential(*engine, one, "batch-of-1", true);

  // All rows identical: every subscribing row accumulates the same
  // columns; answers must still be per-row exact.
  std::vector<SetRecord> same(17, SetRecord(db->set(7)));
  ExpectBatchMatchesSequential(*engine, same, "identical-rows", true);

  // All rows empty: nothing subscribes to anything.
  std::vector<SetRecord> empties(5);
  ExpectBatchMatchesSequential(*engine, empties, "all-empty", true);
}

// A batch larger than the sharded engine's chunk size crosses the chunk
// boundary; per-query answers must not depend on where the cuts fall.
TEST(BatchProbe, BatchesLargerThanChunkStayExact) {
  auto db = MakeDb(34, 300);
  auto engine = MustBuild(db, "sharded_les3", FastOptions());
  std::vector<SetRecord> queries;
  for (size_t i = 0; i < 150; ++i) {
    queries.emplace_back(db->set(static_cast<SetId>((i * 13) % db->size())));
  }
  std::vector<QueryResult> batch = engine->KnnBatch(queries, 7);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult solo = engine->Knn(queries[i].view(), 7);
    ExpectExactHits(solo.hits, batch[i].hits, "chunk q=" + std::to_string(i));
  }
}

// Mutations between batches: the batch path must see exactly what the
// solo path sees at every index state (tombstones, fresh inserts, updated
// content — the stale-bit and arena-garbage machinery included).
TEST(BatchProbe, ExactAcrossMutations) {
  auto db = MakeDb(35, 300);
  auto engine = MustBuild(db, "sharded_les3", FastOptions());
  std::vector<SetRecord> queries = RaggedQueries(engine->db(), 120);

  auto check = [&](const std::string& phase) {
    std::vector<QueryResult> batch = engine->KnnBatch(queries, 5);
    std::vector<QueryResult> rbatch = engine->RangeBatch(queries, 0.4);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectExactHits(engine->Knn(queries[i].view(), 5).hits, batch[i].hits,
                      phase + " knn q=" + std::to_string(i));
      ExpectExactHits(engine->Range(queries[i].view(), 0.4).hits,
                      rbatch[i].hits, phase + " range q=" + std::to_string(i));
    }
  };

  check("pristine");
  for (SetId id = 0; id < 60; id += 3) ASSERT_TRUE(engine->Delete(id).ok());
  check("after-deletes");
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine->Insert(SetRecord(db->set((i * 7) % db->size()))).ok());
  }
  check("after-inserts");
  for (SetId id = 61; id < 100; id += 2) {  // ids the delete pass skipped
    ASSERT_TRUE(engine->Update(id, SetRecord(db->set(id + 100))).ok());
  }
  check("after-updates");
  auto report = engine->MaintainNow();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  check("after-maintenance");
}

}  // namespace
}  // namespace api
}  // namespace les3
