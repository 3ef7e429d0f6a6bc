// Tests for the sharded scatter-gather engine (shard/sharded_engine.h):
// exact agreement with brute force across shard counts (the differential
// property suite also holds it to that on every measure), correct global
// top-k when shards hold fewer than k sets, insert routing, shard
// reporting, and the sharded (v2) snapshot round trip — save, reopen with
// zero retraining, answer identically, reject corruption and
// version/backend mismatches.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_builder.h"
#include "api/engine_options.h"
#include "datagen/generators.h"
#include "persist/snapshot.h"

namespace les3 {
namespace api {
namespace {

std::shared_ptr<SetDatabase> MakeDb(uint64_t seed, uint32_t num_sets = 300,
                                    uint32_t num_tokens = 90) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = num_tokens;
  opts.avg_set_size = 7;
  opts.zipf_exponent = 0.9;
  opts.seed = seed;
  return std::make_shared<SetDatabase>(datagen::GenerateZipf(opts));
}

EngineOptions FastOptions(uint32_t num_shards) {
  EngineOptions options;
  options.backend = Backend::kShardedLes3;
  options.num_shards = num_shards;
  options.num_groups = 12;
  options.cascade.init_groups = 8;
  options.cascade.min_group_size = 6;
  options.cascade.pairs_per_model = 1000;
  options.cascade.seed = 17;
  return options;
}

std::unique_ptr<SearchEngine> MustBuild(std::shared_ptr<SetDatabase> db,
                                        const EngineOptions& options) {
  auto engine = EngineBuilder::Build(std::move(db), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

void ExpectExactHits(const std::vector<Hit>& expected,
                     const std::vector<Hit>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << label << " rank " << i;
    EXPECT_DOUBLE_EQ(expected[i].second, actual[i].second)
        << label << " rank " << i;
  }
}

TEST(ShardedEngineTest, MatchesBruteForceAcrossShardCounts) {
  auto db = MakeDb(5);
  EngineOptions reference_options;
  reference_options.backend = Backend::kBruteForce;
  auto reference = MustBuild(db, reference_options);
  for (uint32_t shards : {1u, 3u, 7u}) {
    auto engine = MustBuild(db, FastOptions(shards));
    for (SetId qid : {0u, 13u, 77u, 299u}) {
      SetView q = db->set(qid);
      for (size_t k : {1u, 5u, 20u}) {
        ExpectExactHits(reference->Knn(q, k).hits, engine->Knn(q, k).hits,
                        "shards=" + std::to_string(shards) +
                            " knn k=" + std::to_string(k) +
                            " q=" + std::to_string(qid));
      }
      for (double delta : {0.3, 0.6}) {
        ExpectExactHits(reference->Range(q, delta).hits,
                        engine->Range(q, delta).hits,
                        "shards=" + std::to_string(shards) +
                            " range d=" + std::to_string(delta) +
                            " q=" + std::to_string(qid));
      }
    }
  }
}

TEST(ShardedEngineTest, GlobalKExactWhenShardsHoldFewerThanK) {
  // 10 sets across 5 shards: every shard holds 2 sets, so any k > 2
  // forces the merge to assemble the global answer from under-full
  // shards (and k > 10 must return the whole database in HitOrder).
  auto db = MakeDb(6, /*num_sets=*/10, /*num_tokens=*/25);
  EngineOptions reference_options;
  reference_options.backend = Backend::kBruteForce;
  auto reference = MustBuild(db, reference_options);
  auto engine = MustBuild(db, FastOptions(5));
  for (SetId qid = 0; qid < db->size(); ++qid) {
    SetView q = db->set(qid);
    for (size_t k : {3u, 10u, 25u}) {
      ExpectExactHits(reference->Knn(q, k).hits, engine->Knn(q, k).hits,
                      "k=" + std::to_string(k) + " q=" + std::to_string(qid));
    }
  }
}

TEST(ShardedEngineTest, BatchMatchesSequential) {
  auto db = MakeDb(7);
  auto engine = MustBuild(db, FastOptions(3));
  std::vector<SetRecord> queries;
  for (SetId qid = 0; qid < 20; ++qid) queries.emplace_back(db->set(qid * 11));
  auto knn_batch = engine->KnnBatch(queries, 8);
  auto range_batch = engine->RangeBatch(queries, 0.5);
  ASSERT_EQ(knn_batch.size(), queries.size());
  ASSERT_EQ(range_batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectExactHits(engine->Knn(queries[i], 8).hits, knn_batch[i].hits,
                    "knn batch q=" + std::to_string(i));
    ExpectExactHits(engine->Range(queries[i], 0.5).hits, range_batch[i].hits,
                    "range batch q=" + std::to_string(i));
  }
}

TEST(ShardedEngineTest, PruningEfficiencyCountsLiveSetsOnly) {
  // A one-shard engine runs the same index as les3, so after the same
  // deletes both must verify the same candidates and report the same
  // pruning efficiency — measured against the live population, not the
  // id space with its tombstoned holes.
  EngineOptions les3_options = FastOptions(1);
  les3_options.backend = Backend::kLes3;
  auto les3 = MustBuild(MakeDb(9), les3_options);
  auto sharded = MustBuild(MakeDb(9), FastOptions(1));
  for (SetId id = 0; id < 300; id += 3) {
    ASSERT_TRUE(les3->Delete(id).ok());
    ASSERT_TRUE(sharded->Delete(id).ok());
  }
  for (SetId qid : {1u, 40u, 122u, 257u}) {
    SetView q = les3->db().set(qid);
    QueryResult a = les3->Knn(q, 10);
    QueryResult b = sharded->Knn(q, 10);
    EXPECT_EQ(a.stats.candidates_verified, b.stats.candidates_verified);
    EXPECT_EQ(a.stats.pruning_efficiency, b.stats.pruning_efficiency)
        << "knn q=" << qid;
    a = les3->Range(q, 0.4);
    b = sharded->Range(q, 0.4);
    EXPECT_EQ(a.stats.candidates_verified, b.stats.candidates_verified);
    EXPECT_EQ(a.stats.pruning_efficiency, b.stats.pruning_efficiency)
        << "range q=" << qid;
  }
}

TEST(ShardedEngineTest, InsertRoutesToOneShardAndIsImmediatelyVisible) {
  auto db = MakeDb(8);
  auto engine = MustBuild(db, FastOptions(3));
  size_t before = engine->db().size();
  for (int i = 0; i < 7; ++i) {
    SetRecord novel = SetRecord::FromTokens(
        {static_cast<TokenId>(200 + i), static_cast<TokenId>(300 + i), 5});
    auto id = engine->Insert(novel);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value(), before + static_cast<size_t>(i));
    auto top = engine->Knn(novel, 1);
    ASSERT_EQ(top.hits.size(), 1u);
    EXPECT_EQ(top.hits[0].first, id.value());
    EXPECT_DOUBLE_EQ(top.hits[0].second, 1.0);
  }
  EXPECT_EQ(engine->db().size(), before + 7);

  // After the inserts the engine must still agree exactly with brute
  // force over the grown database.
  EngineOptions reference_options;
  reference_options.backend = Backend::kBruteForce;
  auto reference = MustBuild(db, reference_options);
  for (SetId qid : {1u, 100u, static_cast<SetId>(before + 3)}) {
    SetView q = engine->db().set(qid);
    ExpectExactHits(reference->Knn(q, 10).hits, engine->Knn(q, 10).hits,
                    "post-insert knn q=" + std::to_string(qid));
    ExpectExactHits(reference->Range(q, 0.4).hits, engine->Range(q, 0.4).hits,
                    "post-insert range q=" + std::to_string(qid));
  }
}

TEST(ShardedEngineTest, DescribeReportsShards) {
  auto engine = MustBuild(MakeDb(9), FastOptions(3));
  std::string describe = engine->Describe();
  EXPECT_EQ(describe.rfind("sharded_les3(", 0), 0u) << describe;
  EXPECT_NE(describe.find("shards=3"), std::string::npos) << describe;
  EXPECT_NE(describe.find("groups=["), std::string::npos) << describe;
}

TEST(ShardedEngineTest, ShardCountClampedToDatabaseSize) {
  auto db = MakeDb(10, /*num_sets=*/5, /*num_tokens=*/20);
  auto engine = MustBuild(db, FastOptions(64));
  EXPECT_NE(engine->Describe().find("shards=5"), std::string::npos)
      << engine->Describe();
  auto top = engine->Knn(db->set(2), 5);
  EXPECT_EQ(top.hits.size(), 5u);
}

TEST(ShardedEngineTest, ZeroShardsRejected) {
  auto engine = EngineBuilder::Build(MakeDb(11), FastOptions(0));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded (v2) snapshots.

class ShardedSnapshotTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    std::string path = ::testing::TempDir() + "les3_shard_" + name + ".snap";
    paths_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::vector<std::string> paths_;
};

TEST_F(ShardedSnapshotTest, SaveOpenRoundTripAnswersIdentically) {
  auto db = MakeDb(12);
  auto original = MustBuild(db, FastOptions(3));
  // A couple of inserts first: the snapshot must capture the grown state.
  ASSERT_TRUE(original->Insert(SetRecord::FromTokens({1, 2, 88})).ok());
  ASSERT_TRUE(original->Insert(SetRecord::FromTokens({3, 91, 95})).ok());

  std::string path = Path("roundtrip");
  ASSERT_TRUE(original->Save(path).ok());
  auto reloaded = EngineBuilder::Open(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_NE(reloaded.value()->Describe().find("snapshot=v2"),
            std::string::npos)
      << reloaded.value()->Describe();
  EXPECT_NE(reloaded.value()->Describe().find("shards=3"), std::string::npos);
  EXPECT_EQ(reloaded.value()->db().size(), original->db().size());
  EXPECT_EQ(reloaded.value()->IndexBytes(), original->IndexBytes());

  for (SetId qid = 0; qid < original->db().size(); qid += 17) {
    SetView q = original->db().set(qid);
    for (size_t k : {1u, 7u, 40u}) {
      ExpectExactHits(original->Knn(q, k).hits, reloaded.value()->Knn(q, k).hits,
                      "knn k=" + std::to_string(k) +
                          " q=" + std::to_string(qid));
    }
    ExpectExactHits(original->Range(q, 0.5).hits,
                    reloaded.value()->Range(q, 0.5).hits,
                    "range q=" + std::to_string(qid));
  }

  // The reopened engine keeps the upgraded contract: inserts still work
  // and route consistently with the re-derived id-mod-S mapping.
  size_t before = reloaded.value()->db().size();
  auto id = reloaded.value()->Insert(SetRecord::FromTokens({4, 5, 6}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), before);
}

TEST_F(ShardedSnapshotTest, ExplicitBackendMustMatchSnapshotKind) {
  auto db = MakeDb(13);
  auto sharded = MustBuild(db, FastOptions(2));
  std::string sharded_path = Path("kind_sharded");
  ASSERT_TRUE(sharded->Save(sharded_path).ok());

  EngineOptions single_options;
  single_options.num_groups = 12;
  single_options.cascade = FastOptions(1).cascade;
  auto single = MustBuild(db, single_options);
  std::string single_path = Path("kind_single");
  ASSERT_TRUE(single->Save(single_path).ok());

  // Explicit sharded open of a sharded snapshot works.
  OpenOptions open;
  open.backend = "sharded_les3";
  EXPECT_TRUE(EngineBuilder::Open(sharded_path, open).ok());
  // A sharded snapshot cannot reopen single-index, nor vice versa.
  open.backend = "les3";
  EXPECT_FALSE(EngineBuilder::Open(sharded_path, open).ok());
  open.backend = "disk_les3";
  EXPECT_FALSE(EngineBuilder::Open(sharded_path, open).ok());
  open.backend = "sharded_les3";
  EXPECT_FALSE(EngineBuilder::Open(single_path, open).ok());
}

TEST_F(ShardedSnapshotTest, OneShardSnapshotRoundTrips) {
  auto db = MakeDb(14, /*num_sets=*/120);
  auto original = MustBuild(db, FastOptions(1));
  std::string path = Path("one_shard");
  ASSERT_TRUE(original->Save(path).ok());
  auto reloaded = EngineBuilder::Open(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  SetView q = db->set(3);
  ExpectExactHits(original->Knn(q, 9).hits, reloaded.value()->Knn(q, 9).hits,
                  "one-shard knn");
}

TEST_F(ShardedSnapshotTest, EveryTruncationOfShardedSnapshotFails) {
  auto db = MakeDb(15, /*num_sets=*/60, /*num_tokens=*/30);
  auto engine = MustBuild(db, FastOptions(3));
  std::string path = Path("trunc");
  ASSERT_TRUE(engine->Save(path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(persist::ReadFileBytes(path, &bytes).ok());
  ASSERT_TRUE(persist::DecodeSnapshot(bytes.data(), bytes.size()).ok());
  // Step 7 keeps the sweep fast; truncation failures are byte-local.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_FALSE(persist::DecodeSnapshot(bytes.data(), len).ok())
        << "truncation at " << len << " of " << bytes.size();
  }
}

TEST_F(ShardedSnapshotTest, ShardCountMismatchRejected) {
  auto db = MakeDb(16, /*num_sets=*/60, /*num_tokens=*/30);
  auto engine = MustBuild(db, FastOptions(3));
  std::string path = Path("mismatch");
  ASSERT_TRUE(engine->Save(path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(persist::ReadFileBytes(path, &bytes).ok());
  // The META chunk is the first chunk; its num_shards u32 is the last
  // field of its payload. Flipping it breaks the META<->PART agreement
  // (and the CRC, were it not recomputed) — corrupt via a full re-encode
  // instead: decode, then lie about the shard count.
  auto loaded = persist::DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.ok());
  persist::SnapshotMeta meta = loaded.value().meta;
  const SetDatabase& global = *loaded.value().db;
  // Rebuild the id-mod-S local slices the encoder compacts columns
  // against (the snapshot under test is clean, so no holes to mirror).
  std::vector<SetDatabase> locals;
  for (size_t s = 0; s < loaded.value().shards.size(); ++s) {
    SetDatabase local(global.num_tokens());
    for (SetId id = static_cast<SetId>(s); id < global.size();
         id += static_cast<SetId>(loaded.value().shards.size())) {
      local.AddSet(global.set(id));
    }
    locals.push_back(std::move(local));
  }
  std::vector<const tgm::Tgm*> tgms;
  std::vector<const SetDatabase*> local_dbs;
  for (size_t s = 0; s < loaded.value().shards.size(); ++s) {
    tgms.push_back(&loaded.value().shards[s].tgm);
    local_dbs.push_back(&locals[s]);
  }
  tgms.pop_back();  // claim 2 shards' worth of chunks for a 3-shard split
  local_dbs.pop_back();
  persist::ByteWriter writer;
  persist::EncodeShardedSnapshot(meta, global, tgms, local_dbs, &writer);
  auto result =
      persist::DecodeSnapshot(writer.data().data(), writer.data().size());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace api
}  // namespace les3
