// Tests for tgm/tgm.h: construction against the paper's Figure 1 example,
// the matched-count/UB machinery, and Section 6 update handling.

#include "tgm/tgm.h"

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "util/random.h"

namespace les3 {
namespace tgm {
namespace {

// The Figure 1 example: T = {A,B,C,D} (ids 0..3), six sets in two groups.
// G0 = {{A}, {A,B}, {A,B,C}}  -> tokens {A,B,C}
// G1 = {{D}, {B,D}, {B,C,D}}  -> tokens {B,C,D}
SetDatabase Figure1Db() {
  SetDatabase db(4);
  db.AddSet(SetRecord::FromTokens({0}));
  db.AddSet(SetRecord::FromTokens({0, 1}));
  db.AddSet(SetRecord::FromTokens({0, 1, 2}));
  db.AddSet(SetRecord::FromTokens({3}));
  db.AddSet(SetRecord::FromTokens({1, 3}));
  db.AddSet(SetRecord::FromTokens({1, 2, 3}));
  return db;
}

const std::vector<GroupId> kFig1Assignment{0, 0, 0, 1, 1, 1};

TEST(TgmTest, Figure1Matrix) {
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  EXPECT_EQ(tgm.num_groups(), 2u);
  // M[G0, *] = 1,1,1,0 ; M[G1, *] = 0,1,1,1.
  EXPECT_TRUE(tgm.Test(0, 0));
  EXPECT_TRUE(tgm.Test(0, 1));
  EXPECT_TRUE(tgm.Test(0, 2));
  EXPECT_FALSE(tgm.Test(0, 3));
  EXPECT_FALSE(tgm.Test(1, 0));
  EXPECT_TRUE(tgm.Test(1, 1));
  EXPECT_TRUE(tgm.Test(1, 2));
  EXPECT_TRUE(tgm.Test(1, 3));
}

TEST(TgmTest, Figure1QueryExample) {
  // Query {A}: UB(Q, G0) = 1, UB(Q, G1) = 0 (paper Section 3.1).
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  std::vector<double> ubs;
  tgm.UpperBounds(SetRecord::FromTokens({0}), SimilarityMeasure::kJaccard,
                  &ubs);
  ASSERT_EQ(ubs.size(), 2u);
  EXPECT_DOUBLE_EQ(ubs[0], 1.0);
  EXPECT_DOUBLE_EQ(ubs[1], 0.0);
}

TEST(TgmTest, GroupMembersAndSizes) {
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  EXPECT_EQ(tgm.group_size(0), 3u);
  EXPECT_EQ(tgm.group_members(1), (std::vector<SetId>{3, 4, 5}));
  EXPECT_EQ(tgm.group_of(2), 0u);
  EXPECT_EQ(tgm.group_of(5), 1u);
}

TEST(TgmTest, MatchedCountsMultiplicityAndUnknownTokens) {
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  // Query {B, B, Z} where Z = token 9 (outside T): B matched twice in both
  // groups, Z contributes nothing.
  std::vector<uint32_t> counts;
  size_t cols = tgm.MatchedCounts(SetRecord::FromTokens({1, 1, 9}), &counts);
  EXPECT_EQ(cols, 1u);  // only B's column is non-empty
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(TgmTest, BitsMatchDefinitionOnRandomData) {
  datagen::UniformOptions opts;
  opts.num_sets = 500;
  opts.num_tokens = 200;
  opts.seed = 3;
  SetDatabase db = GenerateUniform(opts);
  Rng rng(5);
  const uint32_t n = 16;
  std::vector<GroupId> assignment(db.size());
  for (auto& g : assignment) g = static_cast<GroupId>(rng.Uniform(n));
  Tgm tgm(db, assignment, n);
  for (GroupId g = 0; g < n; ++g) {
    for (TokenId t = 0; t < db.num_tokens(); ++t) {
      bool expected = false;
      for (SetId s : tgm.group_members(g)) {
        expected = expected || db.set(s).Contains(t);
      }
      ASSERT_EQ(tgm.Test(g, t), expected) << "g=" << g << " t=" << t;
    }
  }
}

TEST(TgmTest, UpperBoundDominatesAllMembers) {
  // The core Theorem 3.1 invariant on the real index across measures.
  datagen::ZipfOptions opts;
  opts.num_sets = 800;
  opts.num_tokens = 300;
  opts.seed = 7;
  SetDatabase db = GenerateZipf(opts);
  Rng rng(9);
  const uint32_t n = 20;
  std::vector<GroupId> assignment(db.size());
  for (auto& g : assignment) g = static_cast<GroupId>(rng.Uniform(n));
  Tgm tgm(db, assignment, n);
  for (auto measure : {SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
                       SimilarityMeasure::kCosine}) {
    for (int q = 0; q < 30; ++q) {
      SetView query = db.set(static_cast<SetId>(rng.Uniform(800)));
      std::vector<double> ubs;
      tgm.UpperBounds(query, measure, &ubs);
      for (GroupId g = 0; g < n; ++g) {
        for (SetId s : tgm.group_members(g)) {
          ASSERT_GE(ubs[g] + 1e-12, Similarity(measure, query, db.set(s)))
              << ToString(measure);
        }
      }
    }
  }
}

TEST(TgmTest, RunOptimizeKeepsSemantics) {
  datagen::UniformOptions opts;
  opts.num_sets = 400;
  opts.num_tokens = 100;
  SetDatabase db = GenerateUniform(opts);
  std::vector<GroupId> assignment(db.size());
  for (SetId i = 0; i < db.size(); ++i) assignment[i] = i % 4;
  Tgm tgm(db, assignment, 4);
  std::vector<uint32_t> before;
  tgm.MatchedCounts(db.set(0), &before);
  tgm.RunOptimize();
  std::vector<uint32_t> after;
  tgm.MatchedCounts(db.set(0), &after);
  EXPECT_EQ(before, after);
}

TEST(TgmTest, BatchRowsMatchReferenceOracle) {
  // Every row of the batched probe against the per-bit reference loop,
  // which shares no code with the container kernels. Contiguous group
  // blocks give run containers after RunOptimize; the ragged queries and
  // per-row thresholds cover the empty query, multisets, tokens outside
  // the universe, and hopeless min_counts.
  datagen::ZipfOptions opts;
  opts.num_sets = 600;
  opts.num_tokens = 150;
  opts.seed = 11;
  SetDatabase db = GenerateZipf(opts);
  const uint32_t n = 40;
  std::vector<GroupId> assignment(db.size());
  for (SetId i = 0; i < db.size(); ++i) assignment[i] = i * n / db.size();
  std::vector<SetRecord> queries;
  queries.emplace_back();                                   // empty
  queries.push_back(SetRecord::FromSortedTokens({0}));      // singleton
  queries.push_back(SetRecord::FromSortedTokens({5, 5, 5}));  // multiset
  queries.push_back(SetRecord::FromSortedTokens({200, 209}));  // unseen
  queries.push_back(SetRecord::FromSortedTokens({1, 1, 7, 151, 160}));
  for (SetId i = 0; i < db.size(); i += 53) queries.emplace_back(db.set(i));
  std::vector<SetView> views;
  for (const SetRecord& q : queries) views.push_back(q.view());

  for (auto backend :
       {bitmap::BitmapBackend::kRoaring, bitmap::BitmapBackend::kBitVector}) {
    Tgm tgm(db, assignment, n, backend);
    tgm.RunOptimize();
    // Per-row thresholds cycle through none, any match, two matches, and
    // one more than the query has tokens (hopeless by construction).
    std::vector<uint32_t> min_counts;
    for (size_t q = 0; q < queries.size(); ++q) {
      const uint32_t cycle[] = {0, 1, 2,
                                static_cast<uint32_t>(views[q].size() + 1)};
      min_counts.push_back(cycle[q % 4]);
    }
    std::vector<uint32_t> counts;
    std::vector<std::vector<GroupId>> candidates;
    std::vector<size_t> visited;
    tgm.MatchedCandidatesBatch(views.data(), views.size(), min_counts.data(),
                               &counts, &candidates, &visited);
    ASSERT_EQ(counts.size(), views.size() * n);
    for (size_t q = 0; q < views.size(); ++q) {
      std::string tag = bitmap::ToString(backend) + " q=" + std::to_string(q);
      std::vector<uint32_t> reference;
      size_t reference_visited =
          tgm.MatchedCountsReference(views[q], &reference);
      uint32_t attainable = 0;
      for (TokenId t : views[q]) {
        bool present = false;
        for (GroupId g = 0; g < n; ++g) present = present || tgm.Test(g, t);
        attainable += present;
      }
      std::vector<uint32_t> row(counts.begin() + q * n,
                                counts.begin() + (q + 1) * n);
      if (attainable < min_counts[q]) {  // short-circuited: nothing walked
        EXPECT_EQ(row, std::vector<uint32_t>(n, 0)) << tag;
        EXPECT_TRUE(candidates[q].empty()) << tag;
        EXPECT_EQ(visited[q], 0u) << tag;
        continue;
      }
      EXPECT_EQ(row, reference) << tag;
      EXPECT_EQ(visited[q], reference_visited) << tag;
      std::vector<GroupId> expected;
      for (GroupId g = 0; g < n; ++g) {
        if (reference[g] >= min_counts[q]) expected.push_back(g);
      }
      EXPECT_EQ(candidates[q], expected) << tag;
    }
  }
}

TEST(TgmUpdateTest, ClosedUniverseInsertChoosesBestGroup) {
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  // New set {A, B}: UB(G0) = 1.0, UB(G1) = 0.5 -> goes to G0.
  SetRecord s = SetRecord::FromTokens({0, 1});
  SetId id = db.AddSet(s);
  GroupId g = tgm.AddSet(id, db.set(id), SimilarityMeasure::kJaccard);
  EXPECT_EQ(g, 0u);
  EXPECT_EQ(tgm.group_of(id), 0u);
  EXPECT_EQ(tgm.group_size(0), 4u);
}

TEST(TgmUpdateTest, TieBreaksToSmallestGroup) {
  SetDatabase db = Figure1Db();
  // Make group 1 smaller: assignment {0,0,0,0,1,1}.
  std::vector<GroupId> assignment{0, 0, 0, 0, 1, 1};
  Tgm tgm(db, assignment, 2);
  // Query {B}: both groups contain B -> UB tie at 1.0; group 1 is smaller.
  SetId id = db.AddSet(SetRecord::FromTokens({1}));
  GroupId g = tgm.AddSet(id, db.set(id), SimilarityMeasure::kJaccard);
  EXPECT_EQ(g, 1u);
}

TEST(TgmUpdateTest, OpenUniverseInsertGrowsColumns) {
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  uint32_t cols_before = tgm.num_token_columns();
  // {A, E, F} with E=7, F=9 unseen: routed by PS = {A} to G0, then new
  // columns appear and are set for G0.
  SetId id = db.AddSet(SetRecord::FromTokens({0, 7, 9}));
  GroupId g = tgm.AddSet(id, db.set(id), SimilarityMeasure::kJaccard);
  EXPECT_EQ(g, 0u);
  EXPECT_GT(tgm.num_token_columns(), cols_before);
  EXPECT_TRUE(tgm.Test(0, 7));
  EXPECT_TRUE(tgm.Test(0, 9));
  EXPECT_FALSE(tgm.Test(1, 7));
  // Searching for the new token now reaches the right group.
  std::vector<uint32_t> counts;
  tgm.MatchedCounts(SetRecord::FromTokens({7}), &counts);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
}

TEST(TgmUpdateTest, AllNewTokensGoToSmallestGroup) {
  SetDatabase db = Figure1Db();
  std::vector<GroupId> assignment{0, 0, 0, 0, 0, 1};  // group 1 has 1 set
  Tgm tgm(db, assignment, 2);
  SetId id = db.AddSet(SetRecord::FromTokens({20, 21}));
  GroupId g = tgm.AddSet(id, db.set(id), SimilarityMeasure::kJaccard);
  EXPECT_EQ(g, 1u);
}

TEST(TgmTest, MemoryAccountingPositiveAndOrdered) {
  SetDatabase db = Figure1Db();
  Tgm tgm(db, kFig1Assignment, 2);
  EXPECT_GT(tgm.BitmapBytes(), 0u);
  EXPECT_GT(tgm.MemoryBytes(), tgm.BitmapBytes());
}

}  // namespace
}  // namespace tgm
}  // namespace les3
