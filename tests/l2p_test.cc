// Tests for l2p/: cascade mechanics (level doubling, min-group-size stop,
// nesting) and partition quality on clustered data.

#include <gtest/gtest.h>

#include <cstring>

#include "datagen/generators.h"
#include "embed/ptr.h"
#include "l2p/cascade.h"
#include "l2p/l2p.h"
#include "partition/metrics.h"
#include "util/random.h"

namespace les3 {
namespace l2p {
namespace {

SetDatabase ClusteredDb(uint32_t clusters, uint32_t per_cluster,
                        uint64_t seed) {
  Rng rng(seed);
  SetDatabase db(clusters * 40);
  for (uint32_t c = 0; c < clusters; ++c) {
    for (uint32_t i = 0; i < per_cluster; ++i) {
      std::vector<TokenId> tokens;
      for (int j = 0; j < 10; ++j) {
        tokens.push_back(static_cast<TokenId>(40 * c + rng.Uniform(40)));
      }
      db.AddSet(SetRecord::FromTokens(std::move(tokens)));
    }
  }
  return db;
}

CascadeOptions FastOptions() {
  CascadeOptions opts;
  opts.init_groups = 4;
  opts.target_groups = 16;
  opts.min_group_size = 8;
  opts.pairs_per_model = 2000;
  opts.siamese.epochs = 3;
  opts.num_threads = 2;
  return opts;
}

TEST(CascadeTest, LevelsRefineAndReachTarget) {
  SetDatabase db = ClusteredDb(4, 80, 1);
  embed::PtrRepresentation ptr(db.num_tokens());
  CascadeResult result = TrainCascade(db, ptr, FastOptions());
  ASSERT_GE(result.levels.size(), 2u);
  EXPECT_EQ(result.levels.front().num_groups, 4u);
  EXPECT_EQ(result.levels.back().num_groups, 16u);
  // Group counts never shrink level to level.
  for (size_t l = 1; l < result.levels.size(); ++l) {
    EXPECT_GE(result.levels[l].num_groups,
              result.levels[l - 1].num_groups);
  }
  EXPECT_GT(result.models_trained, 0u);
  EXPECT_FALSE(result.first_model_losses.empty());
}

TEST(CascadeTest, LevelsNest) {
  // Every finer group must be contained in exactly one coarser group (the
  // property HTGM construction relies on).
  SetDatabase db = ClusteredDb(4, 60, 3);
  embed::PtrRepresentation ptr(db.num_tokens());
  CascadeResult result = TrainCascade(db, ptr, FastOptions());
  for (size_t l = 1; l < result.levels.size(); ++l) {
    const auto& coarse = result.levels[l - 1];
    const auto& fine = result.levels[l];
    std::vector<GroupId> parent(fine.num_groups, kInvalidGroup);
    for (SetId i = 0; i < db.size(); ++i) {
      GroupId c = coarse.assignment[i];
      GroupId f = fine.assignment[i];
      if (parent[f] == kInvalidGroup) {
        parent[f] = c;
      } else {
        EXPECT_EQ(parent[f], c) << "level " << l;
      }
    }
  }
}

TEST(CascadeTest, MinGroupSizeStopsSplitting) {
  SetDatabase db = ClusteredDb(1, 60, 5);
  CascadeOptions opts = FastOptions();
  opts.init_groups = 1;
  opts.use_sorted_init = false;
  opts.target_groups = 64;  // unreachable with min_group_size 30
  opts.min_group_size = 30;
  embed::PtrRepresentation ptr(db.num_tokens());
  CascadeResult result = TrainCascade(db, ptr, opts);
  // 60 sets with min size 30: level 1 has 2 groups of ~30, which cannot
  // split further; the cascade must stop well short of 64.
  EXPECT_LT(result.levels.back().num_groups, 8u);
  // And no group at any level ended smaller than 1.
  auto balance = partition::ComputeBalance(result.levels.back().assignment,
                                           result.levels.back().num_groups);
  EXPECT_GE(balance.min_size, 1u);
}

TEST(CascadeTest, SplitsAreReasonablyBalanced) {
  SetDatabase db = ClusteredDb(4, 100, 7);
  embed::PtrRepresentation ptr(db.num_tokens());
  CascadeResult result = TrainCascade(db, ptr, FastOptions());
  auto balance = partition::ComputeBalance(result.levels.back().assignment,
                                           result.levels.back().num_groups);
  // 400 sets into 16 groups: mean 25; no group should dominate.
  EXPECT_LE(balance.max_size, 150u);
  EXPECT_GE(balance.min_size, 1u);
}

TEST(L2PPartitionerTest, ImplementsPartitionerContract) {
  SetDatabase db = ClusteredDb(4, 60, 9);
  CascadeOptions opts = FastOptions();
  L2PPartitioner l2p(opts);
  auto result = l2p.Partition(db, 16);
  EXPECT_EQ(result.assignment.size(), db.size());
  EXPECT_EQ(result.num_groups, 16u);
  for (GroupId g : result.assignment) EXPECT_LT(g, result.num_groups);
  EXPECT_EQ(l2p.name(), "L2P");
  EXPECT_GE(l2p.last_cascade().levels.size(), 2u);
}

TEST(L2PPartitionerTest, BeatsRandomGpoOnClusteredData) {
  SetDatabase db = ClusteredDb(8, 50, 11);
  CascadeOptions opts = FastOptions();
  opts.init_groups = 8;
  opts.target_groups = 8;
  L2PPartitioner l2p(opts);
  auto result = l2p.Partition(db, 8);
  double achieved = partition::ExactGpo(db, result.assignment,
                                        result.num_groups,
                                        SimilarityMeasure::kJaccard);
  Rng rng(13);
  std::vector<GroupId> random(db.size());
  for (auto& g : random) g = static_cast<GroupId>(rng.Uniform(8));
  double baseline =
      partition::ExactGpo(db, random, 8, SimilarityMeasure::kJaccard);
  EXPECT_LT(achieved, baseline);
}

TEST(CascadeTest, DeterministicPerSeed) {
  SetDatabase db = ClusteredDb(2, 60, 15);
  embed::PtrRepresentation ptr(db.num_tokens());
  CascadeOptions opts = FastOptions();
  opts.num_threads = 1;  // single-threaded for fully ordered execution
  CascadeResult a = TrainCascade(db, ptr, opts);
  CascadeResult b = TrainCascade(db, ptr, opts);
  EXPECT_EQ(a.levels.back().assignment, b.levels.back().assignment);
}

TEST(CascadeTest, ThreadCountInvariant) {
  // The sharded build trains each shard's cascade on hw / S threads, so
  // the partition and every model must not depend on the thread count.
  SetDatabase db = ClusteredDb(4, 80, 21);
  embed::PtrRepresentation ptr(db.num_tokens());
  CascadeOptions opts = FastOptions();
  opts.keep_models = true;
  opts.num_threads = 1;
  CascadeResult one = TrainCascade(db, ptr, opts);
  opts.num_threads = 4;
  CascadeResult four = TrainCascade(db, ptr, opts);
  ASSERT_EQ(one.levels.size(), four.levels.size());
  for (size_t l = 0; l < one.levels.size(); ++l) {
    EXPECT_EQ(one.levels[l].num_groups, four.levels[l].num_groups);
    EXPECT_EQ(one.levels[l].assignment, four.levels[l].assignment);
  }
  ASSERT_GT(one.models.size(), 0u);
  ASSERT_EQ(one.models.size(), four.models.size());
  for (size_t m = 0; m < one.models.size(); ++m) {
    const CascadeModelSnapshot& x = one.models[m];
    const CascadeModelSnapshot& y = four.models[m];
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(std::memcmp(&x.threshold, &y.threshold, sizeof(float)), 0);
    EXPECT_EQ(x.routed_by_threshold, y.routed_by_threshold);
    EXPECT_EQ(x.layer_sizes, y.layer_sizes);
    ASSERT_EQ(x.params.size(), y.params.size());
    EXPECT_EQ(std::memcmp(x.params.data(), y.params.data(),
                          x.params.size() * sizeof(float)),
              0)
        << "model " << m;
  }
}

}  // namespace
}  // namespace l2p
}  // namespace les3
