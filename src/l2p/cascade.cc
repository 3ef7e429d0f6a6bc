#include "l2p/cascade.h"

#include <algorithm>
#include <memory>

#include "partition/partitioner.h"
#include "partition/sorted_init.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace les3 {
namespace l2p {
namespace {

/// Splits one group with a freshly trained Siamese model. Returns the
/// member lists of the two sides and the training stats.
struct SplitOutcome {
  std::vector<SetId> left;
  std::vector<SetId> right;
  ml::SiameseStats stats;
  uint64_t param_bytes = 0;
  CascadeModelSnapshot model;  // filled only under options.keep_models
};

SplitOutcome SplitGroup(const SetDatabase& db, const ml::Matrix& reps,
                        const std::vector<SetId>& members,
                        const CascadeOptions& options, uint64_t seed) {
  SplitOutcome outcome;
  Rng rng(seed);
  const size_t n = members.size();

  // Gather the group's representation rows into a local block: pairs index
  // it, so the trainer's per-batch dedup table is O(group size), not O(|D|).
  ml::Matrix local(n, reps.cols());
  for (size_t i = 0; i < n; ++i) {
    const float* row = reps.Row(members[i]);
    std::copy(row, row + reps.cols(), local.Row(i));
  }

  // Sample training pairs within the group.
  uint64_t max_pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  size_t num_pairs =
      static_cast<size_t>(std::min<uint64_t>(options.pairs_per_model,
                                             max_pairs));
  std::vector<ml::SiamesePair> pairs;
  pairs.reserve(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    size_t a = rng.Uniform(n);
    size_t b = rng.Uniform(n - 1);
    if (b >= a) ++b;
    float dissim = static_cast<float>(
        1.0 - Similarity(options.measure, db.set(members[a]),
                         db.set(members[b])));
    pairs.push_back(ml::SiamesePair{static_cast<uint32_t>(a),
                                    static_cast<uint32_t>(b), dissim});
  }

  std::vector<size_t> layer_sizes;
  layer_sizes.push_back(reps.cols());
  for (size_t h : options.hidden_layers) layer_sizes.push_back(h);
  layer_sizes.push_back(1);
  ml::Mlp net(layer_sizes, rng.Next());
  outcome.param_bytes = net.NumParams() * sizeof(float);

  ml::SiameseOptions sopts = options.siamese;
  sopts.seed = rng.Next();
  outcome.stats = TrainSiamese(&net, local, pairs, sopts);

  // Route members by the output neuron.
  std::vector<float> outputs(n);
  for (size_t i = 0; i < n; ++i) {
    outputs[i] = net.ForwardOne(local.Row(i))[0];
  }
  auto route = [&](float threshold) {
    outcome.model.threshold = threshold;
    outcome.left.clear();
    outcome.right.clear();
    for (size_t i = 0; i < n; ++i) {
      (outputs[i] < threshold ? outcome.left : outcome.right)
          .push_back(members[i]);
    }
  };
  route(0.5f);
  size_t min_side = static_cast<size_t>(
      std::max(1.0, options.min_side_fraction * static_cast<double>(n)));
  if (outcome.left.size() < min_side || outcome.right.size() < min_side) {
    // Degenerate split: fall back to the median output so the level still
    // doubles the group count with balanced sides.
    std::vector<float> sorted = outputs;
    std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
    float median = sorted[n / 2];
    route(median);
    if (outcome.left.empty() || outcome.right.empty()) {
      // All outputs identical: arbitrary even split keeps progress. The
      // threshold cannot reproduce this routing, and the model snapshot
      // says so.
      outcome.model.routed_by_threshold = false;
      outcome.left.assign(members.begin(), members.begin() + n / 2);
      outcome.right.assign(members.begin() + n / 2, members.end());
    }
  }
  if (options.keep_models) {
    outcome.model.layer_sizes.assign(layer_sizes.begin(), layer_sizes.end());
    outcome.model.params = net.ParamsFlat();
  }
  return outcome;
}

}  // namespace

CascadeResult TrainCascade(const SetDatabase& db,
                           const embed::SetRepresentation& rep,
                           const CascadeOptions& options) {
  LES3_CHECK_GT(options.target_groups, 0u);
  WallTimer timer;
  CascadeResult result;

  ml::Matrix reps = embed::EmbedDatabase(rep, db);

  // Level 0: sorted initialization (or a single root group).
  std::vector<GroupId> assignment;
  uint32_t num_groups;
  if (options.use_sorted_init && options.init_groups > 1) {
    uint32_t init = std::min<uint32_t>(options.init_groups,
                                       options.target_groups);
    init = std::min<uint32_t>(init, std::max<size_t>(db.size(), 1));
    assignment = partition::SortedInitialization(db, init);
    num_groups = init;
  } else {
    assignment.assign(db.size(), 0);
    num_groups = 1;
  }
  result.levels.push_back(CascadeLevel{assignment, num_groups});

  // Built when the first level has groups to split: at the serving
  // default a shard often trains nothing, and its workers would only be
  // started and joined.
  std::unique_ptr<ThreadPool> pool;
  Rng level_rng(options.seed);
  size_t largest_group = 0;

  while (num_groups < options.target_groups) {
    auto groups = partition::GroupMembers(assignment, num_groups);
    // Groups eligible for splitting this level.
    std::vector<uint32_t> to_split;
    for (uint32_t g = 0; g < num_groups; ++g) {
      if (groups[g].size() >= std::max<size_t>(options.min_group_size, 2)) {
        to_split.push_back(g);
      }
    }
    if (to_split.empty()) break;
    // Do not overshoot the target: split only as many groups as needed.
    size_t budget = options.target_groups - num_groups;
    if (to_split.size() > budget) {
      // Prefer the largest groups (closest to the balance objective).
      std::sort(to_split.begin(), to_split.end(),
                [&](uint32_t a, uint32_t b) {
                  return groups[a].size() > groups[b].size();
                });
      to_split.resize(budget);
    }

    if (!pool) pool = std::make_unique<ThreadPool>(options.num_threads);
    for (uint32_t g : to_split) {
      largest_group = std::max(largest_group, groups[g].size());
    }

    std::vector<SplitOutcome> outcomes(to_split.size());
    std::vector<uint64_t> seeds(to_split.size());
    for (size_t i = 0; i < to_split.size(); ++i) seeds[i] = level_rng.Next();
    pool->ParallelFor(to_split.size(), [&](size_t i) {
      outcomes[i] =
          SplitGroup(db, reps, groups[to_split[i]], options, seeds[i]);
    });

    // Apply splits: side 0 keeps the old id, side 1 gets a fresh id.
    uint32_t next_id = num_groups;
    for (size_t i = 0; i < to_split.size(); ++i) {
      SplitOutcome& oc = outcomes[i];
      for (SetId s : oc.right) assignment[s] = next_id;
      ++next_id;
      result.models_trained += 1;
      result.model_memory_bytes += oc.param_bytes;
      if (result.first_model_losses.empty() &&
          !oc.stats.batch_losses.empty()) {
        result.first_model_losses = oc.stats.batch_losses;
      }
      if (options.keep_models) {
        oc.model.level = static_cast<uint32_t>(result.levels.size());
        oc.model.group = to_split[i];
        result.models.push_back(std::move(oc.model));
      }
    }
    num_groups = next_id;
    // Renumber densely in case some groups were skipped entirely.
    num_groups = partition::Compact(&assignment);
    result.levels.push_back(CascadeLevel{assignment, num_groups});
  }

  result.train_seconds = timer.Seconds();
  // Working set: all model parameters (kept for routing), one mini-batch's
  // cached activations (at most 2 * batch distinct rows through every
  // layer), the pair buffer, and the largest group's local representation
  // block with its dedup table.
  size_t layer_widths = rep.dim() + 1;
  for (size_t h : options.hidden_layers) layer_widths += h;
  result.working_memory_bytes =
      result.model_memory_bytes +
      2 * options.siamese.batch_size * layer_widths * sizeof(float) +
      options.pairs_per_model * sizeof(ml::SiamesePair) +
      largest_group * (rep.dim() * sizeof(float) + sizeof(uint32_t));
  return result;
}

}  // namespace l2p
}  // namespace les3
