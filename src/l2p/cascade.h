// The L2P cascade (Section 5.2): a hierarchy of Siamese networks, each
// responsible for splitting one group of sets into two sub-groups, applied
// level by level until the target group count is reached.
//
// Mechanics per the paper (Section 7.1):
//   - sorted initialization into 128 groups replaces the costly top levels;
//   - each model trains on up to 40k random intra-group pairs, batch 256,
//     3 epochs, Adam, on an MLP with two hidden layers of 8 sigmoid units;
//   - a group with fewer than `min_group_size` (50) sets is not split, so a
//     level may hold fewer than 2^i groups;
//   - sets are routed by the output neuron: O < 0.5 -> first sub-group,
//     O >= 0.5 -> second.
// Engineering note: when a trained split is degenerate (one side nearly
// empty) we fall back to splitting at the median output, preserving the
// balance property the loss is designed to encourage.
//
// Every level's assignment is retained so the hierarchical index (HTGM,
// tgm/htgm.h) can be built from any prefix of levels. Models at the same
// level train in parallel (the future-work direction of Section 7.2); each
// model depends only on its group and its seed, so the result is the same
// for any thread count.
//
// Training cost: each split gathers its group's representation rows into a
// local block that its pairs index, and the trainer (ml/siamese.h) forwards
// each distinct row of a mini-batch once, eight samples side by side. The
// trained weights, and so every routing decision, are bit-identical to the
// per-sample scalar trainer under the same libm expf (ml/mlp.h).

#ifndef LES3_L2P_CASCADE_H_
#define LES3_L2P_CASCADE_H_

#include <vector>

#include "core/database.h"
#include "core/similarity.h"
#include "embed/representation.h"
#include "ml/siamese.h"

namespace les3 {
namespace l2p {

struct CascadeOptions {
  uint32_t init_groups = 128;    // sorted-initialization width
  uint32_t target_groups = 1024;
  size_t min_group_size = 50;    // do not split smaller groups
  size_t pairs_per_model = 40000;
  std::vector<size_t> hidden_layers = {8, 8};
  ml::SiameseOptions siamese;    // epochs=3, batch=256, Adam
  SimilarityMeasure measure = SimilarityMeasure::kJaccard;
  bool use_sorted_init = true;   // false: single root group (Figure 7 mode)
  size_t num_threads = 0;        // 0 = hardware concurrency
  /// Degenerate-split fallback: if one side would get fewer than this
  /// fraction of the group, split at the median output instead.
  double min_side_fraction = 0.05;
  uint64_t seed = 41;
  /// Retain a CascadeModelSnapshot per trained model in the result, so the
  /// learned partitioner can be persisted alongside the index
  /// (persist/snapshot.h). Off by default: the snapshots cost memory and
  /// nothing on the query path reads them.
  bool keep_models = false;
};

/// \brief Portable snapshot of one trained split model: enough to persist
/// and restore the learned partitioner without retraining.
struct CascadeModelSnapshot {
  uint32_t level = 0;       // cascade level the split ran at (1-based;
                            // level 0 is the sorted initialization)
  GroupId group = 0;        // group id split at that level
  float threshold = 0.5f;   // routing threshold actually used (0.5, or the
                            // median output after a degenerate split)
  /// Whether `output < threshold` reproduces the recorded split. False
  /// only in the all-outputs-identical fallback, where members were split
  /// positionally — replaying the threshold there would not recreate the
  /// persisted assignment (which is always authoritative either way).
  bool routed_by_threshold = true;
  std::vector<uint32_t> layer_sizes;  // {input, hidden..., 1}
  std::vector<float> params;          // Mlp::ParamsFlat() layout
};

/// Per-level snapshot of the hierarchy.
struct CascadeLevel {
  std::vector<GroupId> assignment;  // per set, dense ids
  uint32_t num_groups = 0;
};

/// Full cascade output plus the training accounting used by Figures 7 & 9.
struct CascadeResult {
  std::vector<CascadeLevel> levels;  // levels[0] = initialization
  double train_seconds = 0.0;        // wall time, training + inference
  uint64_t models_trained = 0;
  uint64_t model_memory_bytes = 0;   // all model parameters
  /// Params + one mini-batch's activations + pair buffer + the largest
  /// trained group's local representation block and dedup table.
  uint64_t working_memory_bytes = 0;
  /// Loss curve of the first trained model (Figure 7a).
  std::vector<float> first_model_losses;
  /// One snapshot per trained model, in training order; filled only when
  /// CascadeOptions::keep_models is set.
  std::vector<CascadeModelSnapshot> models;
};

/// Trains the cascade for `db` using representations from `rep`.
CascadeResult TrainCascade(const SetDatabase& db,
                           const embed::SetRepresentation& rep,
                           const CascadeOptions& options);

}  // namespace l2p
}  // namespace les3

#endif  // LES3_L2P_CASCADE_H_
