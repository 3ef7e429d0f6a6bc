// Siamese-network training on the paper's surrogate loss (Equation 18).
//
// A Siamese "network" is one MLP applied to both members of a pair with
// shared weights; the loss couples the two outputs:
//
//   loss'(Sx, Sy) = W(Ox, Oy) * (1 - Sim(Sx, Sy))   if Ox, Oy fall on the
//                                                    same side of 0.5,
//                 = 0                                otherwise,
//   with W(Ox, Oy) = 0.5 - |Ox - Oy|.
//
// Minimizing it pushes dissimilar same-side pairs apart (growing |Ox - Oy|
// until the pair crosses the 0.5 boundary) and leaves similar pairs alone,
// which has the same global optimum as the exact loss of Equation (15).

#ifndef LES3_ML_SIAMESE_H_
#define LES3_ML_SIAMESE_H_

#include <cstdint>
#include <vector>

#include "ml/adam.h"
#include "ml/mlp.h"

namespace les3 {
namespace ml {

/// One training pair: two row indices into the representation matrix and the
/// precomputed dissimilarity 1 - Sim(Sx, Sy).
struct SiamesePair {
  uint32_t a;
  uint32_t b;
  float dissimilarity;
};

struct SiameseOptions {
  size_t epochs = 3;         // paper Section 7.1
  size_t batch_size = 256;   // paper Section 7.1
  AdamOptions adam;          // Adam, paper Section 7.1
  uint64_t seed = 1;
};

/// Per-training-run statistics (feeds the Figure 7 learning curves).
struct SiameseStats {
  std::vector<float> batch_losses;  // mean Eq.-18 loss per mini-batch
  double train_seconds = 0.0;
};

/// \brief Trains `net` in-place on `pairs`, whose endpoints index rows of
/// `representations`.
///
/// Each mini-batch forwards every distinct representation row once, however
/// many of its pairs name it: with 10k pairs over a ~200-row group, about
/// 180 forward samples instead of 2 * 256. The backward pass still walks all
/// 2 * batch gradient rows (the batch's first members in order, then its
/// second members) through a row-to-sample map, because summing two rows'
/// contributions before adding them to a weight would round differently.
/// The resulting weights and batch_losses are bit-identical to a trainer
/// that stacks and forwards both members of every pair (ml/mlp.h gives the
/// contract). The dedup table has one entry per representation row, so
/// callers pass only the rows the pairs draw from (l2p/cascade.cc passes
/// one group's rows).
SiameseStats TrainSiamese(Mlp* net, const Matrix& representations,
                          const std::vector<SiamesePair>& pairs,
                          const SiameseOptions& options);

/// Evaluates Equation (18) on a pair of outputs (exposed for tests).
float SurrogateLoss(float ox, float oy, float dissimilarity);

}  // namespace ml
}  // namespace les3

#endif  // LES3_ML_SIAMESE_H_
