#include "ml/siamese.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"
#include "util/timer.h"

namespace les3 {
namespace ml {

float SurrogateLoss(float ox, float oy, float dissimilarity) {
  bool same_side = (ox >= 0.5f) == (oy >= 0.5f);
  if (!same_side) return 0.0f;
  return (0.5f - std::fabs(ox - oy)) * dissimilarity;
}

SiameseStats TrainSiamese(Mlp* net, const Matrix& representations,
                          const std::vector<SiamesePair>& pairs,
                          const SiameseOptions& options) {
  LES3_CHECK_EQ(net->output_dim(), 1u);
  SiameseStats stats;
  if (pairs.empty()) return stats;
  WallTimer timer;
  Rng rng(options.seed);
  Adam adam(net->NumParams(), options.adam);
  LES3_CHECK_EQ(representations.cols(), net->input_dim());

  const std::vector<ParamSpan> params = net->ParamSpans();
  for (const SiamesePair& p : pairs) {
    LES3_CHECK_LT(p.a, representations.rows());
    LES3_CHECK_LT(p.b, representations.rows());
  }

  std::vector<uint32_t> order(pairs.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;

  // Per-batch buffers, reused across batches: the distinct rows the batch
  // forwards, each gradient row's forward sample (the batch's first members
  // in order, then its second members), and dL/dOutput per gradient row.
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> sample_of_row(representations.rows(), kUnseen);
  std::vector<uint32_t> distinct;
  std::vector<uint32_t> samples;
  std::vector<float> grad;
  auto sample = [&](uint32_t row) {
    uint32_t& s = sample_of_row[row];
    if (s == kUnseen) {
      s = static_cast<uint32_t>(distinct.size());
      distinct.push_back(row);
    }
    return s;
  };

  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options.batch_size) {
      size_t batch = std::min(options.batch_size, order.size() - start);
      distinct.clear();
      samples.resize(2 * batch);
      for (size_t i = 0; i < batch; ++i) {
        samples[i] = sample(pairs[order[start + i]].a);
      }
      for (size_t i = 0; i < batch; ++i) {
        samples[batch + i] = sample(pairs[order[start + i]].b);
      }
      for (uint32_t row : distinct) sample_of_row[row] = kUnseen;
      net->Forward(representations, distinct.data(), distinct.size());
      grad.assign(2 * batch, 0.0f);
      float batch_loss = 0.0f;
      const float inv_batch = 1.0f / static_cast<float>(batch);
      for (size_t i = 0; i < batch; ++i) {
        const SiamesePair& p = pairs[order[start + i]];
        float ox = net->Output(samples[i]);
        float oy = net->Output(samples[batch + i]);
        batch_loss += SurrogateLoss(ox, oy, p.dissimilarity);
        bool same_side = (ox >= 0.5f) == (oy >= 0.5f);
        if (!same_side || p.dissimilarity == 0.0f) continue;
        // d/dOx [ (0.5 - |Ox - Oy|) * d ] = -sign(Ox - Oy) * d.
        float sign = (ox > oy) ? 1.0f : (ox < oy ? -1.0f : 0.0f);
        grad[i] = -sign * p.dissimilarity * inv_batch;
        grad[batch + i] = sign * p.dissimilarity * inv_batch;
      }
      net->ZeroGrad();
      net->Backward(samples.data(), grad.data(), 2 * batch);
      adam.Step(params);
      stats.batch_losses.push_back(batch_loss * inv_batch);
    }
  }
  stats.train_seconds = timer.Seconds();
  return stats;
}

}  // namespace ml
}  // namespace les3
