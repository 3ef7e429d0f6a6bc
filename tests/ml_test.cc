// Tests for ml/: MLP forward/backward (gradient-checked), Adam, the
// Siamese trainer with the Equation-18 surrogate loss, and the bit-exact
// oracle that holds the batched trainer to the per-sample scalar one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ml/adam.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/siamese.h"

namespace les3 {
namespace ml {
namespace {

TEST(MatrixTest, Basics) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
  m.Fill(1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
}

TEST(MatrixTest, XavierInitWithinLimit) {
  Rng rng(1);
  Matrix m(8, 16);
  m.InitXavier(&rng);
  float limit = std::sqrt(6.0f / (8 + 16));
  bool any_nonzero = false;
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit);
    any_nonzero = any_nonzero || m.data()[i] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(MlpTest, ForwardMatchesManualComputation) {
  // 1-2-1 net with hand-set weights.
  Mlp net({1, 2, 1}, 7);
  // params: W1 (2x1), b1 (2), W2 (1x2), b2 (1).
  net.SetParamsFlat({0.5f, -1.0f, 0.1f, 0.2f, 1.0f, 1.0f, -0.3f});
  float x = 0.8f;
  auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
  float h1 = sigmoid(0.5f * x + 0.1f);
  float h2 = sigmoid(-1.0f * x + 0.2f);
  float out = sigmoid(h1 + h2 - 0.3f);
  auto got = net.ForwardOne(&x);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NEAR(got[0], out, 1e-6);
  // Batch forward agrees with single forward.
  Matrix batch(1, 1);
  batch.At(0, 0) = x;
  net.Forward(batch, nullptr, 1);
  EXPECT_NEAR(net.Output(0), out, 1e-6);
}

TEST(MlpTest, GradientsMatchFiniteDifferences) {
  // Loss = 0.5 * sum((O - target)^2) over a small batch; analytic gradients
  // from Backward must match central finite differences.
  Mlp net({3, 4, 2}, 11);
  Rng rng(13);
  const size_t batch = 5;
  Matrix input(batch, 3);
  Matrix target(batch, 2);
  for (size_t i = 0; i < batch; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      input.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
    for (size_t j = 0; j < 2; ++j) {
      target.At(i, j) = static_cast<float>(rng.NextDouble());
    }
  }
  auto loss_fn = [&](Mlp* m) {
    m->Forward(input, nullptr, batch);
    double loss = 0.0;
    for (size_t i = 0; i < batch; ++i) {
      for (size_t j = 0; j < 2; ++j) {
        double d = m->Output(i, j) - target.At(i, j);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  // Analytic gradient.
  net.Forward(input, nullptr, batch);
  Matrix grad_out(batch, 2);
  for (size_t i = 0; i < batch; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      grad_out.At(i, j) = net.Output(i, j) - target.At(i, j);
    }
  }
  net.ZeroGrad();
  net.Backward(nullptr, grad_out.data(), batch);
  std::vector<float> analytic = net.GradsFlat();
  // Numeric gradient.
  std::vector<float> params = net.ParamsFlat();
  const double eps = 1e-3;
  for (size_t p = 0; p < params.size(); ++p) {
    std::vector<float> plus = params, minus = params;
    plus[p] += static_cast<float>(eps);
    minus[p] -= static_cast<float>(eps);
    net.SetParamsFlat(plus);
    double lp = loss_fn(&net);
    net.SetParamsFlat(minus);
    double lm = loss_fn(&net);
    double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(analytic[p], numeric,
                1e-2 * std::max(1.0, std::fabs(numeric)))
        << "param " << p;
  }
}

TEST(MlpTest, ParamRoundTrip) {
  Mlp net({4, 8, 8, 1}, 3);
  auto params = net.ParamsFlat();
  EXPECT_EQ(params.size(), net.NumParams());
  EXPECT_EQ(net.NumParams(), 4u * 8 + 8 + 8 * 8 + 8 + 8 + 1);
  params[0] = 123.0f;
  net.SetParamsFlat(params);
  EXPECT_FLOAT_EQ(net.ParamsFlat()[0], 123.0f);
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize f(x) = (x - 3)^2 with Adam on a single parameter.
  float x = 0.0f;
  AdamOptions opts;
  opts.learning_rate = 0.1f;
  Adam adam(1, opts);
  float grad = 0.0f;
  for (int step = 0; step < 500; ++step) {
    grad = 2.0f * (x - 3.0f);
    adam.Step({{&x, &grad, 1}});
  }
  EXPECT_NEAR(x, 3.0f, 0.05f);
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(SiameseTest, SurrogateLossValues) {
  // Same side, maximally close outputs -> full weight.
  EXPECT_FLOAT_EQ(SurrogateLoss(0.6f, 0.6f, 0.8f), 0.5f * 0.8f);
  // Opposite sides -> zero.
  EXPECT_FLOAT_EQ(SurrogateLoss(0.4f, 0.6f, 0.8f), 0.0f);
  // Same side, far apart -> small weight.
  EXPECT_NEAR(SurrogateLoss(0.5f, 0.9f, 1.0f), 0.1f, 1e-6);
  // Similar pairs (dissim 0) cost nothing.
  EXPECT_FLOAT_EQ(SurrogateLoss(0.6f, 0.6f, 0.0f), 0.0f);
}

TEST(SiameseTest, LearnsToSeparateTwoClusters) {
  // Two well-separated point clouds; dissimilarity 1 across, 0 within.
  Rng rng(17);
  const size_t per_cluster = 40;
  Matrix reps(2 * per_cluster, 2);
  for (size_t i = 0; i < per_cluster; ++i) {
    reps.At(i, 0) = static_cast<float>(rng.NextGaussian() * 0.2 - 2.0);
    reps.At(i, 1) = static_cast<float>(rng.NextGaussian() * 0.2);
    reps.At(per_cluster + i, 0) =
        static_cast<float>(rng.NextGaussian() * 0.2 + 2.0);
    reps.At(per_cluster + i, 1) = static_cast<float>(rng.NextGaussian() * 0.2);
  }
  std::vector<SiamesePair> pairs;
  for (uint32_t i = 0; i < 2 * per_cluster; ++i) {
    for (uint32_t j = i + 1; j < 2 * per_cluster; ++j) {
      bool same = (i < per_cluster) == (j < per_cluster);
      pairs.push_back({i, j, same ? 0.0f : 1.0f});
    }
  }
  Mlp net({2, 8, 8, 1}, 19);
  SiameseOptions opts;
  opts.epochs = 20;
  opts.batch_size = 64;
  opts.seed = 23;
  SiameseStats stats = TrainSiamese(&net, reps, pairs, opts);
  EXPECT_FALSE(stats.batch_losses.empty());
  // The split at 0.5 should separate the clusters (allow a couple strays).
  size_t cluster0_left = 0, cluster1_left = 0;
  for (size_t i = 0; i < per_cluster; ++i) {
    if (net.ForwardOne(reps.Row(i))[0] < 0.5f) ++cluster0_left;
    if (net.ForwardOne(reps.Row(per_cluster + i))[0] < 0.5f) {
      ++cluster1_left;
    }
  }
  bool separated = (cluster0_left >= per_cluster - 2 &&
                    cluster1_left <= 2) ||
                   (cluster0_left <= 2 && cluster1_left >= per_cluster - 2);
  EXPECT_TRUE(separated) << cluster0_left << " vs " << cluster1_left;
}

TEST(SiameseTest, LossDecreasesOverTraining) {
  Rng rng(29);
  Matrix reps(60, 3);
  for (size_t i = 0; i < reps.size(); ++i) {
    reps.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  std::vector<SiamesePair> pairs;
  for (uint32_t i = 0; i < 60; ++i) {
    for (uint32_t j = i + 1; j < 60; ++j) {
      pairs.push_back({i, j, static_cast<float>(rng.NextDouble())});
    }
  }
  Mlp net({3, 8, 8, 1}, 31);
  SiameseOptions opts;
  opts.epochs = 10;
  opts.batch_size = 128;
  SiameseStats stats = TrainSiamese(&net, reps, pairs, opts);
  ASSERT_GT(stats.batch_losses.size(), 10u);
  double head = 0, tail = 0;
  size_t n = stats.batch_losses.size();
  for (size_t i = 0; i < 5; ++i) head += stats.batch_losses[i];
  for (size_t i = n - 5; i < n; ++i) tail += stats.batch_losses[i];
  EXPECT_LT(tail, head);
}

TEST(SiameseTest, EmptyPairsIsNoOp) {
  Matrix reps(1, 2);
  Mlp net({2, 4, 1}, 1);
  auto before = net.ParamsFlat();
  SiameseStats stats = TrainSiamese(&net, reps, {}, SiameseOptions{});
  EXPECT_TRUE(stats.batch_losses.empty());
  EXPECT_EQ(net.ParamsFlat(), before);
}

// ---------------------------------------------------------------------------
// Bit-exact oracle. The per-sample scalar trainer the library replaced, kept
// here as the reference: every mini-batch stacks both members of every pair
// (2 * batch rows, duplicates included), each row runs forward alone, the
// backward pass walks the rows in order layer by layer, and Adam steps a
// flat gradient copy through one pointer per parameter. The library's
// batched trainer must reproduce its parameters and losses bit for bit.

class ReferenceMlp {
 public:
  ReferenceMlp(std::vector<size_t> sizes, const std::vector<float>& flat)
      : sizes_(std::move(sizes)) {
    size_t pos = 0;
    for (size_t l = 0; l + 1 < sizes_.size(); ++l) {
      Matrix w(sizes_[l + 1], sizes_[l]);
      for (size_t i = 0; i < w.size(); ++i) w.data()[i] = flat[pos++];
      weights_.push_back(std::move(w));
      biases_.emplace_back(flat.begin() + pos,
                           flat.begin() + pos + sizes_[l + 1]);
      pos += sizes_[l + 1];
      weight_grads_.emplace_back(sizes_[l + 1], sizes_[l]);
      bias_grads_.emplace_back(sizes_[l + 1], 0.0f);
    }
    EXPECT_EQ(pos, flat.size());
    activations_.resize(weights_.size());
  }

  static float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

  const Matrix& Forward(const Matrix& input) {
    const Matrix* prev = &input;
    for (size_t l = 0; l < weights_.size(); ++l) {
      const Matrix& w = weights_[l];
      Matrix& act = activations_[l];
      act = Matrix(input.rows(), w.rows());
      for (size_t i = 0; i < input.rows(); ++i) {
        const float* x = prev->Row(i);
        for (size_t o = 0; o < w.rows(); ++o) {
          float z = biases_[l][o];
          for (size_t k = 0; k < w.cols(); ++k) z += w.At(o, k) * x[k];
          act.At(i, o) = Sigmoid(z);
        }
      }
      prev = &act;
    }
    return activations_.back();
  }

  void ZeroGrad() {
    for (auto& g : weight_grads_) g.Fill(0.0f);
    for (auto& g : bias_grads_) std::fill(g.begin(), g.end(), 0.0f);
  }

  void Backward(const Matrix& input, const Matrix& grad_output) {
    const size_t batch = input.rows();
    Matrix delta = grad_output;
    for (size_t l = weights_.size(); l-- > 0;) {
      const Matrix& act = activations_[l];
      for (size_t i = 0; i < batch; ++i) {
        for (size_t o = 0; o < delta.cols(); ++o) {
          delta.At(i, o) *= act.At(i, o) * (1.0f - act.At(i, o));
        }
      }
      const Matrix& below = (l == 0) ? input : activations_[l - 1];
      for (size_t i = 0; i < batch; ++i) {
        for (size_t o = 0; o < delta.cols(); ++o) {
          float dv = delta.At(i, o);
          if (dv == 0.0f) continue;
          for (size_t k = 0; k < below.cols(); ++k) {
            weight_grads_[l].At(o, k) += dv * below.At(i, k);
          }
          bias_grads_[l][o] += dv;
        }
      }
      if (l == 0) break;
      const Matrix& w = weights_[l];
      Matrix next(batch, w.cols());
      for (size_t i = 0; i < batch; ++i) {
        for (size_t o = 0; o < w.rows(); ++o) {
          float dv = delta.At(i, o);
          if (dv == 0.0f) continue;
          for (size_t k = 0; k < w.cols(); ++k) {
            next.At(i, k) += dv * w.At(o, k);
          }
        }
      }
      delta = std::move(next);
    }
  }

  std::vector<float*> MutableParams() {
    std::vector<float*> out;
    for (size_t l = 0; l < weights_.size(); ++l) {
      for (size_t i = 0; i < weights_[l].size(); ++i) {
        out.push_back(weights_[l].data() + i);
      }
      for (auto& b : biases_[l]) out.push_back(&b);
    }
    return out;
  }

  std::vector<float> Flat(bool grads) const {
    std::vector<float> out;
    for (size_t l = 0; l < weights_.size(); ++l) {
      const Matrix& w = grads ? weight_grads_[l] : weights_[l];
      const auto& b = grads ? bias_grads_[l] : biases_[l];
      out.insert(out.end(), w.data(), w.data() + w.size());
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }

 private:
  std::vector<size_t> sizes_;
  std::vector<Matrix> weights_;
  std::vector<std::vector<float>> biases_;
  std::vector<Matrix> weight_grads_;
  std::vector<std::vector<float>> bias_grads_;
  std::vector<Matrix> activations_;
};

struct ReferenceAdam {
  explicit ReferenceAdam(size_t n, AdamOptions o)
      : options(o), m(n, 0.0f), v(n, 0.0f) {}
  void Step(const std::vector<float*>& params,
            const std::vector<float>& grads) {
    ++t;
    const float b1 = options.beta1;
    const float b2 = options.beta2;
    const float correction1 = 1.0f - std::pow(b1, static_cast<float>(t));
    const float correction2 = 1.0f - std::pow(b2, static_cast<float>(t));
    for (size_t i = 0; i < m.size(); ++i) {
      float g = grads[i];
      m[i] = b1 * m[i] + (1.0f - b1) * g;
      v[i] = b2 * v[i] + (1.0f - b2) * g * g;
      float m_hat = m[i] / correction1;
      float v_hat = v[i] / correction2;
      *params[i] -=
          options.learning_rate * m_hat / (std::sqrt(v_hat) + options.epsilon);
    }
  }
  AdamOptions options;
  std::vector<float> m, v;
  size_t t = 0;
};

std::vector<float> ReferenceTrain(ReferenceMlp* net, const Matrix& reps,
                                  const std::vector<SiamesePair>& pairs,
                                  const SiameseOptions& options) {
  std::vector<float> losses;
  Rng rng(options.seed);
  std::vector<float*> params = net->MutableParams();
  ReferenceAdam adam(params.size(), options.adam);
  const size_t dim = reps.cols();
  std::vector<uint32_t> order(pairs.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options.batch_size) {
      size_t batch = std::min(options.batch_size, order.size() - start);
      Matrix input(2 * batch, dim);
      for (size_t i = 0; i < batch; ++i) {
        const SiamesePair& p = pairs[order[start + i]];
        std::copy(reps.Row(p.a), reps.Row(p.a) + dim, input.Row(i));
        std::copy(reps.Row(p.b), reps.Row(p.b) + dim, input.Row(batch + i));
      }
      const Matrix& out = net->Forward(input);
      Matrix grad(2 * batch, 1);
      float batch_loss = 0.0f;
      const float inv_batch = 1.0f / static_cast<float>(batch);
      for (size_t i = 0; i < batch; ++i) {
        const SiamesePair& p = pairs[order[start + i]];
        float ox = out.At(i, 0);
        float oy = out.At(batch + i, 0);
        batch_loss += SurrogateLoss(ox, oy, p.dissimilarity);
        bool same_side = (ox >= 0.5f) == (oy >= 0.5f);
        if (!same_side || p.dissimilarity == 0.0f) continue;
        float sign = (ox > oy) ? 1.0f : (ox < oy ? -1.0f : 0.0f);
        grad.At(i, 0) = -sign * p.dissimilarity * inv_batch;
        grad.At(batch + i, 0) = sign * p.dissimilarity * inv_batch;
      }
      net->ZeroGrad();
      net->Backward(input, grad);
      adam.Step(params, net->Flat(/*grads=*/true));
      losses.push_back(batch_loss * inv_batch);
    }
  }
  return losses;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->NextGaussian());
  }
  return m;
}

const std::vector<std::vector<size_t>> kOracleShapes = {
    {32, 8, 8, 1}, {5, 3, 1}, {3, 4, 2}};
const std::vector<size_t> kOracleBatches = {1, 7, 8, 255, 256, 257};

TEST(MlpOracleTest, ForwardAndBackwardBitEqualReference) {
  Rng rng(43);
  for (const auto& shape : kOracleShapes) {
    for (size_t n : kOracleBatches) {
      SCOPED_TRACE(::testing::Message()
                   << "shape " << shape.size() << " in " << shape[0]
                   << " out " << shape.back() << " n " << n);
      // Random weights and biases (a fresh model's biases are all zero).
      Mlp net(shape, 47 + n);
      std::vector<float> params(net.NumParams());
      for (float& p : params) p = static_cast<float>(rng.NextGaussian());
      net.SetParamsFlat(params);
      const size_t out_dim = shape.back();
      // n distinct rows forward once; 2n gradient rows name them with
      // repeats, some rows all zero and some with single zero entries.
      Matrix source = RandomMatrix(n + 3, shape[0], &rng);
      std::vector<uint32_t> rows(n);
      for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i + 3);
      std::vector<uint32_t> samples(2 * n);
      for (auto& s : samples) s = static_cast<uint32_t>(rng.Uniform(n));
      Matrix grad = RandomMatrix(2 * n, out_dim, &rng);
      for (size_t t = 0; t < 2 * n; ++t) {
        if (t % 3 == 0) {
          for (size_t o = 0; o < out_dim; ++o) grad.At(t, o) = 0.0f;
        } else if (t % 5 == 0) {
          grad.At(t, 0) = -0.0f;
        }
      }
      net.Forward(source, rows.data(), n);

      ReferenceMlp ref(shape, net.ParamsFlat());
      Matrix stacked(2 * n, shape[0]);
      for (size_t t = 0; t < 2 * n; ++t) {
        std::copy(source.Row(rows[samples[t]]),
                  source.Row(rows[samples[t]]) + shape[0], stacked.Row(t));
      }
      const Matrix& ref_out = ref.Forward(stacked);
      bool outputs_equal = true;
      for (size_t t = 0; t < 2 * n; ++t) {
        for (size_t o = 0; o < out_dim; ++o) {
          const float got = net.Output(samples[t], o);
          const float want = ref_out.At(t, o);
          outputs_equal &= std::memcmp(&got, &want, sizeof(float)) == 0;
        }
      }
      EXPECT_TRUE(outputs_equal);
      bool one_equal = true;
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> one = net.ForwardOne(source.Row(rows[i]));
        std::vector<float> batched(out_dim);
        for (size_t o = 0; o < out_dim; ++o) batched[o] = net.Output(i, o);
        one_equal &= BitEqual(one, batched);
      }
      EXPECT_TRUE(one_equal);

      net.ZeroGrad();
      net.Backward(samples.data(), grad.data(), 2 * n);
      ref.ZeroGrad();
      ref.Backward(stacked, grad);
      EXPECT_TRUE(BitEqual(net.GradsFlat(), ref.Flat(/*grads=*/true)));
    }
  }
}

// Representations with exact duplicates (rows 0 and 1 are equal, so their
// outputs tie exactly) and pair lists that repeat members heavily, include
// self pairs and zero-dissimilarity pairs.
void ExpectTrainingBitEqual(const std::vector<size_t>& shape,
                            const Matrix& reps,
                            const std::vector<SiamesePair>& pairs,
                            size_t batch_size) {
  SCOPED_TRACE(::testing::Message() << "in " << shape[0] << " pairs "
                                    << pairs.size() << " batch "
                                    << batch_size);
  Mlp net(shape, 53 + batch_size);
  ReferenceMlp ref(shape, net.ParamsFlat());
  SiameseOptions opts;
  opts.epochs = 2;
  opts.batch_size = batch_size;
  opts.seed = 59;
  SiameseStats stats = TrainSiamese(&net, reps, pairs, opts);
  std::vector<float> ref_losses = ReferenceTrain(&ref, reps, pairs, opts);
  EXPECT_TRUE(BitEqual(stats.batch_losses, ref_losses));
  EXPECT_TRUE(BitEqual(net.ParamsFlat(), ref.Flat(/*grads=*/false)));
}

TEST(SiameseOracleTest, TrainingBitEqualReference) {
  Rng rng(61);
  for (const auto& shape : kOracleShapes) {
    if (shape.back() != 1) continue;  // the Siamese loss needs one output
    Matrix reps = RandomMatrix(60, shape[0], &rng);
    std::copy(reps.Row(0), reps.Row(0) + shape[0], reps.Row(1));
    std::vector<SiamesePair> many;
    for (size_t i = 0; i < 600; ++i) {
      uint32_t a = static_cast<uint32_t>(rng.Uniform(60));
      uint32_t b = static_cast<uint32_t>(rng.Uniform(60));
      float dissim = i % 7 == 0 ? 0.0f : static_cast<float>(rng.NextDouble());
      many.push_back({a, b, dissim});
    }
    many.push_back({0, 1, 0.9f});  // identical rows: an exact tie
    many.push_back({5, 5, 0.7f});  // self pair
    std::vector<SiamesePair> four;
    for (size_t i = 0; i < 300; ++i) {
      uint32_t a = static_cast<uint32_t>(rng.Uniform(4));
      uint32_t b = static_cast<uint32_t>(rng.Uniform(4));
      four.push_back({a, b, a == b ? 0.0f : 0.25f * static_cast<float>(a + b)});
    }
    for (size_t batch : kOracleBatches) {
      ExpectTrainingBitEqual(shape, reps, many, batch);
      ExpectTrainingBitEqual(shape, reps, four, batch);
    }
  }
}

}  // namespace
}  // namespace ml
}  // namespace les3
