#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace les3 {
namespace ml {
namespace {

// Samples the forward pass computes side by side.
constexpr size_t kLanes = 8;

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// y[k] += a * x[k] for k < n. Every element is its own accumulator, so
/// the fixed-width chunks vectorise at the baseline ISA without changing
/// any result.
inline void AddScaled(float a, const float* __restrict x,
                      float* __restrict y, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) y[k + j] += a * x[k + j];
  }
  for (; k < n; ++k) y[k] += a * x[k];
}

/// One layer over one block of kLanes samples, lane-major in and out
/// (in[k * kLanes + j] is input k of sample j). Lane j computes exactly the
/// scalar z = b[o]; z += w[o][k] * x[k] in order k = 0, 1, ...
void LayerBlock(const Matrix& w, const std::vector<float>& b,
                const float* in, float* out) {
  for (size_t o = 0; o < w.rows(); ++o) {
    const float* wr = w.Row(o);
    float z[kLanes];
    for (size_t j = 0; j < kLanes; ++j) z[j] = b[o];
    for (size_t k = 0; k < w.cols(); ++k) {
      const float wk = wr[k];
      const float* xk = in + k * kLanes;
      for (size_t j = 0; j < kLanes; ++j) z[j] += wk * xk[j];
    }
    // Sigmoid with one scalar libm exp per lane (a vector exp would not be
    // bit-exact); the add and divide are exact in any width.
    float e[kLanes];
    for (size_t j = 0; j < kLanes; ++j) e[j] = std::exp(-z[j]);
    float* y = out + o * kLanes;
    for (size_t j = 0; j < kLanes; ++j) y[j] = 1.0f / (1.0f + e[j]);
  }
}

}  // namespace

Mlp::Mlp(std::vector<size_t> layer_sizes, uint64_t seed)
    : layer_sizes_(std::move(layer_sizes)) {
  LES3_CHECK_GE(layer_sizes_.size(), 2u);
  Rng rng(seed);
  size_t num_layers = layer_sizes_.size() - 1;
  weights_.reserve(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    Matrix w(layer_sizes_[l + 1], layer_sizes_[l]);
    w.InitXavier(&rng);
    weights_.push_back(std::move(w));
    biases_.emplace_back(layer_sizes_[l + 1], 0.0f);
    weight_grads_.emplace_back(layer_sizes_[l + 1], layer_sizes_[l]);
    bias_grads_.emplace_back(layer_sizes_[l + 1], 0.0f);
  }
  acts_.resize(num_layers + 1);
  const size_t max_width =
      *std::max_element(layer_sizes_.begin(), layer_sizes_.end());
  lanes_in_.assign(max_width * kLanes, 0.0f);
  lanes_out_.assign(max_width * kLanes, 0.0f);
  delta_.assign(max_width, 0.0f);
  next_delta_.assign(max_width, 0.0f);
}

void Mlp::Forward(const Matrix& source, const uint32_t* rows, size_t n) {
  LES3_CHECK_EQ(source.cols(), input_dim());
  const size_t dim = input_dim();
  for (size_t l = 0; l < acts_.size(); ++l) {
    acts_[l].resize(n * layer_sizes_[l]);
  }
  for (size_t base = 0; base < n; base += kLanes) {
    const size_t m = std::min(kLanes, n - base);
    // Gather the block: row-major into acts_[0] for Backward, lane-major
    // into lanes_in_ with unused tail lanes zeroed.
    if (m < kLanes) std::fill(lanes_in_.begin(), lanes_in_.end(), 0.0f);
    for (size_t j = 0; j < m; ++j) {
      const float* x =
          source.Row(rows != nullptr ? rows[base + j] : base + j);
      std::copy(x, x + dim, acts_[0].data() + (base + j) * dim);
      for (size_t k = 0; k < dim; ++k) lanes_in_[k * kLanes + j] = x[k];
    }
    for (size_t l = 0; l < weights_.size(); ++l) {
      LayerBlock(weights_[l], biases_[l], lanes_in_.data(),
                 lanes_out_.data());
      const size_t width = layer_sizes_[l + 1];
      float* dst = acts_[l + 1].data() + base * width;
      for (size_t j = 0; j < m; ++j) {
        for (size_t o = 0; o < width; ++o) {
          dst[j * width + o] = lanes_out_[o * kLanes + j];
        }
      }
      lanes_in_.swap(lanes_out_);
    }
  }
}

std::vector<float> Mlp::ForwardOne(const float* x) const {
  std::vector<float> cur(x, x + layer_sizes_.front());
  std::vector<float> next;
  for (size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& w = weights_[l];
    const auto& b = biases_[l];
    next.assign(w.rows(), 0.0f);
    for (size_t o = 0; o < w.rows(); ++o) {
      const float* wr = w.Row(o);
      float z = b[o];
      for (size_t k = 0; k < w.cols(); ++k) z += wr[k] * cur[k];
      next[o] = Sigmoid(z);
    }
    cur.swap(next);
  }
  return cur;
}

void Mlp::ZeroGrad() {
  for (auto& g : weight_grads_) g.Fill(0.0f);
  for (auto& g : bias_grads_) std::fill(g.begin(), g.end(), 0.0f);
}

void Mlp::Backward(const uint32_t* samples, const float* grad_output,
                   size_t n) {
  const size_t out_dim = output_dim();
  for (size_t t = 0; t < n; ++t) {
    const float* g = grad_output + t * out_dim;
    if (std::all_of(g, g + out_dim, [](float v) { return v == 0.0f; })) {
      continue;
    }
    const size_t s = samples != nullptr ? samples[t] : t;
    float* delta = delta_.data();
    float* next = next_delta_.data();
    std::copy(g, g + out_dim, delta);
    for (size_t l = weights_.size(); l-- > 0;) {
      const size_t fan_in = layer_sizes_[l];
      const size_t fan_out = layer_sizes_[l + 1];
      // Through the sigmoid: delta *= a * (1 - a).
      const float* a = acts_[l + 1].data() + s * fan_out;
      for (size_t o = 0; o < fan_out; ++o) delta[o] *= a[o] * (1.0f - a[o]);
      const float* x = acts_[l].data() + s * fan_in;
      Matrix& wg = weight_grads_[l];
      float* bg = bias_grads_[l].data();
      for (size_t o = 0; o < fan_out; ++o) {
        const float dv = delta[o];
        if (dv == 0.0f) continue;
        AddScaled(dv, x, wg.Row(o), fan_in);
        bg[o] += dv;
      }
      if (l == 0) break;
      // Propagate: next = delta . W_l, each element summed over o in order.
      const Matrix& w = weights_[l];
      size_t k = 0;
      for (; k + kLanes <= fan_in; k += kLanes) {
        float acc[kLanes] = {};
        for (size_t o = 0; o < fan_out; ++o) {
          const float dv = delta[o];
          if (dv == 0.0f) continue;
          const float* wr = w.Row(o) + k;
          for (size_t j = 0; j < kLanes; ++j) acc[j] += dv * wr[j];
        }
        std::copy(acc, acc + kLanes, next + k);
      }
      for (; k < fan_in; ++k) {
        float acc = 0.0f;
        for (size_t o = 0; o < fan_out; ++o) {
          const float dv = delta[o];
          if (dv == 0.0f) continue;
          acc += dv * w.At(o, k);
        }
        next[k] = acc;
      }
      std::swap(delta, next);
    }
  }
}

std::vector<ParamSpan> Mlp::ParamSpans() {
  std::vector<ParamSpan> out;
  for (size_t l = 0; l < weights_.size(); ++l) {
    out.push_back({weights_[l].data(), weight_grads_[l].data(),
                   weights_[l].size()});
    out.push_back({biases_[l].data(), bias_grads_[l].data(),
                   biases_[l].size()});
  }
  return out;
}

std::vector<float> Mlp::GradsFlat() const {
  std::vector<float> out;
  out.reserve(NumParams());
  for (size_t l = 0; l < weight_grads_.size(); ++l) {
    const Matrix& g = weight_grads_[l];
    out.insert(out.end(), g.data(), g.data() + g.size());
    out.insert(out.end(), bias_grads_[l].begin(), bias_grads_[l].end());
  }
  return out;
}

size_t Mlp::NumParams() const {
  size_t total = 0;
  for (size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    total += layer_sizes_[l] * layer_sizes_[l + 1] + layer_sizes_[l + 1];
  }
  return total;
}

std::vector<float> Mlp::ParamsFlat() const {
  std::vector<float> out;
  out.reserve(NumParams());
  for (size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& w = weights_[l];
    out.insert(out.end(), w.data(), w.data() + w.size());
    out.insert(out.end(), biases_[l].begin(), biases_[l].end());
  }
  return out;
}

void Mlp::SetParamsFlat(const std::vector<float>& flat) {
  LES3_CHECK_EQ(flat.size(), NumParams());
  size_t pos = 0;
  for (size_t l = 0; l < weights_.size(); ++l) {
    Matrix& w = weights_[l];
    for (size_t i = 0; i < w.size(); ++i) w.data()[i] = flat[pos++];
    for (auto& b : biases_[l]) b = flat[pos++];
  }
}

}  // namespace ml
}  // namespace les3
