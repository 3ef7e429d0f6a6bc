#include "ml/adam.h"

#include <cmath>

#include "util/logging.h"

namespace les3 {
namespace ml {

Adam::Adam(size_t num_params, AdamOptions options)
    : options_(options), m_(num_params, 0.0f), v_(num_params, 0.0f) {}

void Adam::Step(const std::vector<ParamSpan>& spans) {
  size_t total = 0;
  for (const ParamSpan& span : spans) total += span.size;
  LES3_CHECK_EQ(total, m_.size());
  ++t_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float correction1 =
      1.0f - std::pow(b1, static_cast<float>(t_));
  const float correction2 =
      1.0f - std::pow(b2, static_cast<float>(t_));
  size_t i = 0;
  for (const ParamSpan& span : spans) {
    for (size_t j = 0; j < span.size; ++j, ++i) {
      float g = span.grads[j];
      m_[i] = b1 * m_[i] + (1.0f - b1) * g;
      v_[i] = b2 * v_[i] + (1.0f - b2) * g * g;
      float m_hat = m_[i] / correction1;
      float v_hat = v_[i] / correction2;
      span.values[j] -= options_.learning_rate * m_hat /
                        (std::sqrt(v_hat) + options_.epsilon);
    }
  }
}

}  // namespace ml
}  // namespace les3
