// Adam optimizer (Kingma & Ba), the optimizer the paper uses for L2P.

#ifndef LES3_ML_ADAM_H_
#define LES3_ML_ADAM_H_

#include <cstddef>
#include <vector>

namespace les3 {
namespace ml {

/// Hyper-parameters with the standard defaults.
struct AdamOptions {
  float learning_rate = 1e-2f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
};

/// `size` contiguous parameters and their gradients.
struct ParamSpan {
  float* values;
  const float* grads;
  size_t size;
};

/// \brief Adam with bias-corrected first/second moment estimates.
class Adam {
 public:
  Adam(size_t num_params, AdamOptions options = {});

  /// Applies one update in place: values[i] -= lr * m_hat / (sqrt(v_hat) +
  /// eps). The spans, concatenated in order, cover all `num_params`
  /// parameters (moment i belongs to the i-th value of that concatenation).
  void Step(const std::vector<ParamSpan>& spans);

  size_t step_count() const { return t_; }

 private:
  AdamOptions options_;
  std::vector<float> m_;
  std::vector<float> v_;
  size_t t_ = 0;
};

}  // namespace ml
}  // namespace les3

#endif  // LES3_ML_ADAM_H_
