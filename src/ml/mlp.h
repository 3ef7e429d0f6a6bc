// Multi-layer perceptron with sigmoid activations and manual backprop.
//
// The paper's L2P network (Section 7.1) is an MLP with two hidden layers of
// eight neurons, sigmoid activations, and a single sigmoid output neuron.
// This class implements exactly that family (arbitrary layer widths), with
// batch forward/backward passes and per-layer parameter/gradient spans that
// the Adam optimizer (ml/adam.h) steps in place.
//
// Bit-exactness contract: Forward, Backward and so the trained weights are
// bit-identical to a per-sample scalar implementation (ForwardOne, and a
// backward pass that walks the gradient rows one by one) built against the
// same libm expf. Forward computes eight samples side by side, but each
// sample keeps the scalar summation order z = b[o]; z += w[o][k] * x[k]
// for k = 0, 1, ..., so lanes never reassociate. std::exp stays one scalar
// call per lane: a vectorised exp is an approximation that differs from
// libm in the last bits. Backward vectorises its updates elementwise over
// the fan-in (each weight's accumulator is its own element) and keeps the
// order over gradient rows. The ml/ sources build with -ffp-contract=off so
// no multiply-add is fused into an FMA behind this contract's back.

#ifndef LES3_ML_MLP_H_
#define LES3_ML_MLP_H_

#include <cstdint>
#include <vector>

#include "ml/adam.h"
#include "ml/matrix.h"
#include "util/random.h"

namespace les3 {
namespace ml {

/// \brief Sigmoid MLP with batch forward/backward.
///
/// Usage per mini-batch:
///   net.Forward(source, rows, n);            // caches activations
///   ... read net.Output(sample) ...
///   net.ZeroGrad();
///   net.Backward(samples, dL_dOut, m);       // accumulates gradients
///   adam.Step(param_spans);                  // spans from ParamSpans()
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., output}; at least {in, out}.
  Mlp(std::vector<size_t> layer_sizes, uint64_t seed);

  /// Forward pass over `n` samples: sample i is row rows[i] of `source`,
  /// or row i when `rows` is null. Caches every layer's activations for
  /// Backward; Output() reads them until the next Forward.
  void Forward(const Matrix& source, const uint32_t* rows, size_t n);

  /// Output neuron `o` of cached sample `sample`.
  float Output(size_t sample, size_t o = 0) const {
    return acts_.back()[sample * output_dim() + o];
  }

  /// Forward pass for a single example, one neuron at a time (inference;
  /// bit-identical to the same sample's Forward output).
  std::vector<float> ForwardOne(const float* x) const;

  /// Zeroes accumulated gradients.
  void ZeroGrad();

  /// Backpropagates `n` gradient rows through the preceding Forward and
  /// accumulates into the gradients, in row order t = 0, 1, ...: row t is
  /// dL/dOutput (output_dim floats at grad_output + t * output_dim) of the
  /// cached sample samples[t], or of sample t when `samples` is null. Many
  /// rows may name one sample. A row whose gradient is all zero is
  /// skipped: with finite activations every delta it would propagate is
  /// zero, so it adds nothing.
  void Backward(const uint32_t* samples, const float* grad_output, size_t n);

  /// Each layer's weights then biases with their gradients, in layer
  /// order (the ParamsFlat() layout). The pointers stay valid for the
  /// model's lifetime.
  std::vector<ParamSpan> ParamSpans();

  /// Flat copies of all gradients / parameters (ParamsFlat() layout).
  std::vector<float> GradsFlat() const;
  std::vector<float> ParamsFlat() const;
  void SetParamsFlat(const std::vector<float>& flat);
  size_t NumParams() const;

  size_t input_dim() const { return layer_sizes_.front(); }
  size_t output_dim() const { return layer_sizes_.back(); }

 private:
  std::vector<size_t> layer_sizes_;
  std::vector<Matrix> weights_;        // [l]: (out_l x in_l)
  std::vector<std::vector<float>> biases_;  // [l]: out_l
  std::vector<Matrix> weight_grads_;
  std::vector<std::vector<float>> bias_grads_;
  // Forward cache, row-major per sample: acts_[0] is the gathered input,
  // acts_[l + 1] the post-sigmoid output of layer l.
  std::vector<std::vector<float>> acts_;
  // Scratch: one block of eight samples, lane-major ([unit][lane]), and
  // one row's deltas.
  std::vector<float> lanes_in_, lanes_out_;
  std::vector<float> delta_, next_delta_;
};

}  // namespace ml
}  // namespace les3

#endif  // LES3_ML_MLP_H_
