// Model interface for the FL substrate.
//
// Models expose a flat parameter vector so that federated aggregation,
// optimizers, and serialization are model-agnostic. Implementations:
// multinomial logistic regression, a one-hidden-layer MLP, and linear
// regression (closed-form checkable in tests).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace sfl::fl {

/// Loss/accuracy pair from evaluating a model on a dataset. For regression
/// datasets `accuracy` is 0 and `has_accuracy` is false.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  bool has_accuracy = false;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Deep copy, preserving current parameters.
  [[nodiscard]] virtual std::unique_ptr<Model> clone() const = 0;

  [[nodiscard]] virtual std::size_t parameter_count() const noexcept = 0;

  /// Flat parameter vector (layout is implementation-defined but stable).
  [[nodiscard]] virtual std::vector<double> parameters() const = 0;

  /// Overwrites all parameters; `params.size()` must equal parameter_count().
  virtual void set_parameters(std::span<const double> params) = 0;

  /// Mean loss over `batch` (indices into `dataset`) and its gradient with
  /// respect to the parameters. `grad_out.size()` must equal
  /// parameter_count(); it is overwritten. Returns the mean loss.
  virtual double loss_and_gradient(const data::Dataset& dataset,
                                   std::span<const std::size_t> batch,
                                   std::span<double> grad_out) const = 0;

  /// Mean loss over `batch` (forward pass only).
  [[nodiscard]] virtual double loss(const data::Dataset& dataset,
                                    std::span<const std::size_t> batch) const = 0;

  /// Predicted class for one feature vector (classification models only;
  /// throws std::logic_error otherwise).
  [[nodiscard]] virtual int predict_class(std::span<const double> features) const;

  /// Predicted value for one feature vector (regression models only;
  /// throws std::logic_error otherwise).
  [[nodiscard]] virtual double predict_value(std::span<const double> features) const;
};

/// Mean loss (and accuracy, when classification) over an entire dataset.
/// The accuracy costs one more forward pass per example; callers that need
/// only the loss call Model::loss with full_batch (built once and reused),
/// which costs half the forward passes.
[[nodiscard]] EvalResult evaluate(const Model& model, const data::Dataset& dataset);

/// Convenience: batch spanning the whole dataset, [0, n).
[[nodiscard]] std::vector<std::size_t> full_batch(const data::Dataset& dataset);

}  // namespace sfl::fl
