#pragma once

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace autoindex {

namespace persist {
class Reader;
class Writer;
}  // namespace persist

// The paper's deep index-estimation model (Sec. V-B): a one-layer
// regression `cost = Sigmoid(W·C + b)` whose weights are learned from
// historical (cost-feature, measured-cost) pairs. Targets are min-max
// scaled into (0,1) so the sigmoid output covers the cost range; Predict
// de-scales back to cost units.
struct TrainConfig {
  size_t epochs = 300;
  double learning_rate = 0.05;
};

class SigmoidRegression {
 public:
  SigmoidRegression() = default;

  // Fits on a dataset of feature rows X (all the same width) and targets y.
  // Returns the final training MSE in scaled space. Empty input is a no-op
  // returning 0.
  double Train(const std::vector<std::vector<double>>& x,
               const std::vector<double>& y,
               const TrainConfig& config = TrainConfig());

  // Predicts a cost for one feature row. Before any training this returns
  // the plain weighted sum with classical static weights (all 1.0), so an
  // untrained model degrades to the traditional additive cost model.
  double Predict(const std::vector<double>& features) const;

  bool trained() const { return trained_; }
  const std::vector<double>& weights() const { return weights_; }

  // k-fold cross-validated RMSE (cost units). Mirrors the paper's 9-fold
  // validation protocol. Returns 0 for datasets smaller than k.
  static double CrossValidate(const std::vector<std::vector<double>>& x,
                              const std::vector<double>& y, size_t folds = 9,
                              const TrainConfig& config = TrainConfig());

  // Snapshot serialization (src/persist/): weights, bias, and the scaler
  // parameters round-trip bit-exactly, so a reloaded model predicts
  // identical costs.
  void Save(persist::Writer* w) const;
  static SigmoidRegression Load(persist::Reader* r);

 private:
  static double Sigmoid(double z);
  // Feature standardization parameters learned at Train time.
  void FitScalers(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y);
  std::vector<double> ScaleFeatures(const std::vector<double>& f) const;

  std::vector<double> weights_;
  double bias_ = 0.0;
  bool trained_ = false;

  std::vector<double> feat_mean_;
  std::vector<double> feat_std_;
  double y_min_ = 0.0;
  double y_max_ = 1.0;
};

}  // namespace autoindex
