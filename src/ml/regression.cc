#include "ml/regression.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "persist/serde.h"

namespace autoindex {
namespace {

// Mini-batch Adam with L2 weight decay, seeded for deterministic fits.
constexpr size_t kBatchSize = 16;
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;
constexpr double kL2 = 1e-5;
constexpr uint64_t kSeed = 42;

}  // namespace

double SigmoidRegression::Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

void SigmoidRegression::FitScalers(const std::vector<std::vector<double>>& x,
                                   const std::vector<double>& y) {
  const size_t dim = x[0].size();
  feat_mean_.assign(dim, 0.0);
  feat_std_.assign(dim, 0.0);
  for (const auto& row : x) {
    for (size_t j = 0; j < dim; ++j) feat_mean_[j] += row[j];
  }
  for (size_t j = 0; j < dim; ++j) feat_mean_[j] /= x.size();
  for (const auto& row : x) {
    for (size_t j = 0; j < dim; ++j) {
      const double d = row[j] - feat_mean_[j];
      feat_std_[j] += d * d;
    }
  }
  for (size_t j = 0; j < dim; ++j) {
    feat_std_[j] = std::sqrt(feat_std_[j] / x.size());
    if (feat_std_[j] < 1e-12) feat_std_[j] = 1.0;
  }
  y_min_ = *std::min_element(y.begin(), y.end());
  y_max_ = *std::max_element(y.begin(), y.end());
  if (y_max_ - y_min_ < 1e-12) y_max_ = y_min_ + 1.0;
}

std::vector<double> SigmoidRegression::ScaleFeatures(
    const std::vector<double>& f) const {
  std::vector<double> out(f.size());
  for (size_t j = 0; j < f.size(); ++j) {
    const double mean = j < feat_mean_.size() ? feat_mean_[j] : 0.0;
    const double sd = j < feat_std_.size() ? feat_std_[j] : 1.0;
    out[j] = (f[j] - mean) / sd;
  }
  return out;
}

double SigmoidRegression::Train(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& y,
                                const TrainConfig& config) {
  if (x.empty() || x.size() != y.size()) return 0.0;
  const size_t n = x.size();
  const size_t dim = x[0].size();
  FitScalers(x, y);

  std::vector<std::vector<double>> xs(n);
  std::vector<double> ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = ScaleFeatures(x[i]);
    // Map targets into (0.02, 0.98) so the sigmoid never saturates fully.
    ys[i] = 0.02 + 0.96 * (y[i] - y_min_) / (y_max_ - y_min_);
  }

  Random rng(kSeed);
  weights_.assign(dim, 0.0);
  for (double& w : weights_) w = (rng.NextDouble() - 0.5) * 0.1;
  bias_ = 0.0;

  std::vector<double> m_w(dim, 0.0), v_w(dim, 0.0);
  double m_b = 0.0, v_b = 0.0;
  size_t step = 0;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  double last_mse = 0.0;
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher-Yates shuffle with the deterministic RNG.
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    double sq_err = 0.0;
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      std::vector<double> grad_w(dim, 0.0);
      double grad_b = 0.0;
      for (size_t k = start; k < end; ++k) {
        const size_t i = order[k];
        double z = bias_;
        for (size_t j = 0; j < dim; ++j) z += weights_[j] * xs[i][j];
        const double pred = Sigmoid(z);
        const double err = pred - ys[i];
        sq_err += err * err;
        const double d = err * pred * (1.0 - pred);
        for (size_t j = 0; j < dim; ++j) grad_w[j] += d * xs[i][j];
        grad_b += d;
      }
      const double inv = 1.0 / static_cast<double>(end - start);
      ++step;
      const double bc1 = 1.0 - std::pow(kBeta1, step);
      const double bc2 = 1.0 - std::pow(kBeta2, step);
      for (size_t j = 0; j < dim; ++j) {
        const double g = grad_w[j] * inv + kL2 * weights_[j];
        m_w[j] = kBeta1 * m_w[j] + (1 - kBeta1) * g;
        v_w[j] = kBeta2 * v_w[j] + (1 - kBeta2) * g * g;
        weights_[j] -= config.learning_rate * (m_w[j] / bc1) /
                       (std::sqrt(v_w[j] / bc2) + kEpsilon);
      }
      const double gb = grad_b * inv;
      m_b = kBeta1 * m_b + (1 - kBeta1) * gb;
      v_b = kBeta2 * v_b + (1 - kBeta2) * gb * gb;
      bias_ -= config.learning_rate * (m_b / bc1) /
               (std::sqrt(v_b / bc2) + kEpsilon);
    }
    last_mse = sq_err / n;
  }
  trained_ = true;
  return last_mse;
}

double SigmoidRegression::Predict(const std::vector<double>& features) const {
  if (!trained_) {
    // Static-weight fallback: classical additive cost model.
    double sum = 0.0;
    for (double f : features) sum += f;
    return sum;
  }
  const std::vector<double> xs = ScaleFeatures(features);
  double z = bias_;
  for (size_t j = 0; j < xs.size() && j < weights_.size(); ++j) {
    z += weights_[j] * xs[j];
  }
  const double scaled = Sigmoid(z);
  return y_min_ + (scaled - 0.02) / 0.96 * (y_max_ - y_min_);
}

double SigmoidRegression::CrossValidate(
    const std::vector<std::vector<double>>& x, const std::vector<double>& y,
    size_t folds, const TrainConfig& config) {
  if (x.size() < folds || folds < 2) return 0.0;
  const size_t n = x.size();
  double total_sq = 0.0;
  size_t total_count = 0;
  for (size_t f = 0; f < folds; ++f) {
    std::vector<std::vector<double>> train_x, test_x;
    std::vector<double> train_y, test_y;
    for (size_t i = 0; i < n; ++i) {
      if (i % folds == f) {
        test_x.push_back(x[i]);
        test_y.push_back(y[i]);
      } else {
        train_x.push_back(x[i]);
        train_y.push_back(y[i]);
      }
    }
    SigmoidRegression model;
    model.Train(train_x, train_y, config);
    for (size_t i = 0; i < test_x.size(); ++i) {
      const double err = model.Predict(test_x[i]) - test_y[i];
      total_sq += err * err;
      ++total_count;
    }
  }
  return total_count == 0 ? 0.0 : std::sqrt(total_sq / total_count);
}

void SigmoidRegression::Save(persist::Writer* w) const {
  w->PutBool(trained_);
  w->PutU32(static_cast<uint32_t>(weights_.size()));
  for (double v : weights_) w->PutDouble(v);
  w->PutDouble(bias_);
  w->PutU32(static_cast<uint32_t>(feat_mean_.size()));
  for (double v : feat_mean_) w->PutDouble(v);
  w->PutU32(static_cast<uint32_t>(feat_std_.size()));
  for (double v : feat_std_) w->PutDouble(v);
  w->PutDouble(y_min_);
  w->PutDouble(y_max_);
}

SigmoidRegression SigmoidRegression::Load(persist::Reader* r) {
  SigmoidRegression model;
  const auto get_doubles = [r](std::vector<double>* out) {
    const uint32_t n = r->GetU32();
    out->reserve(std::min<size_t>(n, r->remaining()));
    for (uint32_t i = 0; i < n && r->ok(); ++i) {
      out->push_back(r->GetDouble());
    }
  };
  model.trained_ = r->GetBool();
  get_doubles(&model.weights_);
  model.bias_ = r->GetDouble();
  get_doubles(&model.feat_mean_);
  get_doubles(&model.feat_std_);
  model.y_min_ = r->GetDouble();
  model.y_max_ = r->GetDouble();
  return model;
}

}  // namespace autoindex
