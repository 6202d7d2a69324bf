#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace replaybench {

using fsd::linalg::ActivationMap;
using fsd::linalg::CsrMatrix;

RefActivations ReferenceForward(const std::vector<CsrMatrix>& layers,
                                double bias, double relu_cap, int32_t batch,
                                const ActivationMap& input) {
  const int32_t rows = layers.empty() ? 0 : layers.front().cols();
  RefActivations x;
  x.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (int32_t r = 0; r < rows; ++r) {
    auto it = input.find(r);
    if (it != input.end()) {
      x.idx.insert(x.idx.end(), it->second.idx.begin(), it->second.idx.end());
      x.val.insert(x.val.end(), it->second.val.begin(), it->second.val.end());
    }
    x.row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(x.idx.size());
  }

  std::vector<double> acc(static_cast<size_t>(batch), 0.0);
  std::vector<uint8_t> hit(static_cast<size_t>(batch), 0);
  for (const CsrMatrix& w : layers) {
    RefActivations next;
    next.row_ptr.assign(static_cast<size_t>(w.rows()) + 1, 0);
    const auto& row_ptr = w.row_ptr();
    const auto& col_idx = w.col_idx();
    const auto& values = w.values();
    for (int32_t i = 0; i < w.rows(); ++i) {
      for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const double weight = values[p];
        const size_t c = static_cast<size_t>(col_idx[p]);
        for (int64_t j = x.row_ptr[c]; j < x.row_ptr[c + 1]; ++j) {
          const int32_t s = x.idx[j];
          acc[s] += weight * x.val[j];
          hit[s] = 1;
        }
      }
      // A position no input reached stays inactive: ReLU(bias) is 0 for the
      // generator's non-positive biases, as the kernel assumes.
      for (int32_t s = 0; s < batch; ++s) {
        if (!hit[s]) continue;
        double v = acc[s] + bias;
        acc[s] = 0.0;
        hit[s] = 0;
        if (relu_cap > 0.0) {
          if (v <= 0.0) continue;
          v = std::min(v, relu_cap);
        } else if (v == 0.0) {
          continue;
        }
        next.idx.push_back(s);
        next.val.push_back(v);
      }
      next.row_ptr[static_cast<size_t>(i) + 1] =
          static_cast<int64_t>(next.idx.size());
    }
    x = std::move(next);
  }
  return x;
}

std::string CompareOutput(const RefActivations& ref, const ActivationMap& out,
                          int32_t batch, Tolerance tol, double* max_abs_err) {
  const int32_t rows = static_cast<int32_t>(ref.row_ptr.size()) - 1;
  std::vector<double> dense(static_cast<size_t>(batch), 0.0);
  double worst = 0.0;
  std::string mismatch;
  auto check = [&](int32_t row, int32_t s, double expect) {
    const double err = std::abs(dense[s] - expect);
    worst = std::max(worst, err);
    if (err > tol.abs + tol.rel * std::abs(expect) && mismatch.empty()) {
      mismatch = fsd::StrFormat("row %d sample %d: got %.9g, reference %.9g",
                                row, s, dense[s], expect);
    }
  };

  auto it = out.begin();
  for (int32_t row = 0; row < rows; ++row) {
    const fsd::linalg::SparseVector* o = nullptr;
    if (it != out.end() && it->first == row) {
      o = &it->second;
      ++it;
    }
    if (o != nullptr) {
      if (o->dim != batch || o->idx.size() != o->val.size()) {
        return fsd::StrFormat("row %d has width %d, expected %d", row, o->dim,
                              batch);
      }
      for (size_t j = 0; j < o->idx.size(); ++j) {
        const int32_t s = o->idx[j];
        if (s < 0 || s >= batch) {
          return fsd::StrFormat("row %d has sample %d out of range", row, s);
        }
        dense[s] = o->val[j];
      }
    }
    for (int64_t j = ref.row_ptr[row]; j < ref.row_ptr[row + 1]; ++j) {
      check(row, ref.idx[j], ref.val[j]);
      dense[ref.idx[j]] = 0.0;
    }
    if (o != nullptr) {
      for (int32_t s : o->idx) {
        if (dense[s] != 0.0) check(row, s, 0.0);
        dense[s] = 0.0;
      }
    }
  }
  if (it != out.end()) {
    return fsd::StrFormat("output row %d outside the model's %d rows",
                          it->first, rows);
  }
  if (max_abs_err != nullptr) *max_abs_err = worst;
  return mismatch;
}

double CommReconciliation::RelErr() const {
  return std::abs(predicted + kv_node - ledger) / std::max(1e-12, ledger);
}

CommReconciliation Reconcile(
    const std::vector<fsd::core::QueryOutcome>& queries,
    const fsd::core::BillingDelta& billing, double kv_node_hourly) {
  CommReconciliation rec;
  for (const fsd::core::QueryOutcome& q : queries) {
    rec.predicted += q.report.predicted.communication;
  }
  rec.kv_node =
      billing.quantity(fsd::cloud::BillingDimension::kKvNodeSecond) *
      kv_node_hourly / 3600.0;
  rec.ledger = billing.comm_cost;
  return rec;
}

std::string CompareReplays(const fsd::core::ServingReport& a,
                           const std::vector<fsd::cloud::BillingLine>& ledger_a,
                           const fsd::core::ServingReport& b,
                           const std::vector<fsd::cloud::BillingLine>& ledger_b) {
  if (a.queries.size() != b.queries.size()) {
    return fsd::StrFormat("%zu queries vs %zu", a.queries.size(),
                          b.queries.size());
  }
  for (size_t q = 0; q < a.queries.size(); ++q) {
    if (a.queries[q].report.outputs != b.queries[q].report.outputs) {
      return fsd::StrFormat("query %zu outputs differ", q);
    }
  }
  if (a.fleet.Summary() != b.fleet.Summary()) {
    return "FleetStats summaries differ";
  }
  if (ledger_a.size() != ledger_b.size()) return "ledger sizes differ";
  for (size_t i = 0; i < ledger_a.size(); ++i) {
    const auto& x = ledger_a[i];
    const auto& y = ledger_b[i];
    if (x.events != y.events ||
        std::memcmp(&x.quantity, &y.quantity, sizeof(double)) != 0 ||
        std::memcmp(&x.cost, &y.cost, sizeof(double)) != 0) {
      return fsd::StrFormat(
          "ledger line %s differs",
          std::string(fsd::cloud::BillingDimensionName(
                          static_cast<fsd::cloud::BillingDimension>(i)))
              .c_str());
    }
  }
  return "";
}

}  // namespace replaybench
