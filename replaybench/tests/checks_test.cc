// The replay benchmark's own checks, each shown passing on good data and
// failing on a perturbed copy. Run: ctest in the benchmark's build dir.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "linalg/spmm.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using fsd::linalg::ActivationMap;
using fsd::linalg::CsrMatrix;
using fsd::linalg::SparseVector;

SparseVector Row(std::vector<int32_t> idx, std::vector<float> val) {
  SparseVector v;
  v.dim = 2;
  v.idx = std::move(idx);
  v.val = std::move(val);
  return v;
}

// W = [[1, .5, 0], [0, 2, 0], [.25, 0, 3]], bias -0.5, ReLU capped at 2.
// Input over 2 samples: x0 = (1, 0), x1 = (1, 2), x2 = (0, 1).
//   layer 1: W x + b = (1.0, 0.5), (1.5, 3.5), (-0.25, 2.5)
//            -> (1.0, 0.5), (1.5, 2.0), (0, 2.0)
//   layer 2: W y + b = (1.25, 1.0), (2.5, 3.5), (-0.25, 5.625)
//            -> (1.25, 1.0), (2.0, 2.0), (0, 2.0)
constexpr double kBias = -0.5;
constexpr double kCap = 2.0;

CsrMatrix HandWeights() {
  return CsrMatrix::FromTriplets(
      3, 3,
      {{0, 0, 1.0f}, {0, 1, 0.5f}, {1, 1, 2.0f}, {2, 0, 0.25f}, {2, 2, 3.0f}});
}

ActivationMap HandInput() {
  ActivationMap x;
  x[0] = Row({0}, {1.0f});
  x[1] = Row({0, 1}, {1.0f, 2.0f});
  x[2] = Row({1}, {1.0f});
  return x;
}

ActivationMap HandOutput(int layers) {
  ActivationMap y;
  if (layers == 1) {
    y[0] = Row({0, 1}, {1.0f, 0.5f});
    y[1] = Row({0, 1}, {1.5f, 2.0f});
    y[2] = Row({1}, {2.0f});
  } else {
    y[0] = Row({0, 1}, {1.25f, 1.0f});
    y[1] = Row({0, 1}, {2.0f, 2.0f});
    y[2] = Row({1}, {2.0f});
  }
  return y;
}

void TestReferenceMatchesHandWork() {
  const CsrMatrix w = HandWeights();
  for (int layers : {1, 2}) {
    const std::vector<CsrMatrix> model(static_cast<size_t>(layers), w);
    const replaybench::RefActivations ref =
        replaybench::ReferenceForward(model, kBias, kCap, 2, HandInput());
    const ActivationMap expect = HandOutput(layers);
    EXPECT(ref.row_ptr.size() == 4);
    for (const auto& [row, vec] : expect) {
      const int64_t begin = ref.row_ptr[row];
      EXPECT(ref.row_ptr[row + 1] - begin ==
             static_cast<int64_t>(vec.idx.size()));
      for (size_t j = 0; j < vec.idx.size(); ++j) {
        EXPECT(ref.idx[begin + j] == vec.idx[j]);
        EXPECT(ref.val[begin + j] == static_cast<double>(vec.val[j]));
      }
    }
    EXPECT(replaybench::CompareOutput(ref, expect, 2, {}).empty());
  }
}

void TestProductionKernelAgrees() {
  const CsrMatrix w = HandWeights();
  const ActivationMap x = HandInput();
  const ActivationMap y = fsd::linalg::LayerForwardAll(
      w,
      [&x](int32_t row) -> const SparseVector* {
        auto it = x.find(row);
        return it == x.end() ? nullptr : &it->second;
      },
      static_cast<float>(kBias), static_cast<float>(kCap), 2);
  const auto ref = replaybench::ReferenceForward({w}, kBias, kCap, 2, x);
  EXPECT(replaybench::CompareOutput(ref, y, 2, {}).empty());
}

void TestPerturbedOutputsRejected() {
  const auto ref =
      replaybench::ReferenceForward({HandWeights()}, kBias, kCap, 2, HandInput());
  const ActivationMap good = HandOutput(1);

  ActivationMap value = good;  // one value off by 0.01
  value[1].val[0] += 0.01f;
  EXPECT(!replaybench::CompareOutput(ref, value, 2, {}).empty());

  ActivationMap missing = good;  // an active entry dropped
  missing.erase(2);
  EXPECT(!replaybench::CompareOutput(ref, missing, 2, {}).empty());

  ActivationMap extra = good;  // an entry the reference does not have
  extra[2] = Row({0, 1}, {0.5f, 2.0f});
  EXPECT(!replaybench::CompareOutput(ref, extra, 2, {}).empty());

  ActivationMap swapped = good;  // samples exchanged (a mis-sliced batch)
  for (auto& [row, vec] : swapped) {
    for (int32_t& s : vec.idx) s = 1 - s;
    if (vec.idx.size() == 2) {
      std::swap(vec.idx[0], vec.idx[1]);
      std::swap(vec.val[0], vec.val[1]);
    }
  }
  EXPECT(!replaybench::CompareOutput(ref, swapped, 2, {}).empty());

  ActivationMap other_query = HandOutput(2);  // another query's output
  EXPECT(!replaybench::CompareOutput(ref, other_query, 2, {}).empty());

  ActivationMap wide = good;  // wrong batch width
  wide[0].dim = 3;
  EXPECT(!replaybench::CompareOutput(ref, wide, 2, {}).empty());

  ActivationMap stray = good;  // a row outside the model
  stray[7] = Row({0}, {1.0f});
  EXPECT(!replaybench::CompareOutput(ref, stray, 2, {}).empty());

  ActivationMap tiny = good;  // within tolerance: float rounding
  tiny[0].val[0] = std::nextafter(tiny[0].val[0], 2.0f);
  EXPECT(replaybench::CompareOutput(ref, tiny, 2, {}).empty());
}

void TestReconciliation() {
  std::vector<fsd::core::QueryOutcome> queries(2);
  queries[0].report.predicted.communication = 1.0e-4;
  queries[1].report.predicted.communication = 3.0e-4;
  const double hourly = 0.09;
  fsd::core::BillingDelta billing;
  billing.quantities[static_cast<int>(
      fsd::cloud::BillingDimension::kKvNodeSecond)] = 4.0;  // 1e-4 dollars
  billing.comm_cost = 5.0e-4;
  EXPECT(replaybench::Reconcile(queries, billing, hourly).RelErr() <
         replaybench::kMaxCommRelErr);

  fsd::core::BillingDelta off = billing;  // ledger 0.5% above predictions
  off.comm_cost *= 1.005;
  EXPECT(replaybench::Reconcile(queries, off, hourly).RelErr() >
         replaybench::kMaxCommRelErr);

  fsd::core::BillingDelta no_node = billing;  // node-seconds left out
  no_node.quantities[static_cast<int>(
      fsd::cloud::BillingDimension::kKvNodeSecond)] = 0.0;
  EXPECT(replaybench::Reconcile(queries, no_node, hourly).RelErr() >
         replaybench::kMaxCommRelErr);
}

void TestReplayIdentity() {
  fsd::core::ServingReport a;
  a.queries.resize(2);
  a.queries[0].report.outputs = {HandOutput(1)};
  a.queries[1].report.outputs = {HandOutput(2)};
  a.fleet.queries = 2;
  a.fleet.completed = 2;
  std::vector<fsd::cloud::BillingLine> ledger(4);
  ledger[1].events = 3;
  ledger[1].quantity = 12.5;
  ledger[1].cost = 1e-6;
  EXPECT(replaybench::CompareReplays(a, ledger, a, ledger).empty());

  fsd::core::ServingReport outputs = a;
  outputs.queries[1].report.outputs[0][1].val[0] = 1.9999999f;
  EXPECT(!replaybench::CompareReplays(a, ledger, outputs, ledger).empty());

  fsd::core::ServingReport order = a;  // outputs delivered to the wrong query
  std::swap(order.queries[0].report.outputs, order.queries[1].report.outputs);
  EXPECT(!replaybench::CompareReplays(a, ledger, order, ledger).empty());

  fsd::core::ServingReport fleet = a;
  fleet.fleet.cold_start_ratio = 0.5;
  EXPECT(!replaybench::CompareReplays(a, ledger, fleet, ledger).empty());

  std::vector<fsd::cloud::BillingLine> cost = ledger;  // one ulp of dollars
  cost[1].cost = std::nextafter(cost[1].cost, 1.0);
  EXPECT(!replaybench::CompareReplays(a, ledger, a, cost).empty());

  std::vector<fsd::cloud::BillingLine> events = ledger;
  events[1].events += 1;
  EXPECT(!replaybench::CompareReplays(a, ledger, a, events).empty());
}

}  // namespace

int main() {
  TestReferenceMatchesHandWork();
  TestProductionKernelAgrees();
  TestPerturbedOutputsRejected();
  TestReconciliation();
  TestReplayIdentity();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("replay_checks_test: all checks passed\n");
  return 0;
}
