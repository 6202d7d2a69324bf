// Output and accounting checks of the replay benchmark.
//
// The reference forward pass here is deliberately independent of the
// program's kernel (linalg::LayerForward, which model::ReferenceInference
// also runs): a plain CSR loop with double accumulation, so a fault in the
// production kernel cannot cancel out of the comparison.
#ifndef REPLAYBENCH_CHECKS_H_
#define REPLAYBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "core/serving.h"
#include "linalg/csr.h"
#include "linalg/spmm.h"

namespace replaybench {

/// Activations of one layer in CSR form, in double precision: row r's
/// entries are idx/val[row_ptr[r], row_ptr[r + 1]), sample positions
/// strictly increasing.
struct RefActivations {
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> idx;
  std::vector<double> val;
};

/// z = min(max(W x + bias, 0), relu_cap) layer by layer, accumulated in
/// double. `relu_cap` <= 0 disables the activation (the kernel's contract).
RefActivations ReferenceForward(const std::vector<fsd::linalg::CsrMatrix>& layers,
                                double bias, double relu_cap, int32_t batch,
                                const fsd::linalg::ActivationMap& input);

struct Tolerance {
  double abs = 1e-3;
  double rel = 1e-4;
};

/// Compares a production output with the reference entry by entry (an
/// entry missing on either side reads as 0). Returns an empty string on a
/// match, otherwise a description of the first mismatch. `max_abs_err`
/// (optional) receives the largest absolute difference seen.
std::string CompareOutput(const RefActivations& ref,
                          const fsd::linalg::ActivationMap& out, int32_t batch,
                          Tolerance tol, double* max_abs_err = nullptr);

/// Communication dollars of one replay, from two sides: the cost model's
/// per-query predictions plus the ledger's KV node-second charge (which the
/// cost model leaves out by design), against the ledger's communication
/// charges.
struct CommReconciliation {
  double predicted = 0.0;
  double kv_node = 0.0;
  double ledger = 0.0;
  double RelErr() const;
};

/// Builds the reconciliation from a replay's per-query reports and ledger
/// delta. `kv_node_hourly` is the pricing the ledger used.
CommReconciliation Reconcile(const std::vector<fsd::core::QueryOutcome>& queries,
                             const fsd::core::BillingDelta& billing,
                             double kv_node_hourly);

inline constexpr double kMaxCommRelErr = 1e-3;

/// Byte identity of two replays of one trace: every query's outputs, the
/// FleetStats summary, and the ledger (events, quantity and cost of every
/// dimension, compared bitwise). Returns an empty string when identical,
/// otherwise the first difference.
std::string CompareReplays(const fsd::core::ServingReport& a,
                           const std::vector<fsd::cloud::BillingLine>& ledger_a,
                           const fsd::core::ServingReport& b,
                           const std::vector<fsd::cloud::BillingLine>& ledger_b);

}  // namespace replaybench

#endif  // REPLAYBENCH_CHECKS_H_
