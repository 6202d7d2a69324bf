// linalg interposer: the worker's sparse kernel (subset LayerForward) and
// its CountLayerMacs pricing pre-pass. CMakeLists.txt turns every __wrap_
// definition here into a --wrap flag.
#include "linalg/spmm.h"
#include "spans.h"

using replaybench::spans::Scope;

namespace {
const bool kLinked = replaybench::spans::MarkLayer("linalg");
}  // namespace

extern "C" {

fsd::linalg::ActivationMap
__real__ZN3fsd6linalg12LayerForwardERKNS0_9CsrMatrixERKSt6vectorIiSaIiEERKSt8functionIFPKNS0_12SparseVectorEiEEffiPNS0_17LayerForwardStatsE(
    const fsd::linalg::CsrMatrix& weights, const std::vector<int32_t>& rows,
    const fsd::linalg::RowProvider& provider, float bias, float relu_cap,
    int32_t batch, fsd::linalg::LayerForwardStats* stats);
fsd::linalg::ActivationMap
__wrap__ZN3fsd6linalg12LayerForwardERKNS0_9CsrMatrixERKSt6vectorIiSaIiEERKSt8functionIFPKNS0_12SparseVectorEiEEffiPNS0_17LayerForwardStatsE(
    const fsd::linalg::CsrMatrix& weights, const std::vector<int32_t>& rows,
    const fsd::linalg::RowProvider& provider, float bias, float relu_cap,
    int32_t batch, fsd::linalg::LayerForwardStats* stats) {
  Scope span(replaybench::spans::kLayerForward);
  fsd::linalg::LayerForwardStats local;
  fsd::linalg::LayerForwardStats* sink = stats != nullptr ? stats : &local;
  fsd::linalg::ActivationMap out =
      __real__ZN3fsd6linalg12LayerForwardERKNS0_9CsrMatrixERKSt6vectorIiSaIiEERKSt8functionIFPKNS0_12SparseVectorEiEEffiPNS0_17LayerForwardStatsE(
          weights, rows, provider, bias, relu_cap, batch, sink);
  span.AddWork(sink->macs);
  return out;
}

double
__real__ZN3fsd6linalg14CountLayerMacsERKNS0_9CsrMatrixERKSt6vectorIiSaIiEERKSt8functionIFPKNS0_12SparseVectorEiEE(
    const fsd::linalg::CsrMatrix& weights, const std::vector<int32_t>& rows,
    const fsd::linalg::RowProvider& provider);
double
__wrap__ZN3fsd6linalg14CountLayerMacsERKNS0_9CsrMatrixERKSt6vectorIiSaIiEERKSt8functionIFPKNS0_12SparseVectorEiEE(
    const fsd::linalg::CsrMatrix& weights, const std::vector<int32_t>& rows,
    const fsd::linalg::RowProvider& provider) {
  Scope span(replaybench::spans::kCountMacs);
  return __real__ZN3fsd6linalg14CountLayerMacsERKNS0_9CsrMatrixERKSt6vectorIiSaIiEERKSt8functionIFPKNS0_12SparseVectorEiEE(
      weights, rows, provider);
}

}  // extern "C"
