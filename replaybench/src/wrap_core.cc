// core share distributor and collectives interposer: call counts only.
// These entry points yield to the DES, so a wall span around them would
// contain other processes' work. CMakeLists.txt turns every __wrap_
// definition here into a --wrap flag.
#include "core/collectives.h"
#include "core/share_distributor.h"
#include "spans.h"

namespace {
const bool kLinked = replaybench::spans::MarkLayer("core");
}  // namespace

using fsd::core::CollectiveTopology;
using fsd::core::CommChannel;
using fsd::core::PhaseBlock;
using fsd::core::ShareDistributor;
using fsd::core::WorkerEnv;

extern "C" {

ShareDistributor::Source
__real__ZN3fsd4core16ShareDistributor7AcquireEPNS_5cloud11FaasContextERKNS0_10FsdOptionsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEimPNS0_13WorkerMetricsEb(
    ShareDistributor* self, fsd::cloud::FaasContext* ctx,
    const fsd::core::FsdOptions& options, const std::string& family,
    int32_t partition_id, uint64_t share_bytes,
    fsd::core::WorkerMetrics* metrics, bool mark_prewarmed);
ShareDistributor::Source
__wrap__ZN3fsd4core16ShareDistributor7AcquireEPNS_5cloud11FaasContextERKNS0_10FsdOptionsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEimPNS0_13WorkerMetricsEb(
    ShareDistributor* self, fsd::cloud::FaasContext* ctx,
    const fsd::core::FsdOptions& options, const std::string& family,
    int32_t partition_id, uint64_t share_bytes,
    fsd::core::WorkerMetrics* metrics, bool mark_prewarmed) {
  replaybench::spans::Count(replaybench::spans::kShareAcquire);
  return __real__ZN3fsd4core16ShareDistributor7AcquireEPNS_5cloud11FaasContextERKNS0_10FsdOptionsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEimPNS0_13WorkerMetricsEb(
      self, ctx, options, family, partition_id, share_bytes, metrics,
      mark_prewarmed);
}

fsd::Status
__real__ZN3fsd4core7BarrierEPNS0_11CommChannelEPNS0_9WorkerEnvENS0_18CollectiveTopologyENS0_10PhaseBlockES6_ii(
    CommChannel* channel, WorkerEnv* env, CollectiveTopology topology,
    PhaseBlock arrive, PhaseBlock release, int32_t num_workers, int32_t root);
fsd::Status
__wrap__ZN3fsd4core7BarrierEPNS0_11CommChannelEPNS0_9WorkerEnvENS0_18CollectiveTopologyENS0_10PhaseBlockES6_ii(
    CommChannel* channel, WorkerEnv* env, CollectiveTopology topology,
    PhaseBlock arrive, PhaseBlock release, int32_t num_workers, int32_t root) {
  replaybench::spans::Count(replaybench::spans::kCollective);
  return __real__ZN3fsd4core7BarrierEPNS0_11CommChannelEPNS0_9WorkerEnvENS0_18CollectiveTopologyENS0_10PhaseBlockES6_ii(
      channel, env, topology, arrive, release, num_workers, root);
}

fsd::Result<fsd::linalg::ActivationMap>
__real__ZN3fsd4core6ReduceEPNS0_11CommChannelEPNS0_9WorkerEnvENS0_18CollectiveTopologyENS0_10PhaseBlockEiRKSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS9_EEEi(
    CommChannel* channel, WorkerEnv* env, CollectiveTopology topology,
    PhaseBlock block, int32_t num_workers, const fsd::linalg::ActivationMap& mine,
    int32_t root);
fsd::Result<fsd::linalg::ActivationMap>
__wrap__ZN3fsd4core6ReduceEPNS0_11CommChannelEPNS0_9WorkerEnvENS0_18CollectiveTopologyENS0_10PhaseBlockEiRKSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS9_EEEi(
    CommChannel* channel, WorkerEnv* env, CollectiveTopology topology,
    PhaseBlock block, int32_t num_workers, const fsd::linalg::ActivationMap& mine,
    int32_t root) {
  replaybench::spans::Count(replaybench::spans::kCollective);
  return __real__ZN3fsd4core6ReduceEPNS0_11CommChannelEPNS0_9WorkerEnvENS0_18CollectiveTopologyENS0_10PhaseBlockEiRKSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS9_EEEi(
      channel, env, topology, block, num_workers, mine, root);
}

}  // extern "C"
