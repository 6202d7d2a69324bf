// Workloads of the replay benchmark and one replay of a workload's trace
// through the real core::ServingRuntime.
#ifndef REPLAYBENCH_WORKLOADS_H_
#define REPLAYBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/serving.h"
#include "core/trace.h"
#include "linalg/spmm.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"
#include "sim/simulation.h"

namespace replaybench {

struct WorkloadSpec {
  std::string name;
  int32_t neurons = 0;
  int32_t layers = 0;
  int32_t workers = 0;
  int32_t samples = 0;  ///< sample columns of each query's own input batch
  int32_t queries = 0;  ///< queries in one replay (one round)
  double base_qps = 0.0;
  /// rate x multiplier for [start, start + duration) of virtual time;
  /// multiplier 1 = plain Poisson.
  fsd::core::FlashCrowd crowd;
  bool compress = true;
  int compute_threads = 0;
  double batch_window_s = 0.0;
  bool peer_share_transfer = false;
  /// Channel backend and collective topology, assigned round-robin over the
  /// trace's queries in arrival order.
  std::vector<std::pair<fsd::core::Variant, fsd::core::CollectiveTopology>>
      rotation;
  /// > 0: the replay of this many leading queries on the compute pool must
  /// be byte-identical to an inline (compute_threads = 0) replay.
  int32_t identity_prefix = 0;
};

/// The benchmark's workloads by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The deployed model and its partition (fixed per workload) and the
/// seed-derived traffic: arrival schedule and one input batch per query.
struct Setup {
  fsd::model::SparseDnn dnn;
  fsd::part::ModelPartition partition;
  fsd::core::WorkloadTrace trace;
  std::vector<fsd::linalg::ActivationMap> inputs;
  double generate_s = 0.0;   ///< model + inputs + trace generation, wall
  double partition_s = 0.0;  ///< PartitionModel, wall
};

/// Generates model, inputs and trace, and partitions the model. Aborts the
/// process with a message when the program rejects the workload.
std::unique_ptr<Setup> PrepareSetup(const WorkloadSpec& spec, uint64_t seed);

/// One replay of the first `limit` trace queries (all when limit <= 0) on a
/// fresh simulation, cloud and serving runtime.
struct RoundResult {
  fsd::core::ServingReport report;
  double wall_s = 0.0;  ///< simulation construction -> teardown
  uint64_t events = 0;  ///< Simulation::events_dispatched()
  fsd::sim::OffloadStats offload;
  std::vector<fsd::cloud::BillingLine> ledger;  ///< whole ledger at Drain
  double kv_node_hourly = 0.0;
};

RoundResult ReplayRound(const WorkloadSpec& spec, const Setup& setup,
                        int compute_threads, int32_t limit = 0);

}  // namespace replaybench

#endif  // REPLAYBENCH_WORKLOADS_H_
