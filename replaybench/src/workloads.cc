#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "cloud/cloud.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "model/input_gen.h"

namespace replaybench {

using fsd::core::CollectiveTopology;
using fsd::core::Variant;

namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void Fail(const std::string& what, const fsd::Status& status) {
  std::fprintf(stderr, "replay_bench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

// Why each workload exists (see README.md for the layer -> metric map):
//  - mixed-backends-lz: codec-bound; the only one that runs every channel
//    backend and every collective topology (FMI's one communicator over
//    many transports).
//  - wide-raw-pooled: kernel-bound; raw wire (no LZ/CRC calls) and the only
//    one whose kernels run on Simulation::Offload's real thread pool.
//  - flash-crowd-peer: many small kernel calls under a x4 flash crowd with
//    a batching window and peer share transfer (lambda-Scale fast scaling).
std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec mixed;
  mixed.name = "mixed-backends-lz";
  mixed.neurons = 1024;
  mixed.layers = 4;
  mixed.workers = 4;
  mixed.samples = 32;
  mixed.queries = 126;
  mixed.base_qps = 4.0;
  mixed.compress = true;
  for (Variant v : {Variant::kQueue, Variant::kObject, Variant::kKv,
                    Variant::kDirect}) {
    for (CollectiveTopology t :
         {CollectiveTopology::kThroughRoot, CollectiveTopology::kBinomialTree,
          CollectiveTopology::kRing}) {
      mixed.rotation.emplace_back(v, t);
    }
  }
  specs.push_back(mixed);

  WorkloadSpec wide;
  wide.name = "wide-raw-pooled";
  wide.neurons = 4096;
  wide.layers = 2;
  wide.workers = 4;
  wide.samples = 256;
  wide.queries = 100;
  wide.base_qps = 2.0;
  wide.compress = false;
  wide.compute_threads = 2;
  wide.rotation = {{Variant::kKv, CollectiveTopology::kThroughRoot}};
  wide.identity_prefix = 8;
  specs.push_back(wide);

  WorkloadSpec flash;
  flash.name = "flash-crowd-peer";
  flash.neurons = 16384;
  flash.layers = 2;
  flash.workers = 4;
  flash.samples = 8;
  flash.queries = 160;
  flash.base_qps = 2.0;
  flash.crowd = {4.0, 1e6, 4.0};
  flash.compress = true;
  flash.batch_window_s = 0.05;
  flash.peer_share_transfer = true;
  flash.rotation = {{Variant::kDirect, CollectiveTopology::kBinomialTree}};
  specs.push_back(flash);
  return specs;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

std::unique_ptr<Setup> PrepareSetup(const WorkloadSpec& spec, uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  const auto t0 = std::chrono::steady_clock::now();

  // The model is the deployment and stays fixed; the seed drives traffic.
  fsd::model::SparseDnnConfig model_config;
  model_config.neurons = spec.neurons;
  model_config.layers = spec.layers;
  model_config.seed = 7;
  auto dnn = fsd::model::GenerateSparseDnn(model_config);
  if (!dnn.ok()) Fail("GenerateSparseDnn", dnn.status());
  setup->dnn = std::move(*dnn);

  fsd::core::TraceConfig trace_config;
  trace_config.base_rate_qps = spec.base_qps;
  trace_config.duration_s = 1e6;  // ended by max_queries
  trace_config.max_queries = static_cast<uint64_t>(spec.queries);
  if (spec.crowd.rate_multiplier != 1.0) {
    trace_config.flash_crowds = {spec.crowd};
  }
  fsd::Rng rng(seed);
  trace_config.seed = rng.Next();
  auto trace = fsd::core::GenerateTrace(trace_config);
  if (!trace.ok()) Fail("GenerateTrace", trace.status());
  setup->trace = std::move(*trace);

  setup->inputs.reserve(static_cast<size_t>(spec.queries));
  for (int32_t q = 0; q < spec.queries; ++q) {
    fsd::model::InputConfig input_config;
    input_config.neurons = spec.neurons;
    input_config.batch = spec.samples;
    input_config.seed = rng.Next();
    auto input = fsd::model::GenerateInputBatch(input_config);
    if (!input.ok()) Fail("GenerateInputBatch", input.status());
    setup->inputs.push_back(std::move(*input));
  }
  setup->generate_s = Since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  fsd::part::ModelPartitionOptions part_options;
  part_options.scheme = fsd::part::PartitionScheme::kHypergraph;
  auto partition =
      fsd::part::PartitionModel(setup->dnn, spec.workers, part_options);
  if (!partition.ok()) Fail("PartitionModel", partition.status());
  setup->partition = std::move(*partition);
  setup->partition_s = Since(t1);
  return setup;
}

RoundResult ReplayRound(const WorkloadSpec& spec, const Setup& setup,
                        int compute_threads, int32_t limit) {
  RoundResult result;
  const auto t0 = std::chrono::steady_clock::now();

  fsd::sim::SimTuning tuning;
  tuning.compute_threads = compute_threads;
  auto sim = std::make_unique<fsd::sim::Simulation>(tuning);
  auto cloud = std::make_unique<fsd::cloud::CloudEnv>(sim.get());
  result.kv_node_hourly = cloud->config().pricing.kv_node_hourly;

  fsd::core::ServingOptions serving_options;
  serving_options.batch_window_s = spec.batch_window_s;
  serving_options.peer_share_transfer = spec.peer_share_transfer;
  auto runtime =
      std::make_unique<fsd::core::ServingRuntime>(cloud.get(), serving_options);

  const auto& arrivals = setup.trace.queries;
  const size_t count =
      limit > 0 ? std::min(arrivals.size(), static_cast<size_t>(limit))
                : arrivals.size();
  for (size_t q = 0; q < count; ++q) {
    fsd::core::InferenceRequest request;
    request.dnn = &setup.dnn;
    request.partition = &setup.partition;
    request.batches = {&setup.inputs[q]};
    const auto& [variant, topology] = spec.rotation[q % spec.rotation.size()];
    request.options.variant = variant;
    request.options.collective_topology = topology;
    request.options.num_workers = spec.workers;
    request.options.compress = spec.compress;
    auto id = runtime->Submit(request, arrivals[q].arrival_s);
    if (!id.ok()) Fail("ServingRuntime::Submit", id.status());
  }

  auto report = runtime->Drain();
  if (!report.ok()) Fail("ServingRuntime::Drain", report.status());
  result.report = std::move(*report);
  result.events = sim->events_dispatched();
  result.offload = sim->offload_stats();
  result.ledger = fsd::core::SnapshotLedger(cloud->billing());

  runtime.reset();
  cloud.reset();
  sim.reset();
  result.wall_s = Since(t0);
  return result;
}

}  // namespace replaybench
