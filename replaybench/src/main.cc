// Replays a seeded arrival schedule through core::ServingRuntime, checks
// every query's output and the ledger, and prints one JSON result line.
//
//   replay_bench --workload NAME --seed N --seconds S
//
// Replays whole rounds (one round = every query of the workload's trace on
// a fresh simulated cloud) until S wall seconds have passed. The untraced
// build prints the end-to-end metrics; the traced build (REPLAY_TRACED,
// linked with the wrap_*.cc interposers) prints the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/strings.h"
#include "workloads.h"

#if REPLAY_TRACED
#include "spans.h"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using replaybench::RoundResult;
using replaybench::Setup;
using replaybench::WorkloadSpec;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

#if !REPLAY_TRACED
/// Nearest-rank percentile of `v` (sorted ascending).
double Percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}
#else
/// Sums of one round's ledger quantities over the channel dimensions.
void BilledChannelTraffic(const fsd::core::BillingDelta& billing,
                          double* requests, double* bytes) {
  using fsd::cloud::BillingDimension;
  *requests = 0.0;
  for (BillingDimension d :
       {BillingDimension::kPubSubPublishChunk, BillingDimension::kQueueApiCall,
        BillingDimension::kObjectPut, BillingDimension::kObjectGet,
        BillingDimension::kObjectList, BillingDimension::kKvRequest,
        BillingDimension::kP2pConnection}) {
    *requests += billing.quantity(d);
  }
  *bytes = billing.quantity(BillingDimension::kPubSubDeliveryByte) +
           billing.quantity(BillingDimension::kKvProcessedByte) +
           billing.quantity(BillingDimension::kP2pByte);
}
#endif

/// A fixed integer loop that does not call the program: its rate moves with
/// the host (clock, contention), not with the code under test.
double HostCalibrationMops() {
  constexpr uint64_t kIters = 40'000'000;
  const auto t0 = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t acc = 0;
  for (uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * (i | 1);
  }
  const double s = Since(t0);
  volatile uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(kIters) / s / 1e6;
}

/// Checks every completed query's output against the benchmark's own
/// reference forward pass, computed here (after the round's wall clock
/// stopped) on up to 4 threads. Returns the lowest-numbered query's mismatch,
/// or an empty string when every output matches.
std::string CheckOutputs(const WorkloadSpec& spec, const Setup& setup,
                         const std::vector<fsd::core::QueryOutcome>& queries,
                         double* max_abs_err) {
  std::vector<std::string> mismatch(queries.size());
  std::vector<double> err(queries.size(), 0.0);
  std::atomic<size_t> next{0};
  auto work = [&]() {
    for (size_t q = next++; q < queries.size(); q = next++) {
      const fsd::core::QueryOutcome& outcome = queries[q];
      if (outcome.disposition != fsd::core::QueryDisposition::kCompleted) {
        continue;
      }
      if (outcome.report.outputs.size() != 1) {
        mismatch[q] = fsd::StrFormat("%zu outputs", outcome.report.outputs.size());
        continue;
      }
      const replaybench::RefActivations ref = replaybench::ReferenceForward(
          setup.dnn.weights, setup.dnn.config.bias, setup.dnn.config.relu_cap,
          spec.samples, setup.inputs[q]);
      mismatch[q] = replaybench::CompareOutput(ref, outcome.report.outputs[0],
                                               spec.samples, {}, &err[q]);
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  *max_abs_err = *std::max_element(err.begin(), err.end());
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!mismatch[q].empty()) {
      return fsd::StrFormat("query %zu: %s", q, mismatch[q].c_str());
    }
  }
  return "";
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S\nworkloads:",
               argv0);
  for (const std::string& name : replaybench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else {
      Usage(argv[0]);
    }
  }
  const WorkloadSpec* spec = replaybench::FindWorkload(workload);
  if (spec == nullptr || seconds <= 0.0 || argc % 2 != 1) Usage(argv[0]);

  // ---- set-up (timed from process start) ----
  const std::unique_ptr<Setup> setup = replaybench::PrepareSetup(*spec, seed);
  const double setup_s = Since(t_start);

  const double calibration_mops = HostCalibrationMops();
  std::printf("host.calibration_mops=%.6g\n", calibration_mops);

  bool correct = true;
  auto fail_check = [&](const std::string& what) {
    if (correct) {
      std::fprintf(stderr, "replay_bench: CHECK FAILED: %s\n", what.c_str());
    }
    correct = false;
  };

  // ---- pooled vs inline byte identity on a prefix of the trace ----
  const auto t_identity = Clock::now();
  if (spec->identity_prefix > 0) {
    const RoundResult pooled = replaybench::ReplayRound(
        *spec, *setup, spec->compute_threads, spec->identity_prefix);
    const RoundResult inline_run =
        replaybench::ReplayRound(*spec, *setup, 0, spec->identity_prefix);
    const std::string diff = replaybench::CompareReplays(
        pooled.report, pooled.ledger, inline_run.report, inline_run.ledger);
    if (!diff.empty()) fail_check("pooled vs inline replay: " + diff);
  }
  const double identity_s = Since(t_identity);

  // ---- measured rounds ----
#if REPLAY_TRACED
  replaybench::spans::Reset();
#endif
  int64_t rounds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  double replay_wall_s = 0.0;
  double total_cost = 0.0;
  double max_abs_err = 0.0;
  double worst_rel_err = 0.0;
  // Round 1's virtual results; every later round must repeat them exactly.
  std::vector<double> first_latencies;  // per query, in submission order
  std::vector<double> done_latencies;   // completed queries, sorted
  fsd::core::FleetStats fleet;
  fsd::core::BillingDelta billing;
  uint64_t events = 0;
  fsd::sim::OffloadStats offload;
  const auto t_measure = Clock::now();
  do {
    RoundResult round =
        replaybench::ReplayRound(*spec, *setup, spec->compute_threads);
    ++rounds;
    replay_wall_s += round.wall_s;
    events += round.events;
    offload.calls += round.offload.calls;
    offload.pool_busy_wall_s += round.offload.pool_busy_wall_s;
    total_cost += round.report.billing.total_cost;

    std::vector<double> latencies;
    const auto& queries = round.report.queries;
    attempted += static_cast<int64_t>(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      const fsd::core::QueryOutcome& outcome = queries[q];
      latencies.push_back(outcome.report.latency_s);
      if (outcome.disposition != fsd::core::QueryDisposition::kCompleted ||
          !outcome.report.status.ok()) {
        ++failed;
        continue;
      }
      ++completed;
      if (rounds == 1) done_latencies.push_back(outcome.report.latency_s);
    }
    double err = 0.0;
    const std::string mismatch = CheckOutputs(*spec, *setup, queries, &err);
    max_abs_err = std::max(max_abs_err, err);
    if (!mismatch.empty()) fail_check(mismatch);
    const replaybench::CommReconciliation rec = replaybench::Reconcile(
        queries, round.report.billing, round.kv_node_hourly);
    worst_rel_err = std::max(worst_rel_err, rec.RelErr());
    if (rec.RelErr() > replaybench::kMaxCommRelErr) {
      fail_check(fsd::StrFormat(
          "communication cost: predicted %.9g + kv node %.9g vs ledger %.9g",
          rec.predicted, rec.kv_node, rec.ledger));
    }
    // Virtual time must repeat exactly from round to round.
    if (rounds == 1) {
      first_latencies = latencies;
      std::sort(done_latencies.begin(), done_latencies.end());
      fleet = round.report.fleet;
      billing = round.report.billing;
    } else if (latencies != first_latencies ||
               round.report.billing.total_cost != billing.total_cost) {
      fail_check("virtual latencies or ledger differ between rounds");
    }
  } while (Since(t_measure) < seconds);

  std::printf(
      "workload=%s seed=%llu rounds=%lld queries/round=%zu setup_s=%.3f "
      "identity_s=%.3f max_abs_err=%.3g comm_rel_err=%.3g\n",
      spec->name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(rounds), first_latencies.size(), setup_s,
      identity_s, max_abs_err, worst_rel_err);

  const double qps = static_cast<double>(completed) / replay_wall_s;

  std::vector<Metric> metrics;
#if !REPLAY_TRACED
  metrics.push_back({"replay_qps", qps, "queries/s"});
  metrics.push_back({"setup_s", setup_s, "s"});
  metrics.push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
  metrics.push_back(
      {"virtual_latency_p50_s", Percentile(done_latencies, 0.50), "s"});
  metrics.push_back(
      {"virtual_latency_p90_s", Percentile(done_latencies, 0.90), "s"});
  metrics.push_back({"cost_per_query_usd",
                     completed > 0 ? total_cost / static_cast<double>(completed)
                                   : 0.0,
                     "USD"});
#else
  namespace spans = replaybench::spans;
  const double per_round = 1.0 / static_cast<double>(rounds);
  auto rate = [](double work, double s) { return s > 0.0 ? work / s : 0.0; };
  constexpr double kMiB = 1024.0 * 1024.0;

  metrics.push_back({"traced.replay_qps", qps, "queries/s"});
  metrics.push_back({"host.calibration_mops", calibration_mops, "Mops/s"});
  // sim
  if (spans::LayerLinked("sim")) {
    const spans::Totals run = spans::Read(spans::kSimRun);
    metrics.push_back({"sim.run_wall_s", run.incl_s * per_round, "s"});
    metrics.push_back({"sim.self_wall_s", run.self_s * per_round, "s"});
    metrics.push_back({"sim.events_per_wall_s",
                       rate(static_cast<double>(events), run.incl_s), "1/s"});
  }
  metrics.push_back(
      {"sim.events", static_cast<double>(events) * per_round, "count"});
  metrics.push_back({"sim.offload_calls",
                     static_cast<double>(offload.calls) * per_round, "count"});
  metrics.push_back(
      {"sim.offload_pool_busy_s", offload.pool_busy_wall_s * per_round, "s"});
  // codec
  if (spans::LayerLinked("codec")) {
    const spans::Totals lz = spans::Read(spans::kLzCompress);
    const spans::Totals unlz = spans::Read(spans::kLzDecompress);
    const spans::Totals crc = spans::Read(spans::kCrc32);
    metrics.push_back({"codec.lz_compress_s", lz.self_s * per_round, "s"});
    metrics.push_back({"codec.lz_compress_calls",
                       static_cast<double>(lz.calls) * per_round, "count"});
    metrics.push_back(
        {"codec.lz_compress_mib_per_s",
         rate(static_cast<double>(lz.bytes_in) / kMiB, lz.self_s), "MiB/s"});
    metrics.push_back({"codec.lz_decompress_s", unlz.self_s * per_round, "s"});
    metrics.push_back(
        {"codec.lz_decompress_mib_per_s",
         rate(static_cast<double>(unlz.bytes_out) / kMiB, unlz.self_s),
         "MiB/s"});
    metrics.push_back({"codec.crc32_s", crc.self_s * per_round, "s"});
    metrics.push_back(
        {"codec.crc32_mib_per_s",
         rate(static_cast<double>(crc.bytes_in) / kMiB, crc.self_s), "MiB/s"});
    metrics.push_back({"codec.lz_ratio",
                       lz.bytes_out > 0 ? static_cast<double>(lz.bytes_in) /
                                              static_cast<double>(lz.bytes_out)
                                        : 0.0,
                       "ratio"});
  }
  // core serialization
  if (spans::LayerLinked("serialization")) {
    const spans::Totals enc = spans::Read(spans::kEncodeRows);
    const spans::Totals dec = spans::Read(spans::kDecodeRows);
    metrics.push_back(
        {"serialization.encode_self_s", enc.self_s * per_round, "s"});
    metrics.push_back(
        {"serialization.decode_self_s", dec.self_s * per_round, "s"});
    metrics.push_back({"serialization.encode_calls",
                       static_cast<double>(enc.calls) * per_round, "count"});
    metrics.push_back({"serialization.wire_bytes",
                       static_cast<double>(enc.bytes_out) * per_round,
                       "bytes"});
  }
  // linalg
  if (spans::LayerLinked("linalg")) {
    const spans::Totals fwd = spans::Read(spans::kLayerForward);
    const spans::Totals count = spans::Read(spans::kCountMacs);
    metrics.push_back({"linalg.forward_s", fwd.self_s * per_round, "s"});
    metrics.push_back({"linalg.forward_calls",
                       static_cast<double>(fwd.calls) * per_round, "count"});
    metrics.push_back({"linalg.macs", fwd.work * per_round, "count"});
    metrics.push_back({"linalg.macs_per_s", rate(fwd.work, fwd.self_s), "1/s"});
    metrics.push_back({"linalg.count_macs_s", count.self_s * per_round, "s"});
  }
  // core channels and collectives (virtual, from the ledger and FleetStats)
  double billed_requests = 0.0;
  double billed_bytes = 0.0;
  BilledChannelTraffic(billing, &billed_requests, &billed_bytes);
  metrics.push_back({"channel.billed_requests", billed_requests, "count"});
  metrics.push_back({"channel.billed_bytes", billed_bytes, "bytes"});
  metrics.push_back({"collectives.rounds",
                     static_cast<double>(fleet.collective_rounds), "count"});
  metrics.push_back(
      {"collectives.round_mean_s", fleet.collective_round_mean_s, "s"});
  // core serving, partition cache, share distributor; cloud
  metrics.push_back(
      {"serving.runs", static_cast<double>(fleet.runs), "count"});
  metrics.push_back(
      {"serving.batch_occupancy_mean", fleet.batch_occupancy_mean, "ratio"});
  metrics.push_back(
      {"serving.queue_wait_p50_s", fleet.queue_wait_p50_s, "s"});
  metrics.push_back(
      {"serving.cold_start_ratio", fleet.cold_start_ratio, "ratio"});
  metrics.push_back({"cache.hit_ratio", fleet.cache_hit_ratio, "ratio"});
  metrics.push_back({"share.loads_peer",
                     static_cast<double>(fleet.share_loads_peer), "count"});
  metrics.push_back({"share.loads_storage",
                     static_cast<double>(fleet.share_loads_storage), "count"});
  metrics.push_back({"share.peer_bytes",
                     static_cast<double>(fleet.share_peer_bytes), "bytes"});
  metrics.push_back({"share.relay_bytes",
                     static_cast<double>(fleet.share_relay_bytes), "bytes"});
  metrics.push_back({"cloud.worker_invocations",
                     static_cast<double>(fleet.worker_invocations), "count"});
  if (spans::LayerLinked("core")) {
    metrics.push_back(
        {"share.acquire_calls",
         static_cast<double>(spans::Read(spans::kShareAcquire).calls) *
             per_round,
         "count"});
    metrics.push_back(
        {"collectives.calls",
         static_cast<double>(spans::Read(spans::kCollective).calls) *
             per_round,
         "count"});
  }
  // part and model (set-up)
  metrics.push_back({"part.partition_s", setup->partition_s, "s"});
  metrics.push_back({"model.generate_s", setup->generate_s, "s"});
  metrics.push_back({"part.cut_cost",
                     static_cast<double>(setup->partition.cut_cost), "count"});
  (void)setup_s;
#endif
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
