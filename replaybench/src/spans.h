// Wall-clock spans around the program's public entry points, for the
// traced build of the replay benchmark only.
//
// The wrap_*.cc files interpose on library symbols with GNU ld --wrap and
// open one Scope per call. Scopes nest per thread: a scope's self time is
// its duration minus the durations of scopes opened inside it on the same
// thread. Simulation processes run as fibers on the scheduler thread, so a
// scope must never span a yield to the DES; entry points that do yield
// (share acquisition, collectives) are counted with Count() instead.
#ifndef REPLAYBENCH_SPANS_H_
#define REPLAYBENCH_SPANS_H_

#include <chrono>
#include <cstdint>

namespace replaybench::spans {

enum Id : int {
  kSimRun = 0,
  kLzCompress,
  kLzDecompress,
  kCrc32,
  kEncodeRows,
  kDecodeRows,
  kLayerForward,
  kCountMacs,
  kShareAcquire,  ///< count only (yields to the DES)
  kCollective,    ///< count only (yields to the DES)
  kNumIds,
};

struct Totals {
  uint64_t calls = 0;
  double incl_s = 0.0;
  double self_s = 0.0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  double work = 0.0;  ///< span-specific work count (kernel MACs)
};

class Scope {
 public:
  explicit Scope(Id id);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void AddBytesIn(uint64_t bytes) { bytes_in_ += bytes; }
  void AddBytesOut(uint64_t bytes) { bytes_out_ += bytes; }
  void AddWork(double work) { work_ += work; }

 private:
  Id id_;
  Scope* parent_;
  std::chrono::steady_clock::time_point start_;
  int64_t child_ns_ = 0;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
  double work_ = 0.0;
};

void Count(Id id);
Totals Read(Id id);
void Reset();

/// Wrapper files register their layer at static initialization, so the
/// report can tell a layer whose interposer was not linked.
bool MarkLayer(const char* layer);
bool LayerLinked(const char* layer);

}  // namespace replaybench::spans

#endif  // REPLAYBENCH_SPANS_H_
