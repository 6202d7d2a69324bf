#include "spans.h"

#include <atomic>
#include <set>
#include <string>

namespace replaybench::spans {

namespace {

struct Counters {
  std::atomic<uint64_t> calls{0};
  std::atomic<int64_t> incl_ns{0};
  std::atomic<int64_t> self_ns{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<double> work{0.0};
};

Counters g_counters[kNumIds];
thread_local Scope* t_top = nullptr;

std::set<std::string>& Layers() {
  static std::set<std::string> layers;
  return layers;
}

}  // namespace

Scope::Scope(Id id)
    : id_(id), parent_(t_top), start_(std::chrono::steady_clock::now()) {
  t_top = this;
}

Scope::~Scope() {
  const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  t_top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += ns;
  Counters& c = g_counters[id_];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.incl_ns.fetch_add(ns, std::memory_order_relaxed);
  c.self_ns.fetch_add(ns - child_ns_, std::memory_order_relaxed);
  c.bytes_in.fetch_add(bytes_in_, std::memory_order_relaxed);
  c.bytes_out.fetch_add(bytes_out_, std::memory_order_relaxed);
  if (work_ != 0.0) c.work.fetch_add(work_, std::memory_order_relaxed);
}

void Count(Id id) {
  g_counters[id].calls.fetch_add(1, std::memory_order_relaxed);
}

Totals Read(Id id) {
  const Counters& c = g_counters[id];
  Totals t;
  t.calls = c.calls.load();
  t.incl_s = static_cast<double>(c.incl_ns.load()) * 1e-9;
  t.self_s = static_cast<double>(c.self_ns.load()) * 1e-9;
  t.bytes_in = c.bytes_in.load();
  t.bytes_out = c.bytes_out.load();
  t.work = c.work.load();
  return t;
}

void Reset() {
  for (Counters& c : g_counters) {
    c.calls = 0;
    c.incl_ns = 0;
    c.self_ns = 0;
    c.bytes_in = 0;
    c.bytes_out = 0;
    c.work = 0.0;
  }
}

bool MarkLayer(const char* layer) {
  Layers().insert(layer);
  return true;
}

bool LayerLinked(const char* layer) { return Layers().count(layer) != 0; }

}  // namespace replaybench::spans
