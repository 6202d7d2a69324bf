// sim interposer: the DES main loop. Simulation::Run's self time is its
// wall time minus every wrapped span nested on the scheduler thread: DES
// dispatch, channel bookkeeping, share-chunk synthesis and all other
// untraced work. CMakeLists.txt turns every __wrap_ definition here into a
// --wrap flag.
#include "sim/simulation.h"
#include "spans.h"

using replaybench::spans::Scope;

namespace {
const bool kLinked = replaybench::spans::MarkLayer("sim");
}  // namespace

extern "C" {

void __real__ZN3fsd3sim10Simulation3RunEd(fsd::sim::Simulation* self,
                                          double until);
void __wrap__ZN3fsd3sim10Simulation3RunEd(fsd::sim::Simulation* self,
                                          double until) {
  Scope span(replaybench::spans::kSimRun);
  __real__ZN3fsd3sim10Simulation3RunEd(self, until);
}

}  // extern "C"
