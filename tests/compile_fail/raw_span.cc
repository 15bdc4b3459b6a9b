// Must not compile: a hand-paired span. Tracer::BeginAt/EndAt are private
// to ScopedSpan, whose destructor ends the span on every return path.
#include "src/sim/trace.h"

void Emit(nova::sim::Tracer& t, std::uint16_t name) {
  t.BeginAt(0, nova::sim::TraceCat::kIpc, name, 0, 0, 0);
}
