// Replay loops: host time per call of one layer's public function, called
// on inputs taken from a finished rep's own state (its resident frames,
// its guest page tables, its CPU model, its event-queue depth). Each
// replay runs in batches inside a SpanLog span and reports the median
// batch's nanoseconds per call.
#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <map>
#include <string>

#include "driver/spans.h"
#include "driver/workloads.h"

namespace perfbench {

// Keys are the per-layer metric names (hw.mem.read_ns, ...), values in
// nanoseconds per call.
std::map<std::string, double> RunReplays(const ReplayInputs& in, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
