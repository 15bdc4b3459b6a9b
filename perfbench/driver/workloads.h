// The benchmark's four workloads, each run as one repetition ("rep"): build
// the stack (set-up), run the measured phase, take a checkpoint or
// migrate, and report the simulated fingerprint plus host timings.
//
//   compile_ept      Table 2 "EPT": NOVA, nested paging + VPID, 2 MiB host
//                    pages, 4 compiler processes x 192-page working sets.
//   compile_vtlb     Table 2 "vTLB": the identical guest under shadow
//                    paging with the default (naive) vTLB policy.
//   disk_vahci       Table 2 "Disk 4k": sequential 4 KiB reads through the
//                    virtual AHCI model, portal IPC and the disk server.
//   migrate_precopy  ext_migrate part 1: iterative pre-copy migration of a
//                    live compile guest between two CompileScenario nodes.
//
// All simulator state is built through the public APIs of bench/ and src/;
// host-clock spans (SpanLog) wrap every call the benchmark makes into a
// layer.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/spans.h"
#include "src/hw/cpu_model.h"
#include "src/hw/phys_mem.h"
#include "src/sim/trace.h"

namespace perfbench {

// Simulated outputs that must repeat exactly for a given seed.
using Fingerprint = std::map<std::string, std::uint64_t>;

enum class WorkloadKind { kCompileEpt, kCompileVtlb, kDiskVahci, kMigratePrecopy };

struct Spec {
  WorkloadKind kind = WorkloadKind::kCompileEpt;
  std::uint64_t seed = 42;
  // Work per rep. Full size is the paper's Table 2 setting; the self-test
  // uses a small size.
  std::uint64_t compile_units = 40000;
  std::uint64_t disk_requests = 40000;
  std::uint32_t migrate_ws_pages = 256;
};

bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

// What the replay loops need from a finished rep: the node's memory, its
// guest page tables, its CPU model and its event-queue depth. `hold` keeps
// the simulated nodes alive for as long as the pointers are used.
struct ReplayInputs {
  std::shared_ptr<void> hold;
  nova::hw::PhysMem* mem = nullptr;
  const nova::hw::CpuModel* cpu = nullptr;
  std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa;
  std::uint64_t guest_cr3 = 0;       // Guest-physical root of the live process.
  std::uint64_t pt_pool_end = 0;     // Guest page-table frames end here.
  std::uint64_t process_pages = 0;   // Process pages handed out so far.
  std::size_t pending_events = 0;
};

struct RepResult {
  double setup_s = 0;   // Building the stack (for a migration both nodes).
  double host_s = 0;    // Measured phase.
  std::uint64_t guest_insns = 0;
  std::vector<double> pause_s;  // One per stop-and-copy / checkpoint.
  std::uint64_t snapshot_bytes = 0;  // Encoded size; 0 without a snapshot.
  Fingerprint fp;
  // Operations attempted and failed inside the rep (disk requests,
  // migrations, checkpoint round trips); the rep itself is counted by the
  // caller.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> op_errors;  // One per failed operation kind.
  // Checks on the rep as a whole (unfinished workload, trace fold that
  // disagrees with the counters, wrong data read back); any entry fails
  // the rep.
  std::vector<std::string> errors;
  // Traced reps only: the folded simulated-time attribution.
  std::map<std::string, nova::sim::TraceReport::Entry> trace_rows;
  ReplayInputs replay;
};

// Runs one rep. With `trace` the node's sim::Tracer records the measured
// phase and the rep additionally checks the trace fold against the
// counters, row by row. With `checkpoint` a compile or disk rep ends with
// one checkpoint round trip onto its twin (a migration rep always makes
// its stop-and-copy). The twin is built either way, outside set-up, so
// every rep holds the same nodes.
RepResult RunRep(const Spec& spec, bool trace, bool checkpoint, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
