// Test helpers for corrupting checkpoints: the pinned shadow-paging
// scenario, the section payloads of an encoded snapshot, and a way to put
// an edited payload back so that the checksums still pass.
#ifndef TESTS_INTEGRATION_SNAPSHOT_SECTIONS_H_
#define TESTS_INTEGRATION_SNAPSHOT_SECTIONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/scenario.h"
#include "src/sim/snapshot.h"

namespace nova::bench {

// The configuration of SnapshotRoundTrip.FixedCheckpointEncodingIsPinned:
// shadow paging with the context cache and VPID, so the checkpoint holds
// vTLB contexts, resident frames and in-flight disk state.
inline RunConfig PinnedShadowConfig() {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.mode = hw::TranslationMode::kShadow;
  c.vtlb.cache_contexts = true;
  c.vtlb.use_vpid = true;
  c.workload.processes = 2;
  c.workload.ws_pages = 64;
  c.workload.total_units = 400;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 200;
  c.workload.seed = 42;
  return c;
}

// Runs `scn` until half of its compile units are retired.
inline void RunToMidpoint(CompileScenario& scn) {
  guest::CompileWorkload* w = &scn.workload();
  const std::uint64_t half = scn.config().workload.total_units / 2;
  scn.system().hv.RunUntilCondition(
      [w, half] { return w->units_done() >= half; }, sim::Seconds(120));
}

struct RawSection {
  std::uint16_t version = 0;
  std::vector<std::uint8_t> payload;
};

// Section payloads, parsed from the wire encoding: magic, file version,
// section count, then name, version, size, checksum and payload per
// section.
inline std::map<std::string, RawSection> RawSections(
    const sim::Snapshot& snap) {
  const std::vector<std::uint8_t> bytes = snap.Encode();
  sim::SnapReader r(bytes.data(), bytes.size());
  char magic[8] = {};
  r.Bytes(magic, sizeof magic);
  (void)r.U32();
  std::map<std::string, RawSection> out;
  const std::uint32_t count = r.U32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    const std::string name = r.Str();
    RawSection& s = out[name];
    s.version = r.U16();
    s.payload.resize(r.U64());
    (void)r.U64();  // Checksum.
    r.Bytes(s.payload.data(), s.payload.size());
  }
  return out;
}

// Replaces section `name`; Encode checksums the new payload.
inline void Restore(sim::Snapshot& snap, const std::string& name,
                    const RawSection& s) {
  snap.Section(name, s.version).Bytes(s.payload.data(), s.payload.size());
}

}  // namespace nova::bench

#endif  // TESTS_INTEGRATION_SNAPSHOT_SECTIONS_H_
