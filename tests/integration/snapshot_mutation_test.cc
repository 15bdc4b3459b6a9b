// Seeded mutation test of the snapshot load path. The migration target
// ingests checkpoints off the wire, so every corrupted section must be
// rejected, or accepted, with a Status: no exception, no crash, no
// sanitizer report, no runaway loop. The checksums are recomputed for the
// corrupted payload, so the damage reaches the component loaders rather
// than stopping at Snapshot::Decode.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "tests/integration/snapshot_sections.h"

namespace nova::bench {
namespace {

// Fixed, so a failure names a seed that reproduces it.
constexpr std::uint64_t kCases = 128;

enum class Mutation { kTruncate, kFlipBytes, kOnesWindow };

// Damages `payload` as seed-drawn `rng` says; returns what it did.
Mutation Mutate(sim::Rng& rng, std::vector<std::uint8_t>& payload) {
  const auto kind = static_cast<Mutation>(rng.Below(3));
  const std::size_t size = payload.size();
  switch (kind) {
    case Mutation::kTruncate:
      payload.resize(size == 0 ? 0 : rng.Below(size));
      break;
    case Mutation::kFlipBytes:
      for (std::uint64_t n = 1 + rng.Below(4); n > 0 && size > 0; --n) {
        payload[rng.Below(size)] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
      }
      break;
    case Mutation::kOnesWindow: {
      const std::size_t width = rng.Chance(0.5) ? 4 : 8;
      if (size >= width) {
        const std::size_t at = rng.Below(size - width + 1);
        for (std::size_t i = at; i < at + width; ++i) payload[i] = 0xff;
      }
      break;
    }
  }
  return kind;
}

TEST(SnapshotMutation, CorruptSectionsLoadToAStatus) {
  CompileScenario scn(PinnedShadowConfig());
  RunToMidpoint(scn);
  sim::Snapshot snap;
  ASSERT_EQ(scn.SaveState(snap), Status::kSuccess);
  const std::map<std::string, RawSection> sections = RawSections(snap);
  std::vector<std::string> names;
  for (const auto& [name, section] : sections) names.push_back(name);

  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    sim::Rng rng(seed);
    const std::string& name = names[rng.Below(names.size())];
    RawSection s = sections.at(name);
    const Mutation kind = Mutate(rng, s.payload);
    sim::Snapshot forged = snap;
    Restore(forged, name, s);

    CompileScenario twin(PinnedShadowConfig());
    Status st = Status::kSuccess;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(st = twin.LoadState(forged))
        << "seed " << seed << ", section " << name;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
        << "seed " << seed << ", section " << name;
    if (kind == Mutation::kTruncate) {
      EXPECT_NE(st, Status::kSuccess) << "seed " << seed << ", section " << name;
    }
  }
}

}  // namespace
}  // namespace nova::bench
