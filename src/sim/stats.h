// Lightweight statistics primitives used by the hypervisor, the device
// models and the benchmark harnesses: named counters, value distributions
// and busy/idle utilization tracking.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/sim/time.h"

namespace nova::sim {

// Monotonic event counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  void Reset() { value_ = 0; }
  std::uint64_t value() const { return value_; }

  Status SaveState(SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    io.U64(s.value_);
    return io.status();
  }

  // snapshot-x-list(Counter): value_
  std::uint64_t value_ = 0;
};

// Streaming distribution: count / sum / min / max / mean, plus a uniform
// sample reservoir capped at a configurable size for percentiles.
class Distribution {
 public:
  explicit Distribution(std::size_t max_samples = 1 << 16)
      : max_samples_(max_samples) {}

  void Record(std::uint64_t v) {
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = std::max(max_, v);
    // Reservoir sampling (Vitter's Algorithm R): once the reservoir is
    // full, the i-th value replaces a random slot with probability k/i, so
    // every recorded value is retained with equal probability and the
    // percentiles are unbiased — not skewed toward warm-up values.
    if (samples_.size() < max_samples_) {
      samples_.push_back(v);
    } else {
      const std::uint64_t slot = rng_.Below(count_);
      if (slot < max_samples_) {
        samples_[static_cast<std::size_t>(slot)] = v;
      }
    }
  }

  void Reset() {
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    samples_.clear();
    rng_ = Rng{kReservoirSeed};
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }

  // Exact percentile over the stored sample reservoir (q in [0,100]).
  std::uint64_t Percentile(double q) const;

  Status SaveState(SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    io.U64(s.count_);
    io.U64(s.sum_);
    io.U64(s.min_);
    io.U64(s.max_);
    io.State(s.rng_);
    io.Seq64(s.samples_, [&io](auto& v) { io.U64(v); });
    return io.status();
  }

  // Fixed seed: runs stay bit-for-bit reproducible.
  static constexpr std::uint64_t kReservoirSeed = 0x5eed5eed5eed5eedull;

  // snapshot-x-list(Distribution): max_samples_, count_, sum_, min_,
  // max_, rng_, samples_
  std::size_t max_samples_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  Rng rng_{kReservoirSeed};
  mutable std::vector<std::uint64_t> samples_;
};

// Tracks the fraction of wall-clock (simulated) time a resource was busy.
// Used to report the CPU-utilization curves of Figures 6 and 7.
class UtilizationTracker {
 public:
  void SetBusy(PicoSeconds now, bool busy);
  // Close the current interval at `now` and return busy fraction since the
  // last Reset.
  double Utilization(PicoSeconds now) const;
  void Reset(PicoSeconds now);

  PicoSeconds busy_time(PicoSeconds now) const;

  Status SaveState(SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    io.U64(s.start_);
    io.U64(s.busy_accum_);
    io.U64(s.last_change_);
    io.Bool(s.busy_);
    return io.status();
  }

  // snapshot-x-list(UtilizationTracker): start_, busy_accum_,
  // last_change_, busy_
  PicoSeconds start_ = 0;
  PicoSeconds busy_accum_ = 0;
  PicoSeconds last_change_ = 0;
  bool busy_ = false;
};

// Named counter registry; benchmark harnesses print these tables directly
// (Table 2 of the paper is one such dump).
class StatRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  std::uint64_t Value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }
  void ResetAll() {
    for (auto& [name, c] : counters_) c.Reset();
  }
  const std::map<std::string, Counter>& counters() const { return counters_; }

  Status SaveState(SnapWriter& w) const {
    w.Seq32(counters_, [&w](const auto& kv) {
      w.Str(kv.first);
      w.State(kv.second);
    });
    return w.status();
  }
  // Inserts counters the twin has not referenced yet, rather than
  // rebuilding the map: registered Counter addresses stay stable
  // (std::map nodes), so cached references survive.
  Status LoadState(SnapReader& r) {
    const std::uint32_t n = r.U32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::string name = r.Str();
      if (r.ok()) r.State(counters_[name]);
    }
    return r.status();
  }

 private:
  // snapshot-x-list(StatRegistry): counters_
  std::map<std::string, Counter> counters_;
};

}  // namespace nova::sim

#endif  // SRC_SIM_STATS_H_
