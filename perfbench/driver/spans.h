// Host-clock spans recorded by the benchmark around its calls into the
// simulator layers.
//
// Spans live in memory while the benchmark runs and are written once, at
// exit, as Chrome trace_event JSON (loadable in Perfetto next to the
// simulated-time trace that sim::Tracer exports). Every span carries its
// name, start, end, parent span and the id of the run (repetition) that
// made it. A layer's self time is its span time minus the part its child
// spans cover; the per-layer host numbers the benchmark reports are
// derived from self time.
#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // Since the log was created.
    std::int64_t end_ns = 0;
    int parent = -1;            // Index into spans(), -1 for a root span.
    int run = 0;
    std::int64_t child_ns = 0;  // Time covered by direct children.
  };

  // RAII span; closes on every exit path of its scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), index_(log.Open(std::move(name))) {}
    ~Scope() { log_.Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Seconds since this span opened.
    double Elapsed() const { return static_cast<double>(log_.Now() - log_.spans_[index_].start_ns) * 1e-9; }

   private:
    SpanLog& log_;
    int index_;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  void set_run(int run) { run_ = run; }
  int run() const { return run_; }

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span named `name`, one entry per span, in seconds.
  std::vector<double> SelfSeconds(const std::string& name) const;
  // Total self time per span name, in seconds.
  std::map<std::string, double> SelfTotals() const;

  // Chrome trace_event JSON ("X" complete events, microseconds; one
  // thread row per run).
  bool WriteChromeJson(const std::string& path) const;

 private:
  int Open(std::string name);
  void Close(int index);

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
