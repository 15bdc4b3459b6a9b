// Tracer unit tests: interning, digest determinism, ring wraparound with
// digest coverage of evicted records, nested-span attribution through the
// TraceReport sink, disabled-mode no-ops and the Chrome JSON exporter.
// Spans are emitted through ScopedSpan (the only way to emit them),
// stamped by a hand-set clock.
#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

namespace nova::sim {
namespace {

// FNV-1a 64 offset basis: the digest of an empty stream.
constexpr std::uint64_t kEmptyDigest = 1469598103934665603ull;

TEST(TracerTest, InterningIsIdempotentAndDense) {
  Tracer t;
  const std::uint16_t a = t.Intern("alpha");
  const std::uint16_t b = t.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_EQ(t.Name(a), "alpha");
  EXPECT_EQ(t.Name(b), "beta");
  // Id 0 is reserved so "no name" is representable.
  EXPECT_NE(a, 0);
  EXPECT_NE(b, 0);
}

TEST(TracerTest, DisabledEmitsNothingAndKeepsDigestEmpty) {
  Tracer t;
  const std::uint16_t n = t.Intern("ev");
  ASSERT_FALSE(t.enabled());
  t.InstantAt(100, TraceCat::kVmExit, n, 0, 1, 2);
  PicoSeconds now = 200;
  {
    ScopedSpan span(&t, TraceCat::kIpc, n, 0, [&now] { return now; });
    now = 300;
  }
  EXPECT_EQ(t.total_records(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.digest(), kEmptyDigest);
}

TEST(TracerTest, DigestIsDeterministicAndOrderSensitive) {
  auto emit = [](Tracer& t, bool swapped) {
    const std::uint16_t a = t.Intern("a");
    const std::uint16_t b = t.Intern("b");
    t.set_enabled(true);
    if (swapped) {
      t.InstantAt(10, TraceCat::kIrq, b, 1, 7);
      t.InstantAt(10, TraceCat::kIrq, a, 1, 7);
    } else {
      t.InstantAt(10, TraceCat::kIrq, a, 1, 7);
      t.InstantAt(10, TraceCat::kIrq, b, 1, 7);
    }
  };
  Tracer t1, t2, t3;
  emit(t1, false);
  emit(t2, false);
  emit(t3, true);
  EXPECT_EQ(t1.digest(), t2.digest());
  EXPECT_NE(t1.digest(), t3.digest());
  EXPECT_NE(t1.digest(), kEmptyDigest);

  // Every record field participates: a changed arg changes the digest.
  Tracer t4;
  const std::uint16_t a = t4.Intern("a");
  t4.Intern("b");
  t4.set_enabled(true);
  t4.InstantAt(10, TraceCat::kIrq, a, 1, 8);
  EXPECT_NE(t4.digest(), t1.digest());
}

TEST(TracerTest, RingWrapsButDigestCoversEvictedRecords) {
  Tracer t(nullptr, /*capacity=*/4);
  const std::uint16_t n = t.Intern("tick");
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n, 0, i);
  }
  EXPECT_EQ(t.total_records(), 10u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // Retained window is the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.at(i).arg0, 6u + i);
  }

  // A tracer that saw only the retained four records digests differently:
  // the digest covers the evicted six as well.
  Tracer tail(nullptr, 4);
  const std::uint16_t n2 = tail.Intern("tick");
  tail.set_enabled(true);
  for (std::uint64_t i = 6; i < 10; ++i) {
    tail.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n2, 0, i);
  }
  EXPECT_NE(t.digest(), tail.digest());

  // And a same-capacity tracer fed the identical full stream agrees.
  Tracer full(nullptr, 4);
  const std::uint16_t n3 = full.Intern("tick");
  full.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    full.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n3, 0, i);
  }
  EXPECT_EQ(t.digest(), full.digest());
}

TEST(TracerTest, SinkPlusRetainedWindowCoverTheFullRunExactlyOnce) {
  Tracer t(nullptr, /*capacity=*/4);
  TraceReport report;
  t.set_sink(&report);
  const std::uint16_t n = t.Intern("tick");
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n, 0, i);
  }
  // Six records were evicted into the sink; folding the retained window
  // once accounts for the other four.
  EXPECT_EQ(report.Count(n), 6u);
  report.FoldRemaining(t);
  EXPECT_EQ(report.Count(n), 10u);
}

TEST(TraceReportTest, NestedSpansChargeInclusiveTimePerName) {
  Tracer t;
  TraceReport report;
  const std::uint16_t outer = t.Intern("outer");
  const std::uint16_t inner = t.Intern("inner");
  t.set_enabled(true);
  PicoSeconds now = 0;
  auto clock = [&now] { return now; };
  {
    ScopedSpan outer_span(&t, TraceCat::kVmExit, outer, 0, clock);
    now = 10;
    {
      ScopedSpan inner_span(&t, TraceCat::kIpc, inner, 0, clock);
      now = 20;
    }
    now = 30;
  }
  report.FoldRemaining(t);
  EXPECT_EQ(report.Count(outer), 1u);
  EXPECT_EQ(report.Count(inner), 1u);
  EXPECT_EQ(report.TotalPs(outer), 30);
  EXPECT_EQ(report.TotalPs(inner), 10);
}

TEST(TraceReportTest, SpansPairPerTid) {
  // Concurrent spans on different tids must not steal each other's Begin.
  Tracer t;
  TraceReport report;
  const std::uint16_t a = t.Intern("cpu0-span");
  const std::uint16_t b = t.Intern("cpu1-span");
  t.set_enabled(true);
  PicoSeconds now = 0;
  auto clock = [&now] { return now; };
  // Interleaved across tids: `a` ends after `b` began, but records are
  // stamped with per-CPU time, so b's End carries the earlier timestamp.
  std::optional<ScopedSpan<decltype(clock)>> span_a, span_b;
  span_a.emplace(&t, TraceCat::kVmExit, a, 0, clock);
  now = 5;
  span_b.emplace(&t, TraceCat::kVmExit, b, 1, clock);
  now = 50;
  span_a.reset();
  now = 6;
  span_b.reset();
  report.FoldRemaining(t);
  EXPECT_EQ(report.TotalPs(a), 50);
  EXPECT_EQ(report.TotalPs(b), 1);
}

TEST(ScopedSpanTest, EmitsBeginEndAndSkipsClockWhenDisabled) {
  Tracer t;
  const std::uint16_t n = t.Intern("span");
  int clock_calls = 0;
  PicoSeconds now = 100;
  auto clock = [&] {
    ++clock_calls;
    return now;
  };
  {
    ScopedSpan span(&t, TraceCat::kIpc, n, 0, clock);
    now = 250;
  }
  EXPECT_EQ(clock_calls, 0) << "disabled tracer must not read the clock";
  EXPECT_EQ(t.total_records(), 0u);

  t.set_enabled(true);
  now = 100;
  {
    ScopedSpan span(&t, TraceCat::kIpc, n, 2, clock, 42);
    now = 250;
  }
  ASSERT_EQ(t.total_records(), 2u);
  EXPECT_EQ(t.at(0).type, static_cast<std::uint8_t>(TraceType::kBegin));
  EXPECT_EQ(t.at(0).ts, 100);
  EXPECT_EQ(t.at(0).arg0, 42u);
  EXPECT_EQ(t.at(0).tid, 2);
  EXPECT_EQ(t.at(1).type, static_cast<std::uint8_t>(TraceType::kEnd));
  EXPECT_EQ(t.at(1).ts, 250);
}

TEST(TracerTest, ResetClearsStreamButKeepsNames) {
  Tracer t;
  const std::uint16_t n = t.Intern("ev");
  t.set_enabled(true);
  t.InstantAt(1, TraceCat::kFault, n, 0);
  ASSERT_NE(t.digest(), kEmptyDigest);
  t.Reset();
  EXPECT_EQ(t.total_records(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.digest(), kEmptyDigest);
  EXPECT_EQ(t.Name(n), "ev");
  EXPECT_EQ(t.Intern("ev"), n);
}

TEST(TracerTest, ChromeJsonExportsRetainedWindow) {
  Tracer t;
  const std::uint16_t span = t.Intern("vmexit \"quoted\"");
  const std::uint16_t inst = t.Intern("irq");
  t.set_enabled(true);
  PicoSeconds now = 1'000'000;
  {
    ScopedSpan vmexit(&t, TraceCat::kVmExit, span, 0,
                      [&now] { return now; }, 0xdead);
    t.InstantAt(1'500'000, TraceCat::kIrq, inst, kDeviceTid, 9);
    now = 2'000'000;
  }

  const std::string path = ::testing::TempDir() + "/trace_test.json";
  ASSERT_TRUE(t.WriteChromeJsonFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body(1 << 16, '\0');
  body.resize(std::fread(body.data(), 1, body.size(), f));
  std::fclose(f);

  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(body.find("vmexit \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(body.find('\xff'), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nova::sim
