// perfbench_driver: runs one benchmark workload for a fixed host time and
// prints one JSON report line (see perfbench/run.py, which builds this
// binary, checks the report against the pinned fingerprints and prints the
// benchmark's result line).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--size full|small] [--reps N] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics: reps of the workload, each on
// freshly built nodes, until S host seconds have passed (at least three).
// --trace 1 alternates untraced and traced reps for S seconds, then runs
// the replay loops on the last traced rep's state, and reports the
// per-layer metrics. --reps N runs exactly N reps instead (self-test).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "driver/replay.h"
#include "driver/spans.h"
#include "driver/workloads.h"

namespace perfbench {
namespace {

struct Args {
  Spec spec;
  std::string workload;
  double seconds = 10;
  bool trace = false;
  int reps = 0;  // 0: run for `seconds`.
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_driver: %s needs a value\n", key.c_str());
      return false;
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->spec.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--reps") {
      a->reps = std::atoi(val.c_str());
    } else if (key == "--spans") {
      a->spans = val;
    } else if (key == "--size") {
      if (val == "small") {
        a->spec.compile_units = 800;
        a->spec.disk_requests = 100;
        a->spec.migrate_ws_pages = 16;
      } else if (val != "full") {
        std::fprintf(stderr, "perfbench_driver: unknown size %s\n", val.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench_driver: bad number for %s\n", key.c_str());
      return false;
    }
  }
  if (!ParseWorkload(a->workload, &a->spec.kind)) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n", a->workload.c_str());
    return false;
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string JsonFingerprint(const Fingerprint& fp) {
  std::string out = "{";
  for (const auto& [k, v] : fp) {
    out += (out.size() > 1 ? "," : "") + JsonString(k) + ":" + std::to_string(v);
  }
  return out + "}";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Everything the report accumulates over the reps of one run.
struct Tally {
  int reps = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  bool have_reference = false;
  Fingerprint reference;  // First untraced rep: later reps must match it.
  std::uint64_t trace_digest = 0;  // First traced rep: later ones must match it.
  std::uint64_t snapshot_bytes = 0;

  // The reference plus the snapshot size, as pinned.
  Fingerprint Pinned() const {
    Fingerprint fp = reference;
    if (snapshot_bytes != 0) {
      fp["snapshot_bytes"] = snapshot_bytes;
    }
    return fp;
  }

  void Add(const RepResult& r) {
    ++reps;
    attempted += 1 + r.attempted;
    failed += r.failed;
    for (const std::string& e : r.op_errors) {
      Note(e);
    }
    Fingerprint fp = r.fp;
    bool run_failed = !r.errors.empty();
    // Traced reps are compared with each other on the trace digest, and
    // with the untraced reference on everything else.
    if (const auto it = fp.find("trace_digest"); it != fp.end()) {
      if (trace_digest == 0) {
        trace_digest = it->second;
      } else if (it->second != trace_digest) {
        run_failed = true;
        Note("a traced rerun in the same process changed the trace digest");
      }
      fp.erase(it);
    }
    for (const std::string& e : r.errors) {
      Note(e);
    }
    // Not every rep takes a snapshot; those that do must agree on its size.
    if (r.snapshot_bytes != 0) {
      if (snapshot_bytes == 0) {
        snapshot_bytes = r.snapshot_bytes;
      } else if (r.snapshot_bytes != snapshot_bytes) {
        run_failed = true;
        Note("a rerun in the same process changed the snapshot size");
      }
    }
    fp.erase("snapshot_bytes");
    if (!have_reference) {
      reference = fp;
      have_reference = true;
    } else if (fp != reference) {
      run_failed = true;
      Note(r.trace_rows.empty() ? "a rerun in the same process changed the fingerprint"
                                : "the traced fingerprint differs from the untraced one");
    }
    failed += run_failed ? 1 : 0;
  }
  void Note(const std::string& e) {
    if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
      errors.push_back(e);
    }
  }
};

void PrintReport(const Args& a, const Tally& t, const Fingerprint* traced,
                 const std::vector<Metric>& metrics, const std::string& detail) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"reps\":%d,"
              "\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
              JsonString(a.workload).c_str(),
              static_cast<unsigned long long>(a.spec.seed), a.trace ? 1 : 0, t.reps,
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < t.errors.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", JsonString(t.errors[i]).c_str());
  }
  std::printf("],\"fingerprint\":%s,\"traced_fingerprint\":%s,\"metrics\":{",
              JsonFingerprint(t.Pinned()).c_str(),
              traced == nullptr ? "null" : JsonFingerprint(*traced).c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s:{\"value\":%s,\"unit\":%s}", i == 0 ? "" : ",",
                JsonString(metrics[i].name).c_str(), JsonNumber(metrics[i].value).c_str(),
                JsonString(metrics[i].unit).c_str());
  }
  std::printf("},\"detail\":{%s}}\n", detail.c_str());
  std::fflush(stdout);
}

std::string DetailTiming(const char* name, const std::vector<double>& v, double scale) {
  std::vector<double> s(v);
  for (double& x : s) {
    x *= scale;
  }
  return JsonString(name) + ":{\"median\":" + JsonNumber(Median(s)) +
         ",\"p90\":" + JsonNumber(Percentile(s, 0.9)) +
         ",\"samples\":" + std::to_string(s.size()) + "}";
}

int RunEndToEnd(const Args& a, SpanLog& log) {
  Tally t;
  std::vector<double> host, mips, setup, pause;
  double sim_s = 0;
  // Read after the first rep: every rep does the same work, and the
  // process footprint keeps growing with the number of nodes built and
  // destroyed, which would tie the figure to the host's speed.
  double peak_rss_mb = 0;
  const std::int64_t stop_ns = log.Now() + static_cast<std::int64_t>(a.seconds * 1e9);
  while (a.reps > 0 ? t.reps < a.reps : (t.reps < 3 || log.Now() < stop_ns)) {
    log.set_run(t.reps);
    RepResult r;
    {
      SpanLog::Scope s(log, "rep");
      // A checkpoint costs about as much host time as a compile run, so
      // every second rep takes one.
      r = RunRep(a.spec, false, t.reps % 2 == 0, log);
    }
    host.push_back(r.host_s);
    mips.push_back(static_cast<double>(r.guest_insns) / r.host_s * 1e-6);
    setup.push_back(r.setup_s);
    pause.insert(pause.end(), r.pause_s.begin(), r.pause_s.end());
    sim_s = static_cast<double>(r.fp["sim_ps"]) * 1e-12;
    t.Add(r);
    if (t.reps == 1) {
      peak_rss_mb = PeakRssMb();
    }
  }
  const std::vector<Metric> metrics = {
      {"host_s", Median(host), "s"},
      {"sim_mips", Median(mips), "Minsn/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"pause_ms", Median(pause) * 1e3, "ms"},
  };
  const std::string detail =
      DetailTiming("host_s", host, 1) + "," + DetailTiming("setup_s", setup, 1) + "," +
      DetailTiming("pause_ms", pause, 1e3) + ",\"sim_s\":" + JsonNumber(sim_s) +
      ",\"fail_ratio\":" +
      JsonNumber(static_cast<double>(t.failed) / static_cast<double>(t.attempted));
  PrintReport(a, t, nullptr, metrics, detail);
  return 0;
}

std::uint64_t Get(const Fingerprint& fp, const char* key) {
  const auto it = fp.find(key);
  return it == fp.end() ? 0 : it->second;
}

// Per-run sum of one span name's self time, for the runs that have it.
std::vector<double> PerRunSelf(const SpanLog& log, const std::string& name) {
  std::map<int, double> by_run;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.name == name) {
      by_run[s.run] += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
    }
  }
  std::vector<double> out;
  for (const auto& [run, v] : by_run) {
    out.push_back(v);
  }
  return out;
}

int RunPerLayer(const Args& a, SpanLog& log) {
  Tally t;
  std::vector<double> untraced_host, traced_host, ept_host;
  RepResult last;
  Spec ept = a.spec;
  ept.kind = WorkloadKind::kCompileEpt;
  const bool vtlb = a.spec.kind == WorkloadKind::kCompileVtlb;
  const std::int64_t stop_ns = log.Now() + static_cast<std::int64_t>(a.seconds * 1e9);
  int cycles = 0;
  while (a.reps > 0 ? t.reps < a.reps : (cycles < 1 || log.Now() < stop_ns)) {
    ++cycles;
    for (const bool traced : {false, true}) {
      log.set_run(t.reps);
      RepResult r;
      {
        SpanLog::Scope s(log, traced ? "rep.traced" : "rep");
        r = RunRep(a.spec, traced, true, log);
      }
      (traced ? traced_host : untraced_host).push_back(r.host_s);
      t.Add(r);
      if (traced) {
        last = std::move(r);
      }
    }
    if (vtlb) {
      // The same guest under nested paging, for the per-fill host cost.
      log.set_run(t.reps + 1000);
      SpanLog::Scope s(log, "rep.compile_ept");
      const RepResult e = RunRep(ept, false, false, log);
      ept_host.push_back(e.host_s);
      t.attempted += 1 + e.attempted;
      t.failed += e.failed + (e.errors.empty() ? 0 : 1);
      for (const std::string& err : e.errors) {
        t.Note("compile_ept: " + err);
      }
    }
  }
  log.set_run(-1);
  const std::map<std::string, double> replay = RunReplays(last.replay, log);
  const auto rp = [&replay](const char* k) {
    const auto it = replay.find(k);
    return it == replay.end() ? 0.0 : it->second;
  };
  const Fingerprint& fp = last.fp;
  const auto c = [&fp](const char* k) { return static_cast<double>(Get(fp, k)); };
  const auto sim_ms = [&last](const char* row) {
    const auto it = last.trace_rows.find(row);
    return it == last.trace_rows.end() ? 0.0 : static_cast<double>(it->second.total_ps) * 1e-9;
  };
  const double hits = c("tlb_hits");
  const double misses = c("tlb_misses");
  double exits = 0;
  for (const auto& [k, v] : fp) {
    if (k.rfind("ev.", 0) == 0 && k != "ev.vtlb_flush") {
      exits += static_cast<double>(v);
    }
  }
  const double fills = c("ev.vtlb_fill");
  const double mib = static_cast<double>(last.snapshot_bytes) / (1024.0 * 1024.0);
  const double untraced = Median(untraced_host);
  const std::vector<Metric> metrics = {
      {"hw.engine.insns", static_cast<double>(last.guest_insns), "count"},
      {"hw.engine.ns_per_insn", rp("hw.engine.ns_per_insn"), "ns"},
      {"hw.mem.read_ns", rp("hw.mem.read_ns"), "ns"},
      {"hw.mem.write_ns", rp("hw.mem.write_ns"), "ns"},
      {"hw.mem.resident_frames", c("resident_frames"), "count"},
      {"hw.tlb.hits", hits, "count"},
      {"hw.tlb.misses", misses, "count"},
      {"hw.tlb.hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses), "ratio"},
      {"hw.tlb.lookup_hit_ns", rp("hw.tlb.lookup_hit_ns"), "ns"},
      {"hw.tlb.lookup_miss_ns", rp("hw.tlb.lookup_miss_ns"), "ns"},
      {"hw.tlb.insert_full_ns", rp("hw.tlb.insert_full_ns"), "ns"},
      {"hw.paging.walk_ns", rp("hw.paging.walk_ns"), "ns"},
      {"hv.exits", exits, "count"},
      {"hv.exit.mmio", c("ev.mmio"), "count"},
      {"hv.exit.pio", c("ev.pio"), "count"},
      {"hv.exit.cr", c("ev.cr"), "count"},
      {"hv.exit.invlpg", c("ev.invlpg"), "count"},
      {"hv.exit.guest_pf", c("ev.guest_pf"), "count"},
      {"hv.exit.hw_intr", c("ev.hw_intr"), "count"},
      {"hv.exit.recall", c("ev.recall"), "count"},
      {"hv.vtlb.fills", fills, "count"},
      {"hv.vtlb.flushes", c("ev.vtlb_flush"), "count"},
      {"hv.vtlb.resolve_sim_ms", sim_ms("exit:page-fault"), "ms"},
      {"hv.vtlb.host_ns_per_fill",
       vtlb && fills > 0 ? (untraced - Median(ept_host)) * 1e9 / fills : 0, "ns"},
      {"hv.ipc.calls", c("ipc_calls"), "count"},
      {"hv.ipc.call_ns", rp("hv.ipc.call_ns"), "ns"},
      {"hv.dirty_log.faults", c("dirty_log_faults"), "count"},
      {"hv.save_ms", Median(log.SelfSeconds("hv.save")) * 1e3, "ms"},
      {"hv.load_ms", Median(log.SelfSeconds("hv.load")) * 1e3, "ms"},
      {"sim.events.op_ns", rp("sim.events.op_ns"), "ns"},
      {"sim.snapshot.bytes", static_cast<double>(last.snapshot_bytes), "bytes"},
      {"sim.snapshot.encode_ms_per_mib",
       mib == 0 ? 0 : Median(log.SelfSeconds("sim.snapshot.encode")) * 1e3 / mib, "ms/MiB"},
      {"sim.snapshot.decode_ms_per_mib",
       mib == 0 ? 0 : Median(log.SelfSeconds("sim.snapshot.decode")) * 1e3 / mib, "ms/MiB"},
      {"sim.trace.overhead_pct", (Median(traced_host) / untraced - 1.0) * 100.0, "%"},
      {"vmm.exits_handled", c("vmm_exits"), "count"},
      {"vmm.irq_injected", c("virq_injected"), "count"},
      {"vmm.mmio_sim_ms", sim_ms("exit:ept-violation"), "ms"},
      {"services.disk.completed", c("disk_completed"), "count"},
      {"services.disk.retried", c("disk_retried"), "count"},
      {"services.disk.failed", c("disk_failed"), "count"},
      {"services.migration.rounds", c("migration_rounds"), "count"},
      {"services.migration.precopy_pages", c("precopy_pages"), "count"},
      {"services.migration.stop_copy_pages", c("stop_copy_pages"), "count"},
      {"services.migration.run_source_ms",
       Median(PerRunSelf(log, "services.migration.run_source")) * 1e3, "ms"},
  };
  std::string detail = DetailTiming("untraced_host_s", untraced_host, 1) + "," +
                       DetailTiming("traced_host_s", traced_host, 1);
  if (vtlb) {
    detail += "," + DetailTiming("compile_ept_host_s", ept_host, 1);
  }
  detail += ",\"self_s\":{";
  bool first = true;
  for (const auto& [name, secs] : log.SelfTotals()) {
    detail += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(secs);
    first = false;
  }
  detail += "}";
  Fingerprint traced_fp = last.fp;
  if (last.snapshot_bytes != 0) {
    traced_fp["snapshot_bytes"] = last.snapshot_bytes;
  }
  PrintReport(a, t, &traced_fp, metrics, detail);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every rep builds and frees nodes of the same sizes. With glibc's
  // default, adaptive thresholds a rep's nodes land sometimes in memory
  // still held by the heap and sometimes in fresh pages the kernel must
  // fault in, so set-up and pause times alternate between two levels from
  // one rep to the next. Fixed thresholds keep freed memory in the heap
  // for the next rep.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  perfbench::SpanLog log;
  const int rc = args.trace ? perfbench::RunPerLayer(args, log)
                            : perfbench::RunEndToEnd(args, log);
  if (!args.spans.empty() && !log.WriteChromeJson(args.spans)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  return rc;
}
