#include "driver/spans.h"

#include <cstdio>

namespace perfbench {

int SpanLog::Open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = Now();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  Span& s = spans_[index];
  s.end_ns = Now();
  open_.pop_back();
  if (s.parent >= 0) {
    spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  }
}

std::vector<double> SpanLog::SelfSeconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfTotals() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
  }
  return out;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* layer_end = s.name.c_str();
    while (*layer_end != '\0' && *layer_end != '.') {
      ++layer_end;
    }
    const std::string cat(s.name.c_str(), layer_end);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%d,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), cat.c_str(), s.run,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                 s.run, static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
