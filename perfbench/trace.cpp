#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Event e;
  e.name = name;
  e.parent = tracer_->open_.empty() ? -1 : static_cast<long>(tracer_->open_.back());
  e.start_us = tracer_->now_us();
  index_ = tracer_->events_.size();
  tracer_->events_.push_back(std::move(e));
  tracer_->open_.push_back(index_);
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  Event& e = tracer_->events_[index_];
  e.dur_us = tracer_->now_us() - e.start_us;
  // Spans close in LIFO order (they are scoped), so this one is on top.
  tracer_->open_.pop_back();
  tracer_ = nullptr;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Event& e : events_) {
    if (e.name == name && e.dur_us >= 0.0) out.push_back(e.dur_us * 1e-6);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%s\"},"
               "\"traceEvents\":[\n", workload.c_str());
  bool first = true;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.dur_us < 0.0) continue;
    const char* parent = e.parent < 0 ? "" : events_[static_cast<std::size_t>(e.parent)].name.c_str();
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%ld,"
                 "\"parent_name\":\"%s\"}}",
                 first ? "" : ",\n", e.name.c_str(), e.start_us, e.dur_us, i,
                 e.parent, parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
