// Shared declarations of the perfbench program: run options, the span
// recorder that produces the traced run's Chrome trace, the metric/result
// records every workload fills, and the workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/dataset.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< timed-phase budget
  bool trace = false;      ///< per-layer metrics + trace file
  std::string data_path;   ///< dataset file written by the `gen` mode
  std::string trace_path;  ///< Chrome trace output (traced runs)
};

/// Records spans around the benchmark's calls into each library layer. A
/// disabled tracer records nothing and reads no clock, so untraced runs pay
/// nothing for the instrumentation.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(clock::now()) {}

  bool enabled() const { return enabled_; }

  /// RAII span: begins at construction, ends at end() or destruction.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void end();

   private:
    Tracer* tracer_;  ///< nullptr when tracing is off
    std::size_t index_ = 0;
  };

  Span span(const char* name) { return Span(enabled_ ? this : nullptr, name); }

  /// Durations (seconds) of every closed span called `name`, in order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events); false on I/O
  /// failure.
  bool write_chrome(const std::string& path, const std::string& workload) const;

 private:
  using clock = std::chrono::steady_clock;
  struct Event {
    std::string name;
    double start_us = 0.0;
    double dur_us = -1.0;  ///< < 0 while open
    long parent = -1;      ///< index of the enclosing span, -1 at top level
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_).count();
  }

  bool enabled_;
  clock::time_point origin_;
  std::vector<Event> events_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `failures` lists every check that did not hold; a run
/// is correct only when it is empty.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;
};

/// Generates the workload's dataset from `seed` (every input derives from
/// it) and writes it with save_dataset.
void generate_dataset(const std::string& workload, std::uint64_t seed,
                      const std::string& path);

bool known_workload(const std::string& workload);

/// Runs one workload; never throws for a failed check (it lands in
/// `failures`), but library exceptions propagate.
RunResult run_workload(const Options& opt, Tracer& tracer);

// --- helpers shared by workloads.cpp and checks.cpp ---------------------------

double median(std::vector<double> v);
double peak_rss_mb();

}  // namespace perfbench
