// perfbench program: `gen` writes a workload's seeded dataset to a file;
// `run` times one workload from load_dataset onward and prints one JSON
// object (end-to-end and per-layer metrics, attempted/failed counts, check
// failures) as its last line. perfbench/run.py builds and drives it.
//
//   dms_perfbench gen --workload W --seed N --out PATH
//   dms_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --data PATH [--trace-out PATH]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string metrics_json(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: dms_perfbench gen --workload W --seed N --out PATH\n"
               "       dms_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data PATH [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::Options opt;
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(val.c_str());
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--data") opt.data_path = val;
    else if (key == "--trace-out") opt.trace_path = val;
    else if (key == "--out") out_path = val;
    else return usage();
  }
  if (!perfbench::known_workload(opt.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  try {
    if (mode == "gen") {
      if (out_path.empty()) return usage();
      perfbench::generate_dataset(opt.workload, opt.seed, out_path);
      return 0;
    }
    if (mode != "run" || opt.data_path.empty()) return usage();
    perfbench::Tracer tracer(opt.trace);
    const perfbench::RunResult r = perfbench::run_workload(opt, tracer);
    if (opt.trace && !opt.trace_path.empty() &&
        !tracer.write_chrome(opt.trace_path, opt.workload)) {
      std::fprintf(stderr, "cannot write trace %s\n", opt.trace_path.c_str());
      return 1;
    }
    std::string failures = "[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      failures += (i == 0 ? "\"" : ", \"") + json_escape(r.failures[i]) + "\"";
    }
    failures += "]";
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"end_to_end\": %s, \"per_layer\": %s, \"failures\": %s}\n",
                r.failures.empty() ? "true" : "false", r.attempted, r.failed,
                DMS_PERFBENCH_BUILD_TYPE, DMS_PERFBENCH_COMPILER,
                metrics_json(r.end_to_end).c_str(), metrics_json(r.per_layer).c_str(),
                failures.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dms_perfbench: %s\n", e.what());
    return 1;
  }
}
