// main.cpp — benchmark driver entry point.
//
//   bench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--smoke] [--trace-out <path>]
//
// Runs one workload through the simulator's public APIs and prints one
// JSON line: the correctness verdict, op accounting, every metric with
// its unit and per-trial values, and the host it ran on.  Exit code 0
// only when every correctness gate held.  benchmark/run.py wraps this.
#include <sched.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common.hpp"

#ifndef BENCH_CXX_FLAGS
#define BENCH_CXX_FLAGS "unknown"
#endif
#ifndef BENCH_CXX_COMPILER
#define BENCH_CXX_COMPILER "unknown"
#endif

namespace bench {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
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
  return out + '"';
}

/// CPUs this process may run on (the affinity mask, not the machine).
int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

std::string Report::json(const std::string& head) const {
  std::string out = "{" + head;
  out += ",\"correct\":" + std::string(correct_ ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"gate_failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? "," : "") + quoted(failures_[i]);
  }
  out += "],\"config\":{";
  bool first = true;
  for (const auto& [k, v] : config_) {
    out += (first ? "" : ",") + quoted(k) + ":" + num(v);
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ",") + quoted(name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + quoted(m.unit) + ",\"trials\":[";
    for (std::size_t i = 0; i < m.trials.size(); ++i) {
      out += (i ? "," : "") + num(m.trials[i]);
    }
    out += "]}";
    first = false;
  }
  return out + "}}";
}

double Lane::total_ns(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.end != 0 && name == s.name) sum += static_cast<double>(s.end - s.start);
  }
  return sum;
}

std::vector<double> Lane::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return false;
  }
  std::uint64_t origin = ~0ULL;
  for (const Lane& lane : lanes_) {
    for (const auto& s : lane.spans()) origin = std::min(origin, s.start);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Lane& lane : lanes_) {
    for (std::size_t i = 0; i < lane.spans().size(); ++i) {
      const auto& s = lane.spans()[i];
      if (s.end == 0) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"op\":%llu}}",
                   first ? "" : ",\n", s.name, lane.tid(),
                   static_cast<double>(s.start - origin) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, i,
                   s.parent == Lane::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace bench

int main(int argc, char** argv) {
  bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      opt.trace_path = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  const int cpus = bench::allowed_cpus();
  opt.workers = std::clamp(cpus - 1, 1, 4);
  if (opt.smoke) opt.sessions = 1;

  bench::Report report;
  bench::Tracer tracer;
  if (opt.workload == "fabric_permutation") {
    bench::run_fabric(opt, /*rma=*/false, report, tracer);
  } else if (opt.workload == "fabric_rma_jitter") {
    bench::run_fabric(opt, /*rma=*/true, report, tracer);
  } else if (opt.workload == "osu_paper") {
    bench::run_osu(opt, report, tracer);
  } else if (opt.workload == "admission_spike") {
    bench::run_admission(opt, report, tracer);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  if (opt.trace && !opt.trace_path.empty()) {
    report.gate(tracer.write(opt.trace_path), "trace written");
  }

  const std::string head =
      "\"workload\":" + bench::quoted(opt.workload) +
      ",\"seed\":" + std::to_string(opt.seed) +
      ",\"trace\":" + std::string(opt.trace ? "1" : "0") +
      ",\"smoke\":" + std::string(opt.smoke ? "true" : "false") +
      ",\"seconds\":" + bench::num(opt.seconds) +
      ",\"host\":{\"nproc\":" + std::to_string(cpus) +
      ",\"hardware_concurrency\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"engine_workers\":" + std::to_string(opt.workers) +
      ",\"compiler\":" + bench::quoted(BENCH_CXX_COMPILER) +
      ",\"flags\":" + bench::quoted(BENCH_CXX_FLAGS) + "}";
  std::printf("%s\n", report.json(head).c_str());
  return report.correct() ? 0 : 1;
}
