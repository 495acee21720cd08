// common.hpp — shared pieces of the benchmark driver: options, seeded
// input generation, order statistics, the result report, and the span
// tracer that the traced run (--trace 1) uses to time the driver's own
// calls into each layer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes: every gate and the trace writer, in a few seconds.
  bool smoke = false;
  std::string trace_path;  ///< Chrome trace output (traced runs only)
  /// Workers of the traced run's multi-worker engine comparison:
  /// min(4, nproc - 1), at least 1, so the workers plus the driver thread
  /// never exceed the CPUs this process may use.
  int workers = 1;
  /// A run is split into this many sessions, each building the system
  /// afresh; setup_s is the median of their set-up times.
  int sessions = 40;
};

/// Runs `opt.sessions` sessions spread over `opt.seconds`: each calls
/// `setup()` (timed; false aborts the run), then `trial(i)` with a
/// run-wide trial index until the session's share of the time has passed,
/// then `finish()`.  A session whose share is used up runs no trial; the
/// last one runs until the run holds at least `min_trials`.  Set-ups are
/// short and the host's speed drifts within a run, so their median is only
/// steady over many set-ups spread over the whole run.  Returns the set-up
/// times in seconds.
template <typename Setup, typename Trial, typename Finish>
std::vector<double> run_sessions(const Options& opt, int min_trials,
                                 Setup setup, Trial trial, Finish finish) {
  std::vector<double> setup_s;
  const std::uint64_t start = now_ns();
  int i = 0;
  for (int s = 0; s < opt.sessions; ++s) {
    const std::uint64_t t0 = now_ns();
    if (!setup()) break;
    setup_s.push_back(seconds_since(t0));
    const double until = opt.seconds * (s + 1) / opt.sessions;
    const bool last = s + 1 == opt.sessions;
    while (seconds_since(start) < until || (last && i < min_trials)) {
      trial(i++);
    }
    finish();
  }
  return setup_s;
}

/// Seeded input generator (splitmix64): workload inputs come from the
/// --seed argument only, so one seed always yields the same inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Stateless byte pattern of NIC `nic`'s memory region at `offset`, so a
/// read's bytes can be checked without trusting the region itself.
inline std::uint8_t pattern_byte(std::uint64_t seed, std::uint32_t nic,
                                 std::uint64_t offset) {
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(nic) << 40) ^ offset;
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return static_cast<std::uint8_t>(z ^ (z >> 33));
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The wall-clock figures of a run, from per-trial values.  Other tenants
/// of a shared host only ever slow a trial down, in spells of a fraction
/// of a second to a few seconds that cover from a tenth to half of a run.
/// The median over trials moves with that share; the faster quartile
/// moves only once spells cover three quarters of the run.  So a run
/// reports the upper quartile of its per-trial rates and the lower
/// quartile of its per-trial times.
inline double run_rate(const std::vector<double>& v) { return quantile(v, 0.75); }
inline double run_time(const std::vector<double>& v) { return quantile(v, 0.25); }
inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The run's outcome: gates, op accounting, and metrics with their
/// per-trial values.  Printed by main() as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::vector<double> trials = {}) {
    metrics_[name] = {value, unit, std::move(trials)};
  }
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      failures_.push_back(what);
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    }
  }
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  void config(const std::string& key, double value) { config_[key] = value; }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::string json(const std::string& head) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::vector<double> trials;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> config_;
  std::vector<std::string> failures_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One thread's span buffer.  Spans nest (the innermost open span is the
/// parent of the next one), live in memory, and are written out once at
/// exit.  A Lane is used by exactly one thread.
class Lane {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Span {
    const char* name = "";
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
  };

  explicit Lane(std::uint32_t tid) : tid_(tid) {}

  void open(const char* name, std::uint64_t op) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        {name, now_ns(), 0, open_.empty() ? kNoParent : open_.back(), op});
    open_.push_back(idx);
  }
  void close() {
    spans_[open_.back()].end = now_ns();
    open_.pop_back();
  }
  /// Summed duration of every closed span called `name`, in ns.
  [[nodiscard]] double total_ns(const std::string& name) const;
  /// Durations of every closed span called `name`, in ns.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name) const;

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null lane (tracing off) costs one branch and no clock read.
class Scope {
 public:
  Scope(Lane* lane, const char* name, std::uint64_t op = 0) : lane_(lane) {
    if (lane_ != nullptr) lane_->open(name, op);
  }
  ~Scope() {
    if (lane_ != nullptr) lane_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Lane* lane_;
};

/// Owns the lanes of a traced run and writes them as Chrome trace-event
/// JSON (load in chrome://tracing or ui.perfetto.dev).
class Tracer {
 public:
  Lane& lane() {
    lanes_.emplace_back(static_cast<std::uint32_t>(lanes_.size() + 1));
    return lanes_.back();
  }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::deque<Lane> lanes_;  ///< deque: lane addresses stay stable
};

// -- Workloads.  Each fills `report` with every metric of its mode.
void run_fabric(const Options& opt, bool rma, Report& report, Tracer& tracer);
void run_osu(const Options& opt, Report& report, Tracer& tracer);
void run_admission(const Options& opt, Report& report, Tracer& tracer);

}  // namespace bench
