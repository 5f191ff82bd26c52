// Shared pieces of the rcr_perfbench binary: command-line options, the
// result record each workload fills, bench-side spans, and small statistics
// helpers. Nothing here reaches into the library beyond its public headers.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;            // seconds-long self-check sizes
  std::string data_dir = ".";   // scratch files (snapshots) live here
};

// What one run reports. `e2e` and `layer` are keyed by the metric names in
// BENCHMARK.json; main() checks that the workload filled every end-to-end
// metric and prints the set the --trace flag selects.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;  // human-readable report lines

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("GATE FAILED: " + why);
  }
};

// Bench-side spans around calls into a layer's public functions. Spans
// stay in memory; the workload folds them into per-layer metrics at the
// end. With tracing off, begin/end are no-ops and nothing is recorded.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    double ms() const { return ms_between(start, end); }
  };

  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  int begin(const std::string& name, int parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ms) of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.ms());
    return out;
  }

  // Summed duration of the direct children of span `parent`.
  double children_ms(int parent) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.parent == parent) sum += s.ms();
    return sum;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// A latency sample stamped with its scheduled send, in seconds from the
// start of its rate point.
struct Sample {
  double t_s = 0.0;
  double ms = 0.0;
};

// The q-quantile of each consecutive `window_s` slice of the samples. A
// slice with fewer than half the mean count (the tail end of a window that
// is not a whole number of slices) is left out.
inline std::vector<double> slice_quantiles(const std::vector<Sample>& samples,
                                           double window_s, double q) {
  std::vector<std::vector<double>> slices;
  for (const Sample& s : samples) {
    const auto i = static_cast<std::size_t>(std::max(0.0, s.t_s) / window_s);
    if (i >= slices.size()) slices.resize(i + 1);
    slices[i].push_back(s.ms);
  }
  const double mean = slices.empty() ? 0.0
                                     : static_cast<double>(samples.size()) /
                                           static_cast<double>(slices.size());
  std::vector<double> out;
  for (const auto& slice : slices)
    if (!slice.empty() && static_cast<double>(slice.size()) >= mean / 2)
      out.push_back(quantile(slice, q));
  return out;
}

// The median over slices of the per-slice q-quantile. One stall on a shared
// host moves one slice, not the reported figure; a change that moves every
// slice still shows.
inline double windowed_quantile(const std::vector<Sample>& samples,
                                double window_s, double q) {
  return median(slice_quantiles(samples, window_s, q));
}

// Process-global obs readings; the traced run takes deltas around its
// timed window.
inline std::uint64_t counter(const char* name) {
  return rcr::obs::registry().counter(name).total();
}
inline std::uint64_t meter_count(const char* name) {
  return rcr::obs::registry().meter(name).count();
}

// Peak resident set of this process, in MiB: since it started, or since the
// last reset_peak_rss().
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Starts a new peak (Linux: writing 5 to clear_refs resets VmHWM, which
// getrusage reports). Returns false where the kernel does not allow it.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Hardware threads, as the benchmark and the server's defaults see them.
inline std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// Pins the calling thread to the k-th last CPU this process may run on, so
// an open-loop reader keeps its caches instead of migrating between reads.
// Does nothing where the affinity cannot be read or set.
inline void pin_reader(std::size_t k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() <= k) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[cpus.size() - 1 - k], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

// Workloads. Each runs set-up, the timed window and its correctness gates.
Result run_study(const Options& opt);
Result run_serve_tcp(const Options& opt);
Result run_serve_delta(const Options& opt);

}  // namespace perfbench
