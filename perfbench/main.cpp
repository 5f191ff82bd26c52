// rcr_perfbench: the repository benchmark's binary.
//
//   rcr_perfbench --workload study|serve_tcp|serve_delta --seed N
//                 --seconds S --trace 0|1 [--tiny] [--data-dir DIR]
//
// Prints host/build facts and the workload's report lines, then, as the
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when a correctness gate fails, 2 on bad arguments.
// run.py builds this binary and forwards to it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "simd/dispatch.hpp"

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer").
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mib", "MiB"},
    {"latency_ms", "ms"},      {"load_latency_ms", "ms"},
    {"goodput_rps", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"synth.generate_ms", "ms"},
    {"data.snapshot_write_ms", "ms"},
    {"data.ingest_ms", "ms"},
    {"query.aggregates_ms", "ms"},
    {"survey.raking_ms", "ms"},
    {"core.T1_ms", "ms"},
    {"core.T2_ms", "ms"},
    {"core.T3_ms", "ms"},
    {"core.T4_ms", "ms"},
    {"core.T5_ms", "ms"},
    {"core.T6_ms", "ms"},
    {"core.T7_ms", "ms"},
    {"core.T8_ms", "ms"},
    {"core.F1_ms", "ms"},
    {"core.F2_ms", "ms"},
    {"core.F3_ms", "ms"},
    {"core.F4_ms", "ms"},
    {"core.F5_ms", "ms"},
    {"core.F6_ms", "ms"},
    {"core.F7_ms", "ms"},
    {"core.F8_ms", "ms"},
    {"core.F9_ms", "ms"},
    {"core.F10_ms", "ms"},
    {"study.unattributed_pct", "%"},
    {"query.rows", "count"},
    {"query.runs", "count"},
    {"stats.bootstrap.replicates", "count"},
    {"threadpool.tasks", "count"},
    {"snapshot.read.bytes", "bytes"},
    {"serve.hit_ratio", "ratio"},
    {"serve.batch_fill", "queries/batch"},
    {"serve.batch_p50_ms", "ms"},
    {"query.rows_per_run", "rows"},
    {"serve.shed", "count"},
    {"serve.admit_limit_final", "count"},
    {"serve.coalesced", "count"},
    {"serve.server_p50_ms", "ms"},
    {"serve.server_p99_ms", "ms"},
    {"serve.saturated_rps", "1/s"},
    {"incr.append_p50_ms", "ms"},
    {"incr.rows_per_delta", "rows"},
    {"serve.delta_refreshed", "count"},
    {"serve.delta_self_ms", "ms"},
    {"gen.late_p99_ms", "ms"},
    {"trace.latency_ms", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rcr_perfbench: %s\nusage: rcr_perfbench --workload "
               "study|serve_tcp|serve_delta --seed N --seconds S --trace 0|1 "
               "[--tiny] [--data-dir DIR]\n",
               why);
  return 2;
}

// Host and build facts recorded with every result (one line each).
std::vector<std::string> host_lines() {
  return {
      "host.nproc: " + std::to_string(perfbench::hardware_threads()),
      std::string("build.compiler: ") + RCR_BENCH_COMPILER,
      std::string("build.type: ") + RCR_BENCH_BUILD_TYPE,
      std::string("build.flags: ") + RCR_BENCH_CXX_FLAGS,
      "simd: " + rcr::simd::describe(),
  };
}

// Busy and stolen CPU ticks from /proc/stat's aggregate line. Steal is
// time the hypervisor ran other guests while this one wanted a CPU; on a
// shared host it is the first suspect when figures move between runs.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTicks cpu_ticks() {
  CpuTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      const char* text = argv[++i];
      char* end = nullptr;
      opt.seed = std::strtoull(text, &end, 10);
      if (text[0] < '0' || text[0] > '9' || *end != '\0')
        return usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 3600.0)
        return usage("--seconds takes a number in (0, 3600]");
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--data-dir") {
      opt.data_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  const CpuTicks ticks0 = cpu_ticks();
  perfbench::Result r;
  try {
    if (opt.workload == "study") {
      r = perfbench::run_study(opt);
    } else if (opt.workload == "serve_tcp") {
      r = perfbench::run_serve_tcp(opt);
    } else if (opt.workload == "serve_delta") {
      r = perfbench::run_serve_delta(opt);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcr_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  // The process peak, unless the workload measured its own.
  if (r.e2e.count("peak_rss_mib") == 0)
    r.e2e["peak_rss_mib"] = perfbench::peak_rss_mib();
  const CpuTicks ticks1 = cpu_ticks();
  const double steal_pct =
      ticks1.total > ticks0.total
          ? 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                static_cast<double>(ticks1.total - ticks0.total)
          : 0.0;

  for (const auto& line : host_lines())
    std::printf("# %s\n", line.c_str());
  std::printf("# host.steal_pct: %.2f (CPU time given to other guests "
              "during this run)\n",
              steal_pct);
  std::printf("# workload: %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
  for (const auto& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const Metric& m : kEndToEnd) {
    const auto it = r.e2e.find(m.name);
    if (it == r.e2e.end() || !std::isfinite(it->second) || it->second <= 0.0)
      r.fail(std::string("end-to-end metric missing or not positive: ") +
             m.name);
    else
      std::printf("# e2e %-14s %16.6f %s\n", m.name, it->second, m.unit);
  }
  if (opt.trace)
    for (const Metric& m : kPerLayer)
      std::printf("# layer %-28s %16.6f %s\n", m.name, r.layer[m.name],
                  m.unit);
  for (const auto& line : r.notes)
    if (line.rfind("GATE FAILED", 0) == 0)
      std::fprintf(stderr, "rcr_perfbench: %s\n", line.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Metric& m, double v) {
    if (!std::isfinite(v)) v = 0.0;
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const Metric& m : kPerLayer) emit(m, r.layer[m.name]);
  } else {
    for (const Metric& m : kEndToEnd) emit(m, r.e2e[m.name]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct && r.attempted > 0 ? 0 : 1;
}
