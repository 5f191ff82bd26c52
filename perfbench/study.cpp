// Workload `study`: the reproduction's own product, one study at a time.
//
// Set-up builds a reference study from the in-memory generator path, which
// synthesizes a 2011 wave and a 2024 wave, and writes each wave as a
// snapshot (repeated, median reported as setup_s). The timed window repeatedly
// constructs core::Study from the snapshots and produces every registered
// artifact (T1-T8, F1-F10). Gate: each artifact equals the reference byte
// for byte, except F5, whose timings come from the host; it is checked by
// its serial-vs-parallel checksum lines.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiments.hpp"
#include "core/study.hpp"
#include "data/snapshot.hpp"
#include "kernels/suite.hpp"
#include "parallel/thread_pool.hpp"
#include "report/experiment.hpp"

namespace perfbench {

namespace {

struct Artifacts {
  std::vector<std::string> ids;
  std::vector<std::string> bodies;
};

// Stage spans (children of `root`): aggregates, raking, then one span per
// experiment.
Artifacts run_artifacts(const rcr::core::Study& study, Tracer& tr,
                        int root) {
  Artifacts out;
  for (std::size_t w = 0; w < study.wave_count(); ++w) {
    Scope s(tr, "query.aggregates", root);
    (void)study.aggregates(w);
  }
  for (std::size_t w = 0; w < study.wave_count(); ++w) {
    Scope s(tr, "survey.raking", root);
    (void)study.weights(w);
  }
  rcr::report::ExperimentRegistry registry;
  rcr::core::register_all_experiments(registry, study);
  for (const auto& e : registry.all()) {
    Scope s(tr, "core." + e.id, root);
    out.ids.push_back(e.id);
    out.bodies.push_back(e.run());
  }
  return out;
}

// F5's gate: one "kernel <name>: ... checksum diff <d>" line per kernel
// of the standard suite, every serial-vs-parallel difference within 1e-6.
bool f5_checks(const std::string& body) {
  std::size_t kernels = 0;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("kernel ", 0) != 0) continue;
    const auto diff = line.find("checksum diff ");
    if (diff == std::string::npos) return false;
    if (!(std::strtod(line.c_str() + diff + 14, nullptr) <= 1e-6)) return false;
    ++kernels;
  }
  return kernels == rcr::kernels::standard_suite().size();
}

}  // namespace

Result run_study(const Options& opt) {
  Result r;
  Tracer tr(opt.trace);
  const std::size_t n2011 = opt.tiny ? 500 : 50000;
  const std::size_t n2024 = opt.tiny ? 2500 : 250000;
  const int setup_reps = opt.tiny ? 1 : 3;

  rcr::parallel::ThreadPool pool(hardware_threads());
  const std::filesystem::path dir =
      std::filesystem::path(opt.data_dir) / "study";
  std::filesystem::create_directories(dir);
  const std::string snap2011 = (dir / "wave2011.snap").string();
  const std::string snap2024 = (dir / "wave2024.snap").string();

  // --- set-up: synthesize and write both waves, several times ------------
  // The reference study synthesizes the waves from the generator path; the
  // snapshots written from it reload into the same study.
  rcr::core::StudyConfig ref_cfg;
  ref_cfg.n_2011 = n2011;
  ref_cfg.n_2024 = n2024;
  ref_cfg.seed = opt.seed;
  ref_cfg.pool = &pool;
  std::unique_ptr<rcr::core::Study> ref_study;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    ref_study.reset();
    const auto t0 = Clock::now();
    {
      Scope s(tr, "synth.generate");
      ref_study = std::make_unique<rcr::core::Study>(ref_cfg);
    }
    {
      Scope s(tr, "data.snapshot_write");
      rcr::data::write_snapshot(ref_study->wave(0), snap2011);
      rcr::data::write_snapshot(ref_study->wave(1), snap2024);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  // Reference artifacts from the generator-path study. Building them also
  // warms the pool, the allocator and the page cache before timing. F5's
  // body carries host timings: it is checked by its own lines, not against
  // the reference.
  Tracer off(false);
  const auto ref_t0 = Clock::now();
  const Artifacts ref = run_artifacts(*ref_study, off, -1);
  const double ref_s = ms_between(ref_t0, Clock::now()) / 1e3;
  ref_study.reset();

  // --- timed window ------------------------------------------------------
  // Sizes stay set: F9 and F10 synthesize their own samples at these sizes.
  rcr::core::StudyConfig cfg = ref_cfg;
  cfg.snapshot_2011 = snap2011;
  cfg.snapshot_2024 = snap2024;

  const std::uint64_t rows0 = counter("query.rows");
  const std::uint64_t runs0 = counter("query.runs");
  const std::uint64_t boot0 = meter_count("stats.bootstrap.replicates");
  const std::uint64_t tasks0 = counter("threadpool.tasks.worker") +
                               counter("threadpool.tasks.caller") +
                               counter("threadpool.tasks.caller_foreign");
  const std::uint64_t bytes0 = counter("snapshot.read.bytes");

  std::vector<double> study_ms;
  std::vector<int> roots;
  const auto window0 = Clock::now();
  while (study_ms.empty() ||
         ms_between(window0, Clock::now()) < opt.seconds * 1e3) {
    const auto t0 = Clock::now();
    const int root = tr.begin("study");
    std::unique_ptr<rcr::core::Study> study;
    {
      Scope s(tr, "data.ingest", root);
      study = std::make_unique<rcr::core::Study>(cfg);
    }
    const Artifacts got = run_artifacts(*study, tr, root);
    study.reset();
    tr.end(root);
    study_ms.push_back(ms_between(t0, Clock::now()));
    roots.push_back(root);

    // Gate (outside the study's own clock).
    r.attempted += got.ids.size();
    if (got.ids != ref.ids) {
      ++r.failed;
      r.fail("artifact list differs from the reference");
      continue;
    }
    for (std::size_t i = 0; i < got.ids.size(); ++i) {
      const bool ok = got.ids[i] == "F5" ? f5_checks(got.bodies[i])
                                         : got.bodies[i] == ref.bodies[i];
      if (!ok) {
        ++r.failed;
        r.fail(got.ids[i] + " differs from the reference");
      }
    }
  }
  const double studies = static_cast<double>(study_ms.size());

  const double p50 = median(study_ms);
  const double slowest = *std::max_element(study_ms.begin(), study_ms.end());
  r.e2e["setup_s"] = median(setup_s);
  r.e2e["latency_ms"] = p50;
  r.e2e["load_latency_ms"] = p50;
  r.e2e["goodput_rps"] = static_cast<double>(ref.ids.size()) / (p50 / 1e3);

  std::string each;
  for (double ms : study_ms) {
    char one[32];
    std::snprintf(one, sizeof one, " %.3f", ms / 1e3);
    each += one;
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "study: waves %zu + %zu rows, %zu studies in the window, "
                "study_s median %.4f slowest %.4f (each:%s), reference "
                "artifacts %.3f s",
                n2011, n2024, study_ms.size(), p50 / 1e3, slowest / 1e3,
                each.c_str(), ref_s);
  r.notes.push_back(buf);

  // --- per-layer (traced run) -------------------------------------------
  if (tr.on()) {
    auto per_study = [&](std::uint64_t now, std::uint64_t before) {
      return static_cast<double>(now - before) / studies;
    };
    r.layer["synth.generate_ms"] = median(tr.durations("synth.generate"));
    r.layer["data.snapshot_write_ms"] =
        median(tr.durations("data.snapshot_write"));
    r.layer["data.ingest_ms"] = median(tr.durations("data.ingest"));
    // One span per wave: report the per-study sum.
    auto per_study_ms = [&](const char* name) {
      double sum = 0.0;
      for (double ms : tr.durations(name)) sum += ms;
      return sum / studies;
    };
    r.layer["query.aggregates_ms"] = per_study_ms("query.aggregates");
    r.layer["survey.raking_ms"] = per_study_ms("survey.raking");
    r.layer["trace.latency_ms"] = p50;
    for (const std::string& id : ref.ids)
      r.layer["core." + id + "_ms"] = median(tr.durations("core." + id));
    r.layer["query.rows"] = per_study(counter("query.rows"), rows0);
    r.layer["query.runs"] = per_study(counter("query.runs"), runs0);
    r.layer["stats.bootstrap.replicates"] =
        per_study(meter_count("stats.bootstrap.replicates"), boot0);
    r.layer["threadpool.tasks"] =
        per_study(counter("threadpool.tasks.worker") +
                      counter("threadpool.tasks.caller") +
                      counter("threadpool.tasks.caller_foreign"),
                  tasks0);
    r.layer["snapshot.read.bytes"] =
        per_study(counter("snapshot.read.bytes"), bytes0);

    // Reconciliation: stage spans must cover the study span.
    double worst_gap = 0.0;
    for (int root : roots) {
      const double total = tr.spans()[static_cast<std::size_t>(root)].ms();
      worst_gap =
          std::max(worst_gap, (total - tr.children_ms(root)) / total);
    }
    r.layer["study.unattributed_pct"] = 100.0 * worst_gap;
    constexpr double kTolerance = 0.01;
    std::snprintf(buf, sizeof buf,
                  "study: stage spans cover the study span to within %.4f%% "
                  "(tolerance %.1f%%)",
                  100.0 * worst_gap, 100.0 * kTolerance);
    r.notes.push_back(buf);
    if (worst_gap > kTolerance) r.fail("study stage spans do not reconcile");
  }

  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace perfbench
