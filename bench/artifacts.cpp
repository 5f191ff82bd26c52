// bench_artifacts: regenerates the reconstructed evaluation (DESIGN.md's
// experiment index). Builds the study once and prints every artifact in
// registry order (T1–T8, F1–F10, then the ablations A1 and A2), or one:
//   --only ID        print only artifact ID (unknown ids exit 1)
//   --n2011 N        respondents in the 2011 wave   (default 120)
//   --n2024 N        respondents in the 2024 wave   (default 650)
//   --seed  S        master seed                     (default 7)
//   --threads N      run the study on an N-thread pool (0 = serial unless
//                    a metrics flag is given, then the shared default pool)
//   --metrics        append an aligned rcr::obs metrics table to the output
//   --metrics-json   append the metrics snapshot as a JSON object
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "core/rcr.hpp"
#include "simd/dispatch.hpp"

int main(int argc, char** argv) try {
  using namespace rcr;
  CliParser cli(argc, argv);
  core::StudyConfig config;
  config.n_2011 = static_cast<std::size_t>(cli.get_int_or("n2011", 120));
  config.n_2024 = static_cast<std::size_t>(cli.get_int_or("n2024", 650));
  config.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 7));
  const auto threads = cli.get_int_or("threads", 0);
  const std::string only = cli.get_or("only", "");
  const bool metrics_json = cli.has_switch("metrics-json");
  const bool metrics_text = cli.has_switch("metrics");
  cli.finish();

  // Metrics runs default to the shared pool so the snapshot carries
  // thread-pool and resampling activity; results are identical either
  // way (everything downstream is deterministic under the seed).
  std::unique_ptr<parallel::ThreadPool> owned_pool;
  if (threads > 0) {
    owned_pool =
        std::make_unique<parallel::ThreadPool>(static_cast<std::size_t>(threads));
    config.pool = owned_pool.get();
  } else if (metrics_json || metrics_text) {
    config.pool = &parallel::default_pool();
  }

  // Reproducibility echo: the resolved seed, thread count and dispatched
  // SIMD ISA, on stderr so piped/table output stays clean. The same
  // dispatch facts ride along in the metrics snapshot (simd.lanes /
  // simd.isa gauges), so every --metrics-json payload records them.
  const std::size_t resolved_threads =
      config.pool != nullptr ? config.pool->thread_count() : 1;
  const simd::Isa isa = simd::active_isa();
  obs::registry().gauge("simd.lanes").set(
      static_cast<std::int64_t>(simd::isa_lanes(isa)));
  obs::registry().gauge("simd.isa").set(static_cast<std::int64_t>(isa));
  std::cerr << "bench_artifacts: seed=" << config.seed
            << " threads=" << resolved_threads
            << " simd=" << simd::describe() << "\n";

  const core::Study study(config);
  report::ExperimentRegistry registry;
  core::register_all_experiments(registry, study);
  registry.add({"A1", "ablation", "scaling-model terms vs the DES",
                core::run_a1_model_ablation});
  registry.add({"A2", "ablation", "BSP step time vs ranks across networks",
                core::run_a2_comm_model});
  if (!only.empty()) {
    std::cout << registry.run(only);
  } else {
    const char* separator = "";
    for (const auto& e : registry.all()) {
      std::cout << separator << registry.run(e.id);
      separator = "\n";
    }
  }
  if (metrics_text) {
    std::cout << "\n== metrics ==\n" << obs::snapshot().to_table();
  }
  if (metrics_json) {
    std::cout << "\n" << obs::snapshot().to_json() << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
