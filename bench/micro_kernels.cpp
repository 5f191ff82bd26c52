// Microbenchmarks of the computational-science kernels (serial vs pooled)
// and of the two substrate generators (synthetic respondents, job streams).
#include <benchmark/benchmark.h>

#include "kernels/matmul.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/reduction.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "synth/generator.hpp"

namespace {

rcr::parallel::ThreadPool& pool() {
  static rcr::parallel::ThreadPool p;
  return p;
}

void BM_StencilSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rcr::kernels::HeatGrid g(n, n);
  for (auto _ : state) g.step_serial(0.2);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_StencilSerial)->Arg(128)->Arg(512);

void BM_StencilParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rcr::kernels::HeatGrid g(n, n);
  for (auto _ : state) g.step_parallel(pool(), 0.2);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_StencilParallel)->Arg(128)->Arg(512);

void BM_MatmulSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = rcr::kernels::random_matrix(n, 1);
  const auto b = rcr::kernels::random_matrix(n, 2);
  rcr::kernels::Dense c(n * n);
  for (auto _ : state) {
    rcr::kernels::matmul_serial(a, b, c, n);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulSerial)->Arg(64)->Arg(128);

void BM_Spmv(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto a = rcr::kernels::random_csr(rows, rows, 12, 5);
  std::vector<double> x(rows, 1.0), y;
  for (auto _ : state) {
    rcr::kernels::spmv_serial(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_Spmv)->Arg(10000)->Arg(100000);

void BM_McPi(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::kernels::mc_pi_serial(samples, 11));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_McPi)->Arg(100000)->Arg(1000000);

void BM_GenerateWave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rcr::synth::generate_wave({rcr::synth::Wave::k2024, n, 7, nullptr}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GenerateWave)->Arg(100)->Arg(1000);

void BM_ClusterSim(benchmark::State& state) {
  rcr::sim::JobStreamConfig cfg;
  cfg.jobs = static_cast<std::size_t>(state.range(0));
  cfg.arrival_rate_per_hour = 40.0;
  for (auto _ : state) {
    auto jobs = rcr::sim::generate_job_stream(cfg);
    benchmark::DoNotOptimize(rcr::sim::simulate_cluster(
        jobs, 512, rcr::sim::SchedulerPolicy::kEasyBackfill));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClusterSim)->Arg(500)->Arg(2000);

void BM_GeneratePanel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::synth::generate_panel(n, 7));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GeneratePanel)->Arg(100)->Arg(500);

void BM_Reduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::kernels::reduce_stream_serial(n, 3));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Reduction)->Arg(100000)->Arg(1000000);

}  // namespace

BENCHMARK_MAIN();
