// google-benchmark microbenchmarks of the statistics substrate: the survey
// analysis calls these in tight loops (batteries over dozens of indicators,
// thousands of bootstrap replicates).
#include <benchmark/benchmark.h>

#include <vector>

#include "stats/bootstrap.hpp"
#include "stats/ci.hpp"
#include "stats/contingency.hpp"
#include "stats/descriptive.hpp"
#include "stats/regression.hpp"
#include "stats/special.hpp"
#include "util/rng.hpp"

namespace {

std::vector<double> random_data(std::size_t n, std::uint64_t seed) {
  rcr::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(10.0, 3.0);
  return v;
}

void BM_Mean(benchmark::State& state) {
  const auto data = random_data(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::mean(data));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Mean)->Range(64, 65536);

void BM_Quantile(benchmark::State& state) {
  const auto data = random_data(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::quantile(data, 0.95));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quantile)->Range(64, 65536);

void BM_Ranks(benchmark::State& state) {
  const auto data = random_data(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::ranks(data));
}
BENCHMARK(BM_Ranks)->Range(64, 16384);

void BM_WilsonCi(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::wilson_ci(137, 650));
}
BENCHMARK(BM_WilsonCi);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rcr::stats::normal_quantile(p));
    p += 1e-6;
    if (p >= 0.999) p = 0.001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_Chi2Independence(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  rcr::stats::Contingency t(2, k);
  rcr::Rng rng(4);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < k; ++c)
      t.at(r, c) = static_cast<double>(rng.uniform_int(5, 100));
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::chi_square_independence(t));
}
BENCHMARK(BM_Chi2Independence)->Arg(2)->Arg(8)->Arg(32);

void BM_Bootstrap(benchmark::State& state) {
  const auto data = random_data(400, 5);
  rcr::stats::BootstrapOptions opts;
  opts.replicates = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rcr::stats::bootstrap(
        data, [](std::span<const double> x) { return rcr::stats::mean(x); },
        opts));
  }
}
BENCHMARK(BM_Bootstrap)->Arg(200)->Arg(1000);

void BM_LogisticFit(benchmark::State& state) {
  rcr::Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> xs(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-2, 2);
    xs[i] = {x};
    y[i] = rng.bernoulli(rcr::stats::sigmoid(0.5 + x)) ? 1.0 : 0.0;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::logistic_fit(xs, y));
}
BENCHMARK(BM_LogisticFit)->Arg(256)->Arg(2048);

void BM_McNemar(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::mcnemar_test(12, 4));  // exact path
}
BENCHMARK(BM_McNemar);

void BM_Holm(benchmark::State& state) {
  rcr::Rng rng(9);
  std::vector<double> p(static_cast<std::size_t>(state.range(0)));
  for (double& v : p) v = rng.next_double();
  for (auto _ : state)
    benchmark::DoNotOptimize(rcr::stats::holm_adjust(p));
}
BENCHMARK(BM_Holm)->Arg(32)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
