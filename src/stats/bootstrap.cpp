#include "stats/bootstrap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/philox.hpp"
#include "stats/descriptive.hpp"
#include "stats/special.hpp"
#include "util/error.hpp"

namespace rcr::stats {

namespace {

// Raw draws per block: 1024 words (8 KiB) stay L1-resident between the
// Philox fill and the pass that reduces and consumes them.
constexpr std::size_t kDrawBlock = 1024;

// Replicate b resamples from Philox substream b of the master seed —
// counter-based splitting gives every replicate an independent, order-free
// stream by construction (no per-replicate hash reseeding, no sequential
// state to fork), which is what makes the fan-out identical whether the
// replicates run serially or sharded across a pool.
//
// Lemire unbiased reduction over the substream, one block at a time: the
// raw draws for positions [0, n) fill in vectorized blocks, and the rare
// rejected lanes redraw, in lane order, from a second cursor seeked to
// position n. That consumes exactly the stream of one n-sized fill followed
// by a scalar redraw pass, with no n-sized index buffer. `consume` receives
// each block of reduced indices in order.
template <typename Consume>
void for_each_index_block(std::uint64_t master, std::size_t replicate,
                          std::size_t n, Consume&& consume) {
  simd::Philox draws(master, static_cast<std::uint64_t>(replicate));
  simd::Philox tail = draws;
  tail.seek(n);
  const std::uint64_t bound = n;
  const std::uint64_t threshold = (0 - bound) % bound;
  std::array<std::uint64_t, kDrawBlock> block{};
  for (std::size_t lo = 0; lo < n; lo += kDrawBlock) {
    const std::span<std::uint64_t> out(block.data(),
                                       std::min(kDrawBlock, n - lo));
    draws.fill_u64(out);
    for (std::uint64_t& o : out) {
      __uint128_t m = static_cast<__uint128_t>(o) * bound;
      while (static_cast<std::uint64_t>(m) < threshold)
        m = static_cast<__uint128_t>(tail.next_u64()) * bound;
      o = static_cast<std::uint64_t>(m >> 64);
    }
    consume(std::span<const std::uint64_t>(out));
  }
}

// Generic path: materialize the resample into `resample` (a per-worker
// buffer) and hand it to the arbitrary statistic.
double generic_replicate(std::span<const double> data,
                         const Statistic& statistic, std::uint64_t master,
                         std::size_t replicate, std::vector<double>& resample) {
  resample.resize(data.size());
  double* out = resample.data();
  for_each_index_block(master, replicate, data.size(),
                       [&](std::span<const std::uint64_t> idx) {
                         for (std::uint64_t i : idx) *out++ = data[i];
                       });
  return statistic(resample);
}

// One Binomial(n, p) variate, 0 < p < 1, by inverting one uniform u in
// [0, 1) for q = min(p, 1 - p), then reflecting. The search starts at 0
// when n·q < 30, else at the mode floor((n + 1)·q), with the start's pmf
// from log_choose; it walks outward, below and above in turn, each pmf from
// its neighbour's by the ratio recurrence, spending u down that fixed order
// of the support: O(sqrt(n·q)) steps, exact up to the pmfs' rounding.
std::uint64_t binomial(std::uint64_t n, double p, double u) {
  const bool reflect = p > 0.5;
  const double q = reflect ? 1.0 - p : p;
  const double nd = static_cast<double>(n);
  const double odds = q / (1.0 - q);
  std::uint64_t k =
      nd * q < 30.0 ? 0 : static_cast<std::uint64_t>((nd + 1.0) * q);
  const double kd = static_cast<double>(k);
  double f_lo = std::exp(log_choose(nd, kd) + kd * std::log(q) +
                         (nd - kd) * std::log1p(-q));
  double f_hi = f_lo;
  std::uint64_t lo = k, hi = k;
  u -= f_lo;
  // If rounding leaves u >= 0 past both ends, the start stands.
  while (u >= 0.0 && (lo > 0 || hi < n)) {
    if (lo > 0) {
      f_lo *= static_cast<double>(lo) /
              (static_cast<double>(n - lo + 1) * odds);
      --lo;
      u -= f_lo;
      if (u < 0.0) {
        k = lo;
        break;
      }
    }
    if (hi < n) {
      f_hi *= static_cast<double>(n - hi) / static_cast<double>(hi + 1) * odds;
      ++hi;
      u -= f_hi;
      if (u < 0.0) k = hi;
    }
  }
  return reflect ? n - k : k;
}

// Each column's ones over pattern counts: column c totals the counts of the
// patterns with bit c set.
std::array<std::uint64_t, kMaxProportionColumns> column_ones(
    std::span<const std::uint64_t> counts) {
  std::array<std::uint64_t, kMaxProportionColumns> ones{};
  for (std::size_t k = 0; k < counts.size(); ++k)
    for (std::size_t c = 0; c < ones.size(); ++c)
      if ((k >> c) & 1) ones[c] += counts[k];
  return ones;
}

// Replicate b of bootstrap_proportions. Resampling n rows and counting
// their patterns is one multinomial draw over `counts`, made here as
// conditional binomials over the nonzero patterns in ascending index: each
// takes Binomial(rows left, count / mass left) from one uniform of Philox
// substream b, and the last takes the rows left. Returns each column's ones
// among the drawn rows.
std::array<std::uint64_t, kMaxProportionColumns> proportions_replicate(
    std::span<const std::uint64_t> counts, std::uint64_t n,
    std::uint64_t master, std::size_t replicate) {
  simd::Philox draws(master, static_cast<std::uint64_t>(replicate));
  std::array<std::uint64_t, std::size_t{1} << kMaxProportionColumns> drawn{};
  std::uint64_t rows_left = n, mass_left = n;
  for (std::size_t k = 0; k < counts.size() && rows_left > 0; ++k) {
    if (counts[k] == 0) continue;
    drawn[k] = counts[k] == mass_left
                   ? rows_left
                   : binomial(rows_left,
                              static_cast<double>(counts[k]) /
                                  static_cast<double>(mass_left),
                              draws.next_double());
    rows_left -= drawn[k];
    mass_left -= counts[k];
  }
  return column_ones(std::span(drawn).first(counts.size()));
}

void check_options(const BootstrapOptions& options) {
  RCR_CHECK_MSG(options.replicates >= 2, "bootstrap needs >= 2 replicates");
  RCR_CHECK_MSG(options.confidence > 0.0 && options.confidence < 1.0,
                "bootstrap confidence must lie in (0,1)");
}

// Calls replicate(b, resample) for every b in [0, options.replicates), on
// options.pool when set; each chunk reuses one resample buffer (only the
// generic path fills it). The throughput meter counts `values_per_replicate`
// replicate values per call: replicates/sec over the resampling phase only.
template <typename ReplicateFn>
void run_replicates(const BootstrapOptions& options,
                    std::size_t values_per_replicate, ReplicateFn&& replicate) {
  obs::MeterScope meter(obs::registry().meter("stats.bootstrap.replicates"),
                        options.replicates * values_per_replicate);
  if (options.pool != nullptr) {
    rcr::parallel::parallel_for_range(
        *options.pool, 0, options.replicates,
        [&](std::size_t lo, std::size_t hi) {
          std::vector<double> resample;
          for (std::size_t b = lo; b < hi; ++b) replicate(b, resample);
        });
  } else {
    std::vector<double> resample;
    for (std::size_t b = 0; b < options.replicates; ++b)
      replicate(b, resample);
  }
}

// Everything derived from result.estimate and result.replicates: sorts the
// replicates, then bias, standard error, and the percentile, basic and
// normal intervals. With compute_bca, `jackknife(jack)` fills the n
// leave-one-out statistics the BCa acceleration needs.
template <typename JackknifeFn>
void summarize(BootstrapResult& result, std::size_t n,
               const BootstrapOptions& options, JackknifeFn&& jackknife) {
  std::sort(result.replicates.begin(), result.replicates.end());
  const double rep_mean = mean(result.replicates);
  result.bias = rep_mean - result.estimate;
  result.std_error = result.replicates.size() >= 2
                         ? stddev(result.replicates)
                         : 0.0;

  const double alpha = 1.0 - options.confidence;
  const double lo_q = alpha / 2.0;
  const double hi_q = 1.0 - alpha / 2.0;
  const double q_lo = quantile_sorted(result.replicates, lo_q);
  const double q_hi = quantile_sorted(result.replicates, hi_q);

  result.percentile_ci = {result.estimate, q_lo, q_hi};
  result.basic_ci = {result.estimate, 2.0 * result.estimate - q_hi,
                     2.0 * result.estimate - q_lo};
  const double z = normal_quantile(0.5 + 0.5 * options.confidence);
  result.normal_ci = {result.estimate,
                      result.estimate - z * result.std_error,
                      result.estimate + z * result.std_error};

  if (options.compute_bca) {
    // Bias correction z0 from the share of replicates below the estimate.
    std::size_t below = 0;
    for (double r : result.replicates)
      if (r < result.estimate) ++below;
    double frac = static_cast<double>(below) /
                  static_cast<double>(result.replicates.size());
    // Clamp away from {0,1}: fully degenerate replicate sets fall back to
    // the percentile interval.
    frac = std::min(1.0 - 1e-9, std::max(1e-9, frac));
    const double z0 = normal_quantile(frac);
    result.bca_bias_z0 = z0;

    std::vector<double> jack(n);
    jackknife(jack);
    const double jack_mean = mean(jack);
    double num = 0.0, den = 0.0;
    for (double v : jack) {
      const double d = jack_mean - v;
      num += d * d * d;
      den += d * d;
    }
    const double a =
        den > 0.0 ? num / (6.0 * std::pow(den, 1.5)) : 0.0;
    result.bca_acceleration = a;

    const auto adjusted_quantile = [&](double z_alpha) {
      const double w = z0 + z_alpha;
      const double adj = z0 + w / (1.0 - a * w);
      return normal_cdf(adj);
    };
    const double z_lo = normal_quantile(lo_q);
    const double z_hi = normal_quantile(hi_q);
    result.bca_ci = {result.estimate,
                     quantile_sorted(result.replicates,
                                     adjusted_quantile(z_lo)),
                     quantile_sorted(result.replicates,
                                     adjusted_quantile(z_hi))};
  }
}

}  // namespace

BootstrapResult bootstrap(std::span<const double> data,
                          const Statistic& statistic,
                          const BootstrapOptions& options) {
  RCR_CHECK_MSG(!data.empty(), "bootstrap of empty data");
  check_options(options);

  BootstrapResult result;
  result.estimate = statistic(data);
  result.replicates.resize(options.replicates);
  run_replicates(options, 1,
                 [&](std::size_t b, std::vector<double>& resample) {
                   result.replicates[b] = generic_replicate(
                       data, statistic, options.seed, b, resample);
                 });

  // Jackknife over one scratch buffer, updated incrementally: after
  // evaluating leave-one-out sample i, writing data[i] into slot i turns it
  // into leave-one-out sample i+1 (same element order a per-iteration
  // rebuild produces, at O(1) instead of O(n) per step).
  const std::size_t n = data.size();
  summarize(result, n, options, [&](std::vector<double>& jack) {
    std::vector<double> loo(data.begin() + 1, data.end());
    for (std::size_t i = 0; i < n; ++i) {
      jack[i] = n > 1 ? statistic(loo) : result.estimate;
      if (i + 1 < n) loo[i] = data[i];
    }
  });
  return result;
}

std::vector<BootstrapResult> bootstrap_proportions(
    std::span<const std::uint64_t> pattern_counts,
    const BootstrapOptions& options) {
  const std::size_t patterns = pattern_counts.size();
  RCR_CHECK_MSG(patterns >= 2 && std::has_single_bit(patterns) &&
                    patterns <= (std::size_t{1} << kMaxProportionColumns),
                "bootstrap_proportions takes 2^c pattern counts, 1 <= c <= " +
                    std::to_string(kMaxProportionColumns));
  std::uint64_t n = 0;
  for (std::uint64_t count : pattern_counts) n += count;
  RCR_CHECK_MSG(n > 0, "bootstrap of empty data");
  check_options(options);

  const auto columns = static_cast<std::size_t>(std::countr_zero(patterns));
  const auto ones = column_ones(pattern_counts);
  const double rows = static_cast<double>(n);
  std::vector<BootstrapResult> results(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    results[c].estimate = static_cast<double>(ones[c]) / rows;
    results[c].replicates.resize(options.replicates);
  }
  run_replicates(options, columns,
                 [&](std::size_t b, std::vector<double>&) {
                   const auto hits = proportions_replicate(
                       pattern_counts, n, options.seed, b);
                   for (std::size_t c = 0; c < columns; ++c)
                     results[c].replicates[b] =
                         static_cast<double>(hits[c]) / rows;
                 });

  // Leave-one-out means of a 0/1 column in closed form: dropping one of its
  // ones gives (ones - 1) / (n - 1), dropping a zero gives ones / (n - 1).
  // At n = 1 the divisor stays 1: one jackknife value has acceleration 0.
  const double loo_rows = std::max(rows - 1.0, 1.0);
  for (std::size_t c = 0; c < columns; ++c) {
    summarize(results[c], n, options, [&](std::vector<double>& jack) {
      const auto split = jack.begin() + static_cast<std::ptrdiff_t>(ones[c]);
      std::fill(jack.begin(), split,
                (static_cast<double>(ones[c]) - 1.0) / loo_rows);
      std::fill(split, jack.end(), static_cast<double>(ones[c]) / loo_rows);
    });
  }
  return results;
}

}  // namespace rcr::stats
