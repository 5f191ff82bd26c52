#include "kernels/montecarlo.hpp"

#include <algorithm>

#include "parallel/algorithms.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::kernels {

namespace {

// Samples are processed in fixed blocks, each with a seed derived from the
// block index, so serial and parallel runs visit identical streams.
constexpr std::size_t kBlock = 4096;

std::uint64_t block_seed(std::uint64_t master, std::size_t block) {
  std::uint64_t z = master + 0x9E3779B97F4A7C15ULL * (block + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t pi_hits_in_block(std::uint64_t master, std::size_t block,
                             std::size_t samples_total) {
  Rng rng(block_seed(master, block));
  const std::size_t lo = block * kBlock;
  const std::size_t hi = std::min(samples_total, lo + kBlock);
  std::size_t hits = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double x = rng.next_double();
    const double y = rng.next_double();
    if (x * x + y * y <= 1.0) ++hits;
  }
  return hits;
}

std::size_t block_count(std::size_t samples) {
  return (samples + kBlock - 1) / kBlock;
}

}  // namespace

double mc_pi_serial(std::size_t samples, std::uint64_t seed) {
  RCR_CHECK_MSG(samples > 0, "mc_pi needs samples");
  std::size_t hits = 0;
  for (std::size_t blk = 0; blk < block_count(samples); ++blk)
    hits += pi_hits_in_block(seed, blk, samples);
  return 4.0 * static_cast<double>(hits) / static_cast<double>(samples);
}

double mc_pi_parallel(rcr::parallel::ThreadPool& pool, std::size_t samples,
                      std::uint64_t seed) {
  RCR_CHECK_MSG(samples > 0, "mc_pi needs samples");
  const std::size_t hits = rcr::parallel::parallel_reduce<std::size_t>(
      pool, 0, block_count(samples), 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t local = 0;
        for (std::size_t blk = lo; blk < hi; ++blk)
          local += pi_hits_in_block(seed, blk, samples);
        return local;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  return 4.0 * static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace rcr::kernels
