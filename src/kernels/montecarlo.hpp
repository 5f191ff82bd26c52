// Monte-Carlo kernel: π estimation by dart throwing.
// Deterministic under parallelism: sample i always comes from the stream
// hash(seed, i / block), independent of thread assignment.
#pragma once

#include <cstddef>
#include <cstdint>

#include "parallel/thread_pool.hpp"

namespace rcr::kernels {

// Estimates π by dart throwing with `samples` points.
double mc_pi_serial(std::size_t samples, std::uint64_t seed);
double mc_pi_parallel(rcr::parallel::ThreadPool& pool, std::size_t samples,
                      std::uint64_t seed);

}  // namespace rcr::kernels
