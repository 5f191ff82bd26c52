// Dense matrix multiplication kernels, serial and row-parallel: the
// compute-bound member of the F5 scaling suite, also timed by the kernel
// micro benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace rcr::kernels {

// Row-major n×n matrices stored as flat vectors.
using Dense = std::vector<double>;

Dense random_matrix(std::size_t n, std::uint64_t seed);

// c = a * b, classic triple loop (i, k, j order for streaming stores).
void matmul_serial(const Dense& a, const Dense& b, Dense& c, std::size_t n);

// Rows of C distributed over the pool.
void matmul_parallel(rcr::parallel::ThreadPool& pool, const Dense& a,
                     const Dense& b, Dense& c, std::size_t n);

// Frobenius-norm difference, for verification.
double frobenius_diff(const Dense& x, const Dense& y);

}  // namespace rcr::kernels
