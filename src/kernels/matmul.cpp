#include "kernels/matmul.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/algorithms.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::kernels {

Dense random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dense m(n * n);
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

namespace {
void check_shapes(const Dense& a, const Dense& b, const Dense& c,
                  std::size_t n) {
  RCR_CHECK_MSG(a.size() == n * n && b.size() == n * n && c.size() == n * n,
                "matmul shape mismatch");
}

// Multiplies rows [row_lo, row_hi) of C.
void matmul_rows(const double* a, const double* b, double* c, std::size_t n,
                 std::size_t row_lo, std::size_t row_hi) {
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    double* ci = c + i * n;
    std::fill(ci, ci + n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      const double* bk = b + k * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}
}  // namespace

void matmul_serial(const Dense& a, const Dense& b, Dense& c, std::size_t n) {
  check_shapes(a, b, c, n);
  matmul_rows(a.data(), b.data(), c.data(), n, 0, n);
}

void matmul_parallel(rcr::parallel::ThreadPool& pool, const Dense& a,
                     const Dense& b, Dense& c, std::size_t n) {
  check_shapes(a, b, c, n);
  rcr::parallel::parallel_for_range(
      pool, 0, n, [&](std::size_t lo, std::size_t hi) {
        matmul_rows(a.data(), b.data(), c.data(), n, lo, hi);
      });
}

double frobenius_diff(const Dense& x, const Dense& y) {
  RCR_CHECK_MSG(x.size() == y.size(), "frobenius_diff size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    s += (x[i] - y[i]) * (x[i] - y[i]);
  return std::sqrt(s);
}

}  // namespace rcr::kernels
