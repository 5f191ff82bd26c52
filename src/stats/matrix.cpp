#include "stats/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace rcr::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  RCR_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  RCR_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> cholesky_solve(const Matrix& a,
                                   std::span<const double> b) {
  const std::size_t n = a.rows();
  RCR_CHECK_MSG(a.cols() == n, "cholesky_solve needs a square matrix");
  RCR_CHECK_MSG(b.size() == n, "cholesky_solve rhs size mismatch");

  // Lower-triangular factor L with A = L L^T.
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l.at(j, k) * l.at(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag))
      throw ComputeError("cholesky_solve: matrix is not positive definite");
    l.at(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l.at(i, k) * l.at(j, k);
      l.at(i, j) = s / l.at(j, j);
    }
  }
  // Forward solve L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l.at(i, k) * y[k];
    y[i] = s / l.at(i, i);
  }
  // Back solve L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l.at(k, ii) * x[k];
    x[ii] = s / l.at(ii, ii);
  }
  return x;
}

}  // namespace rcr::stats
