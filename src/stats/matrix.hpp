// Small dense matrix support for the logistic regression.
//
// The survey fits are tiny (a handful of predictors), so a simple
// row-major dense matrix with a Cholesky solver is all the linear algebra
// this project needs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rcr::stats {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

// Solves A x = b for symmetric positive-definite A via Cholesky.
// Throws ComputeError if A is not SPD (within tolerance).
std::vector<double> cholesky_solve(const Matrix& a, std::span<const double> b);

}  // namespace rcr::stats
