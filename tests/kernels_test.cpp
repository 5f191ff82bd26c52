#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/matmul.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/nbody.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/suite.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rcr::kernels {
namespace {

rcr::parallel::ThreadPool& pool() {
  static rcr::parallel::ThreadPool p(4);
  return p;
}

// --- stencil --------------------------------------------------------------------

TEST(StencilTest, BoundaryStaysFixed) {
  HeatGrid g(8, 8, 0.0, 100.0);
  for (int s = 0; s < 10; ++s) g.step_serial(0.25);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(g.at(9, 5), 100.0);
}

TEST(StencilTest, HeatFlowsInward) {
  HeatGrid g(16, 16, 0.0, 100.0);
  const double before = g.interior_sum();
  for (int s = 0; s < 50; ++s) g.step_serial(0.2);
  EXPECT_GT(g.interior_sum(), before);
  // Corner-adjacent interior warms faster than the center early on.
  EXPECT_GT(g.at(1, 1), g.at(8, 8));
}

TEST(StencilTest, ConvergesTowardBoundaryTemperature) {
  HeatGrid g(6, 6, 0.0, 50.0);
  for (int s = 0; s < 4000; ++s) g.step_serial(0.25);
  for (std::size_t y = 1; y <= 6; ++y)
    for (std::size_t x = 1; x <= 6; ++x) EXPECT_NEAR(g.at(x, y), 50.0, 1e-6);
}

TEST(StencilTest, ParallelMatchesSerialBitExactly) {
  HeatGrid a(33, 17, 0.0, 100.0);
  HeatGrid b(33, 17, 0.0, 100.0);
  for (int s = 0; s < 25; ++s) {
    a.step_serial(0.2);
    b.step_parallel(pool(), 0.2);
  }
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

TEST(StencilTest, RejectsUnstableAlpha) {
  HeatGrid g(4, 4);
  EXPECT_THROW(g.step_serial(0.3), rcr::Error);
  EXPECT_THROW(g.step_serial(0.0), rcr::Error);
  EXPECT_THROW(HeatGrid(0, 4), rcr::Error);
}

// --- matmul ---------------------------------------------------------------------

TEST(MatmulTest, KnownSmallProduct) {
  // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]].
  const Dense a = {1, 2, 3, 4};
  const Dense b = {5, 6, 7, 8};
  Dense c(4);
  matmul_serial(a, b, c, 2);
  EXPECT_DOUBLE_EQ(c[0], 19.0);
  EXPECT_DOUBLE_EQ(c[1], 22.0);
  EXPECT_DOUBLE_EQ(c[2], 43.0);
  EXPECT_DOUBLE_EQ(c[3], 50.0);
}

TEST(MatmulTest, IdentityIsNeutral) {
  const std::size_t n = 17;
  const Dense a = random_matrix(n, 5);
  Dense id(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) id[i * n + i] = 1.0;
  Dense c(n * n);
  matmul_serial(a, id, c, n);
  EXPECT_NEAR(frobenius_diff(a, c), 0.0, 1e-12);
}

class MatmulVariantTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatmulVariantTest, VariantsAgree) {
  const std::size_t n = GetParam();
  const Dense a = random_matrix(n, 1);
  const Dense b = random_matrix(n, 2);
  Dense c_serial(n * n), c_parallel(n * n);
  matmul_serial(a, b, c_serial, n);
  matmul_parallel(pool(), a, b, c_parallel, n);
  EXPECT_DOUBLE_EQ(frobenius_diff(c_serial, c_parallel), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulVariantTest,
                         ::testing::Values(1, 7, 16, 33, 64));

TEST(MatmulTest, ShapeMismatchThrows) {
  Dense a(4), b(4), c(9);
  EXPECT_THROW(matmul_serial(a, b, c, 2), rcr::Error);
}

// --- nbody ----------------------------------------------------------------------

TEST(NbodyTest, EnergyApproximatelyConserved) {
  Bodies b = random_bodies(64, 7);
  const double e0 = total_energy(b);
  for (int s = 0; s < 100; ++s) nbody_step_serial(b, 1e-4);
  const double e1 = total_energy(b);
  EXPECT_NEAR(e1, e0, std::fabs(e0) * 0.05 + 1e-6);
}

TEST(NbodyTest, ParallelMatchesSerialBitExactly) {
  Bodies a = random_bodies(100, 3);
  Bodies b = random_bodies(100, 3);
  for (int s = 0; s < 5; ++s) {
    nbody_step_serial(a, 1e-3);
    nbody_step_parallel(pool(), b, 1e-3);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
    EXPECT_DOUBLE_EQ(a.vy[i], b.vy[i]);
  }
}

TEST(NbodyTest, TwoBodyAttraction) {
  Bodies b;
  b.x = {0.0, 1.0};
  b.y = {0.0, 0.0};
  b.z = {0.0, 0.0};
  b.vx = {0.0, 0.0};
  b.vy = {0.0, 0.0};
  b.vz = {0.0, 0.0};
  b.mass = {1.0, 1.0};
  nbody_step_serial(b, 1e-2);
  EXPECT_GT(b.x[0], 0.0);  // pulled right
  EXPECT_LT(b.x[1], 1.0);  // pulled left
  EXPECT_DOUBLE_EQ(b.y[0], 0.0);
}

TEST(NbodyTest, RejectsTooFewBodies) {
  EXPECT_THROW(random_bodies(1, 1), rcr::Error);
}

// --- Monte Carlo ----------------------------------------------------------------

TEST(MonteCarloTest, PiEstimateConverges) {
  const double pi = mc_pi_serial(2000000, 42);
  EXPECT_NEAR(pi, M_PI, 0.01);
}

TEST(MonteCarloTest, ParallelPiIdenticalToSerial) {
  for (std::size_t samples : {1000u, 4096u, 100001u}) {
    EXPECT_DOUBLE_EQ(mc_pi_serial(samples, 9),
                     mc_pi_parallel(pool(), samples, 9));
  }
}

TEST(MonteCarloTest, EstimatesArePinnedBitwise) {
  // Each sample draws x then y from its block's own xoshiro stream; any
  // change to that draw order moves these bits.
  // 400000 samples end in a partial block; 4097 leaves a one-sample last
  // block.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(mc_pi_serial(400000, 11)), 0x400920aa64c2f838ULL);
  EXPECT_EQ(bits(mc_pi_parallel(pool(), 400000, 11)), 0x400920aa64c2f838ULL);
  EXPECT_EQ(bits(mc_pi_serial(4097, 3)), 0x4009446bb9446bb9ULL);
}

TEST(MonteCarloTest, RejectsBadArguments) {
  EXPECT_THROW(mc_pi_serial(0, 1), rcr::Error);
}

// --- SpMV -----------------------------------------------------------------------

TEST(SpmvTest, CsrStructureIsValid) {
  const Csr a = random_csr(200, 150, 8, 11);
  EXPECT_EQ(a.row_ptr.size(), 201u);
  EXPECT_EQ(a.row_ptr.front(), 0u);
  EXPECT_EQ(a.row_ptr.back(), a.nnz());
  for (std::size_t r = 0; r < a.rows; ++r) {
    EXPECT_GE(a.row_ptr[r + 1], a.row_ptr[r] + 1);  // at least 1 per row
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      EXPECT_LT(a.col_idx[k], a.cols);
      if (k > a.row_ptr[r]) {
        EXPECT_GT(a.col_idx[k], a.col_idx[k - 1]);
      }
    }
  }
}

TEST(SpmvTest, RandomCsrContentsArePinned) {
  // XXH64 over row_ptr (as u64), col_idx and the value bits, pinned to the
  // matrix the dense-index-vector sampler generated: sampling columns
  // through the sparse Fisher–Yates must not change a single entry.
  const Csr a = random_csr(2000, 3000, 12, 5);
  std::vector<unsigned char> bytes;
  const auto append = [&bytes](const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    bytes.insert(bytes.end(), b, b + len);
  };
  for (std::size_t r : a.row_ptr) {
    const std::uint64_t w = r;
    append(&w, sizeof w);
  }
  append(a.col_idx.data(), a.col_idx.size() * sizeof(std::uint32_t));
  append(a.values.data(), a.values.size() * sizeof(double));
  EXPECT_EQ(a.nnz(), 24166u);
  EXPECT_EQ(rcr::xxhash64(bytes.data(), bytes.size()), 0x7d9ac8ce0e99f941ULL);
}

TEST(SpmvTest, KnownProduct) {
  // [[2, 0], [1, 3]] in CSR.
  Csr a;
  a.rows = 2;
  a.cols = 2;
  a.row_ptr = {0, 1, 3};
  a.col_idx = {0, 0, 1};
  a.values = {2.0, 1.0, 3.0};
  std::vector<double> y;
  spmv_serial(a, {4.0, 5.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 8.0);
  EXPECT_DOUBLE_EQ(y[1], 19.0);
}

TEST(SpmvTest, ParallelMatchesSerialBitExactly) {
  const Csr a = random_csr(5000, 5000, 10, 13);
  std::vector<double> x(a.cols);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(static_cast<double>(i));
  std::vector<double> ys, yp;
  spmv_serial(a, x, ys);
  spmv_parallel(pool(), a, x, yp);
  ASSERT_EQ(ys.size(), yp.size());
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_DOUBLE_EQ(ys[i], yp[i]);
}

TEST(SpmvTest, RejectsSizeMismatch) {
  const Csr a = random_csr(10, 10, 2, 1);
  std::vector<double> x(5), y;
  EXPECT_THROW(spmv_serial(a, x, y), rcr::Error);
}

// --- suite ----------------------------------------------------------------------

TEST(SuiteTest, AllKernelsVerifySerialVsParallel) {
  for (const auto& k : standard_suite()) {
    const double serial = k.run_serial();
    const double parallel = k.run_parallel(pool());
    // Monte Carlo & stencil & spmv are bit-identical; others may reorder
    // float sums, so allow a relative tolerance.
    EXPECT_NEAR(parallel, serial,
                std::max(1e-6, std::fabs(serial) * 1e-9))
        << k.name;
    EXPECT_GT(k.work.work_ops, 0.0) << k.name;
    EXPECT_GE(k.work.serial_fraction, 0.0) << k.name;
    EXPECT_LT(k.work.serial_fraction, 0.2) << k.name;
    EXPECT_GE(k.work.bytes_per_flop, 0.0) << k.name;
    EXPECT_GT(k.reference.core_gflops, 0.0) << k.name;
  }
}

TEST(SuiteTest, HasExpectedArchetypes) {
  const auto suite = standard_suite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_THROW(standard_suite(0), rcr::Error);
}

}  // namespace
}  // namespace rcr::kernels
