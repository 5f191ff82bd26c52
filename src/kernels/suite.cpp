#include "kernels/suite.hpp"

#include <memory>

#include "kernels/matmul.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/nbody.hpp"
#include "kernels/reduction.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace rcr::kernels {

std::vector<KernelCase> standard_suite(std::size_t scale) {
  RCR_CHECK_MSG(scale >= 1, "suite scale must be >= 1");
  // Each reference.core_gflops is the declared single-core throughput of
  // the scale-1 serial kernel (Gop/s; provenance in DESIGN.md).
  std::vector<KernelCase> suite;

  {
    KernelCase k;
    k.name = "heat-stencil";
    k.reference.core_gflops = 5.7;
    k.work.serial_fraction = 0.02;  // halo bookkeeping + buffer swap
    k.work.bytes_per_flop = 4.0;  // streaming 5-point stencil
    const std::size_t n = 192 * scale;
    const std::size_t steps = 20;
    k.work.work_ops = static_cast<double>(n * n * steps) * 6.0;
    k.run_serial = [n, steps] {
      HeatGrid g(n, n);
      for (std::size_t s = 0; s < steps; ++s) g.step_serial(0.2);
      return g.interior_sum();
    };
    k.run_parallel = [n, steps](rcr::parallel::ThreadPool& pool) {
      HeatGrid g(n, n);
      for (std::size_t s = 0; s < steps; ++s) g.step_parallel(pool, 0.2);
      return g.interior_sum();
    };
    suite.push_back(std::move(k));
  }

  {
    KernelCase k;
    k.name = "dense-matmul";
    k.reference.core_gflops = 4.0;
    k.work.serial_fraction = 0.005;  // near-perfectly parallel
    k.work.bytes_per_flop = 0.3;  // cache-friendly compute-bound
    const std::size_t n = 96 * scale;
    k.work.work_ops = 2.0 * static_cast<double>(n) * n * n;
    k.run_serial = [n] {
      const Dense a = random_matrix(n, 1);
      const Dense b = random_matrix(n, 2);
      Dense c(n * n);
      matmul_serial(a, b, c, n);
      double s = 0.0;
      for (double v : c) s += v;
      return s;
    };
    k.run_parallel = [n](rcr::parallel::ThreadPool& pool) {
      const Dense a = random_matrix(n, 1);
      const Dense b = random_matrix(n, 2);
      Dense c(n * n);
      matmul_parallel(pool, a, b, c, n);
      double s = 0.0;
      for (double v : c) s += v;
      return s;
    };
    suite.push_back(std::move(k));
  }

  {
    KernelCase k;
    k.name = "nbody";
    k.reference.core_gflops = 3.1;
    k.work.serial_fraction = 0.01;  // integration step is serial-ish but tiny
    k.work.bytes_per_flop = 0.05;  // strongly compute-bound
    const std::size_t n = 384 * scale;
    const std::size_t steps = 3;
    k.work.work_ops = static_cast<double>(n) * n * steps * 20.0;
    k.run_serial = [n, steps] {
      Bodies b = random_bodies(n, 3);
      for (std::size_t s = 0; s < steps; ++s) nbody_step_serial(b, 1e-3);
      return total_energy(b);
    };
    k.run_parallel = [n, steps](rcr::parallel::ThreadPool& pool) {
      Bodies b = random_bodies(n, 3);
      for (std::size_t s = 0; s < steps; ++s)
        nbody_step_parallel(pool, b, 1e-3);
      return total_energy(b);
    };
    suite.push_back(std::move(k));
  }

  {
    KernelCase k;
    k.name = "monte-carlo";
    k.reference.core_gflops = 1.7;
    k.work.serial_fraction = 0.001;  // embarrassingly parallel
    k.work.bytes_per_flop = 0.0;
    const std::size_t samples = 400000 * scale;
    k.work.work_ops = static_cast<double>(samples) * 8.0;
    k.run_serial = [samples] { return mc_pi_serial(samples, 11); };
    k.run_parallel = [samples](rcr::parallel::ThreadPool& pool) {
      return mc_pi_parallel(pool, samples, 11);
    };
    suite.push_back(std::move(k));
  }

  {
    KernelCase k;
    k.name = "spmv";
    k.reference.core_gflops = 1.0;
    k.work.serial_fraction = 0.02;
    k.work.bytes_per_flop = 10.0;  // memory-bound: index + value traffic
    const std::size_t rows = 60000 * scale;
    const std::size_t nnz = 12;
    const std::size_t iters = 8;
    k.work.work_ops = static_cast<double>(rows * nnz * iters) * 2.0;
    const auto checksum = [](const std::vector<double>& y) {
      double s = 0.0;
      for (double v : y) s += v;
      return s;
    };
    // One matrix, built here and shared by both runs, so a run times the
    // SpMV iterations rather than generating its input.
    const auto a = std::make_shared<const Csr>(random_csr(rows, rows, nnz, 5));
    k.run_serial = [a, iters, checksum] {
      std::vector<double> x(a->rows, 1.0), y;
      for (std::size_t i = 0; i < iters; ++i) {
        spmv_serial(*a, x, y);
        x.swap(y);
      }
      return checksum(x);
    };
    k.run_parallel = [a, iters, checksum](rcr::parallel::ThreadPool& pool) {
      std::vector<double> x(a->rows, 1.0), y;
      for (std::size_t i = 0; i < iters; ++i) {
        spmv_parallel(pool, *a, x, y);
        x.swap(y);
      }
      return checksum(x);
    };
    suite.push_back(std::move(k));
  }

  {
    KernelCase k;
    k.name = "data-reduction";
    k.reference.core_gflops = 2.2;
    k.work.serial_fraction = 0.03;  // partial-histogram merge
    k.work.bytes_per_flop = 6.0;  // streaming, memory-bound
    const std::size_t count = 500000 * scale;
    k.work.work_ops = static_cast<double>(count) * 10.0;
    k.run_serial = [count] {
      return reduce_stream_serial(count, 23).checksum();
    };
    k.run_parallel = [count](rcr::parallel::ThreadPool& pool) {
      return reduce_stream_parallel(pool, count, 23).checksum();
    };
    suite.push_back(std::move(k));
  }

  // Every run reports its wall time into a per-kernel latency histogram
  // ("kernels.<name>.{serial,parallel}_ms").
  for (auto& k : suite) {
    obs::Histogram* serial_ms =
        &obs::registry().histogram("kernels." + k.name + ".serial_ms");
    obs::Histogram* parallel_ms =
        &obs::registry().histogram("kernels." + k.name + ".parallel_ms");
    k.run_serial = [serial_ms, inner = std::move(k.run_serial)] {
      obs::ScopedTimer timer(*serial_ms);
      return inner();
    };
    k.run_parallel = [parallel_ms, inner = std::move(k.run_parallel)](
                         rcr::parallel::ThreadPool& pool) {
      obs::ScopedTimer timer(*parallel_ms);
      return inner(pool);
    };
  }

  return suite;
}

}  // namespace rcr::kernels
