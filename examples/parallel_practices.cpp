// What does parallelization buy a researcher? Projects strong scaling of
// the kernel suite from each kernel's declared reference core with the
// analytic model (F5's model column, as a walkthrough), then measures this
// host: serial and pooled times of the real kernels, the throughput they
// imply next to the declared one, and the pooled speedup next to the
// model's. The projections are the same on every host; the host block is
// not, which is why only this example reads the clock.
//
//   ./build/examples/parallel_practices [--scale 1] [--max-cores 256]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/rcr.hpp"

namespace {

constexpr int kRepeats = 5;

// "median ms [q1–q3]" of `seconds`.
std::string median_iqr_ms(const std::vector<double>& seconds) {
  return rcr::format_double(rcr::stats::median(seconds) * 1e3, 2) + " ms [" +
         rcr::format_double(rcr::stats::quantile(seconds, 0.25) * 1e3, 2) +
         "–" +
         rcr::format_double(rcr::stats::quantile(seconds, 0.75) * 1e3, 2) +
         "]";
}

}  // namespace

int main(int argc, char** argv) {
  rcr::CliParser cli(argc, argv);
  const auto scale = static_cast<std::size_t>(cli.get_int_or("scale", 1));
  const auto max_cores =
      static_cast<std::size_t>(cli.get_int_or("max-cores", 256));
  cli.finish();

  const auto suite = rcr::kernels::standard_suite(scale);
  for (const auto& k : suite) {
    std::cout << "== " << k.name << " ==\n"
              << "  declared reference core: "
              << rcr::format_double(k.reference.core_gflops, 2)
              << " Gop/s\n";
    const double t1 = rcr::sim::predict_time(k.reference, k.work, 1);
    rcr::report::TextTable table(
        {"Cores", "Projected speedup", "Amdahl ideal", "Efficiency"});
    for (std::size_t p = 1; p <= max_cores; p *= 4) {
      const double tp = rcr::sim::predict_time(k.reference, k.work, p);
      table.add_row(
          {std::to_string(p), rcr::format_double(t1 / tp, 1),
           rcr::format_double(
               rcr::sim::amdahl_speedup(k.work.serial_fraction, p), 1),
           rcr::format_percent(t1 / tp / static_cast<double>(p), 0)});
    }
    std::cout << table.render() << "\n";
  }
  std::cout << "Memory-bound kernels (spmv, stencil) flatten early at the\n"
               "bandwidth ceiling; compute-bound ones (nbody, matmul,\n"
               "monte-carlo) track Amdahl — why \"just use more cores\" pays\n"
               "off so unevenly across research codes.\n\n";

  rcr::parallel::ThreadPool pool;
  const std::size_t threads = pool.thread_count();
  std::cout << "== this host: " << threads << "-thread pool, scale " << scale
            << ", median [IQR] of " << kRepeats << " runs ==\n";
  for (const auto& k : suite) {
    std::vector<double> serial_s, pooled_s;
    double checksum_diff = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      rcr::Stopwatch sw;
      const double serial = k.run_serial();
      serial_s.push_back(sw.elapsed_seconds());
      sw.reset();
      const double pooled = k.run_parallel(pool);
      pooled_s.push_back(sw.elapsed_seconds());
      checksum_diff = std::max(checksum_diff, std::fabs(serial - pooled));
    }
    const double serial_median = rcr::stats::median(serial_s);
    const double model_speedup =
        rcr::sim::predict_time(k.reference, k.work, 1) /
        rcr::sim::predict_time(k.reference, k.work, threads);
    std::cout << "  " << k.name << ": serial " << median_iqr_ms(serial_s)
              << ", pooled " << median_iqr_ms(pooled_s) << ", checksum diff "
              << rcr::format_double(checksum_diff, 9) << "\n"
              << "    throughput "
              << rcr::format_double(k.work.work_ops / serial_median / 1e9, 2)
              << " Gop/s (declared "
              << rcr::format_double(k.reference.core_gflops, 2)
              << "); speedup on " << threads << " threads "
              << rcr::format_double(
                     serial_median / rcr::stats::median(pooled_s), 2)
              << "x (model " << rcr::format_double(model_speedup, 2)
              << "x)\n";
  }
  return 0;
}
