// The standard kernel suite: one entry per computational-science archetype,
// with the workload the simulator needs (work, serial fraction and memory
// intensity) and a declared reference core. F5 uses the suite both ways:
// running the real kernels to verify serial against pooled, and projecting
// the workload from the reference core beyond the host's core count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/scaling.hpp"

namespace rcr::kernels {

struct KernelCase {
  std::string name;
  // Approximate arithmetic operations per run, the modeled Amdahl serial
  // fraction (setup, reductions, I/O) and memory intensity in bytes moved
  // per op (drives the bandwidth ceiling; ~0 for compute-bound kernels).
  sim::WorkloadModel work;
  // The reference core: core_gflops is this kernel's declared single-core
  // throughput (DESIGN.md gives its provenance); the rest is the default
  // machine.
  sim::MachineModel reference;
  // Runs the kernel once and returns a verification checksum.
  std::function<double()> run_serial;
  std::function<double(rcr::parallel::ThreadPool&)> run_parallel;
};

// Standard problem sizes multiplied by `scale` (>=1). The defaults complete
// in well under a second each so the suite is usable inside tests.
std::vector<KernelCase> standard_suite(std::size_t scale = 1);

}  // namespace rcr::kernels
