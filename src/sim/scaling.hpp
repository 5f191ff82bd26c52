// Parallel-scaling models: the substitute for hardware we do not have.
//
// Two independent predictors, cross-validated against each other in tests
// and ablated in F5:
//   * an analytic machine model (Amdahl + fork-join overhead + a shared
//     memory-bandwidth ceiling), projected from a declared single core;
//   * a discrete-event fork-join simulator that executes an explicit task
//     list on P virtual cores (greedy list scheduling) and reports the
//     makespan — no closed-form assumptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rcr::sim {

// Virtual machine the study's scaling questions are asked about.
struct MachineModel {
  double core_gflops = 4.0;          // per-core arithmetic throughput
  double mem_bandwidth_gbs = 25.0;   // shared bandwidth ceiling (GB/s)
  double barrier_latency_us = 5.0;   // fork-join barrier cost at p=2
  // Barrier cost grows ~log2(p) (tree barrier), scaled by this model.
};

// What one run of a workload asks of the machine.
struct WorkloadModel {
  double work_ops = 1e9;        // arithmetic operations per run
  double serial_fraction = 0.01;
  double bytes_per_flop = 0.0;
  std::size_t barriers = 1;     // synchronization points per run
};

struct ScalingPoint {
  std::size_t cores = 1;
  double time_seconds = 0.0;
  double speedup = 1.0;
  double efficiency = 1.0;
};

// Analytic prediction of runtime on `cores`.
//   t(p) = f*W/F + max((1-f)*W/(p*F), B/bw) + barriers*c_b*log2(p)
// where W = work_ops, F = per-core flops, B = total bytes moved.
double predict_time(const MachineModel& machine, const WorkloadModel& work,
                    std::size_t cores);

// Full strong-scaling curve over the given core counts.
std::vector<ScalingPoint> strong_scaling_curve(
    const MachineModel& machine, const WorkloadModel& work,
    std::span<const std::size_t> core_counts);

// Ablation switches for F5: drop individual model terms.
struct ModelAblation {
  bool include_bandwidth = true;
  bool include_barriers = true;
};
double predict_time_ablated(const MachineModel& machine,
                            const WorkloadModel& work, std::size_t cores,
                            const ModelAblation& ablation);

// --- Discrete-event fork-join simulation ----------------------------------

// Simulates executing `task_durations` (seconds each) on `cores` virtual
// cores with greedy earliest-finish assignment, plus `serial_seconds` of
// non-overlappable work and a per-barrier cost. Returns the makespan.
double simulate_fork_join(std::span<const double> task_durations,
                          std::size_t cores, double serial_seconds = 0.0,
                          double barrier_seconds = 0.0);

// Builds the task list the DES needs from a workload: the parallel portion
// split into `tasks` equal chunks (plus jitter_fraction of lognormal-ish
// imbalance when > 0, deterministic under `seed`).
std::vector<double> make_task_durations(const MachineModel& machine,
                                        const WorkloadModel& work,
                                        std::size_t tasks,
                                        double jitter_fraction = 0.0,
                                        std::uint64_t seed = 1);

// The fork-join DES of one run on `cores`: the parallel portion as 4 tasks
// per core (jittered as in make_task_durations), plus the serial fraction
// and the barrier term exactly as predict_time charges them (none on one
// core). F5 and A1 cross-check the analytic model with it.
double des_time(const MachineModel& machine, const WorkloadModel& work,
                std::size_t cores, double jitter_fraction, std::uint64_t seed);

// Amdahl's law ideal speedup (no overheads), for reference lines.
double amdahl_speedup(double serial_fraction, std::size_t cores);

// Gustafson's scaled speedup, for the weak-scaling discussion.
double gustafson_speedup(double serial_fraction, std::size_t cores);

}  // namespace rcr::sim
