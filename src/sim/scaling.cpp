#include "sim/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::sim {

namespace {
void validate(const MachineModel& m, const WorkloadModel& w) {
  RCR_CHECK_MSG(m.core_gflops > 0.0, "core throughput must be positive");
  RCR_CHECK_MSG(m.mem_bandwidth_gbs > 0.0, "bandwidth must be positive");
  RCR_CHECK_MSG(m.barrier_latency_us >= 0.0, "barrier cost must be >= 0");
  RCR_CHECK_MSG(w.work_ops > 0.0, "workload must have work");
  RCR_CHECK_MSG(w.serial_fraction >= 0.0 && w.serial_fraction <= 1.0,
                "serial fraction out of [0,1]");
  RCR_CHECK_MSG(w.bytes_per_flop >= 0.0, "bytes_per_flop must be >= 0");
}

double serial_seconds(const MachineModel& m, const WorkloadModel& w) {
  return w.serial_fraction * w.work_ops / (m.core_gflops * 1e9);
}

// work.barriers tree barriers of log2(p) steps each; none on one core.
double barrier_seconds(const MachineModel& m, const WorkloadModel& w,
                       std::size_t cores) {
  if (cores <= 1) return 0.0;
  return static_cast<double>(w.barriers) * m.barrier_latency_us * 1e-6 *
         std::log2(static_cast<double>(cores));
}
}  // namespace

double predict_time_ablated(const MachineModel& machine,
                            const WorkloadModel& work, std::size_t cores,
                            const ModelAblation& ablation) {
  validate(machine, work);
  RCR_CHECK_MSG(cores >= 1, "need at least one core");
  const double flops = machine.core_gflops * 1e9;
  const double parallel_ops = (1.0 - work.serial_fraction) * work.work_ops;
  double parallel_time = parallel_ops / (static_cast<double>(cores) * flops);

  if (ablation.include_bandwidth && work.bytes_per_flop > 0.0) {
    // The parallel phase cannot beat the shared-bandwidth floor.
    const double bytes = parallel_ops * work.bytes_per_flop;
    const double bw_floor = bytes / (machine.mem_bandwidth_gbs * 1e9);
    parallel_time = std::max(parallel_time, bw_floor);
  }

  const double barrier_time =
      ablation.include_barriers ? barrier_seconds(machine, work, cores) : 0.0;
  return serial_seconds(machine, work) + parallel_time + barrier_time;
}

double predict_time(const MachineModel& machine, const WorkloadModel& work,
                    std::size_t cores) {
  return predict_time_ablated(machine, work, cores, ModelAblation{});
}

std::vector<ScalingPoint> strong_scaling_curve(
    const MachineModel& machine, const WorkloadModel& work,
    std::span<const std::size_t> core_counts) {
  RCR_CHECK_MSG(!core_counts.empty(), "need core counts");
  const double t1 = predict_time(machine, work, 1);
  std::vector<ScalingPoint> curve;
  curve.reserve(core_counts.size());
  for (std::size_t p : core_counts) {
    ScalingPoint pt;
    pt.cores = p;
    pt.time_seconds = predict_time(machine, work, p);
    pt.speedup = t1 / pt.time_seconds;
    pt.efficiency = pt.speedup / static_cast<double>(p);
    curve.push_back(pt);
  }
  return curve;
}

double simulate_fork_join(std::span<const double> task_durations,
                          std::size_t cores, double serial_seconds,
                          double barrier_seconds) {
  RCR_CHECK_MSG(cores >= 1, "need at least one core");
  RCR_CHECK_MSG(serial_seconds >= 0.0 && barrier_seconds >= 0.0,
                "negative overhead");
  // Greedy list scheduling: always hand the next task to the earliest-free
  // core. A min-heap of core-free times implements this exactly. The heap
  // is seeded with min(cores, tasks) slots, so whenever the loop runs it is
  // non-empty — with more cores than tasks every task simply lands on its
  // own core at time 0.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (std::size_t c = 0; c < std::min(cores, task_durations.size()); ++c)
    free_at.push(0.0);
  double makespan = 0.0;
  for (double d : task_durations) {
    RCR_CHECK_MSG(d >= 0.0, "negative task duration");
    const double start = free_at.top();
    free_at.pop();
    const double finish = start + d;
    makespan = std::max(makespan, finish);
    free_at.push(finish);
  }
  return serial_seconds + makespan + barrier_seconds;
}

std::vector<double> make_task_durations(const MachineModel& machine,
                                        const WorkloadModel& work,
                                        std::size_t tasks,
                                        double jitter_fraction,
                                        std::uint64_t seed) {
  validate(machine, work);
  RCR_CHECK_MSG(tasks >= 1, "need at least one task");
  RCR_CHECK_MSG(jitter_fraction >= 0.0 && jitter_fraction < 1.0,
                "jitter fraction out of [0,1)");
  const double flops = machine.core_gflops * 1e9;
  const double parallel_time =
      (1.0 - work.serial_fraction) * work.work_ops / flops;
  const double base = parallel_time / static_cast<double>(tasks);
  std::vector<double> durations(tasks, base);
  if (jitter_fraction > 0.0) {
    Rng rng(seed);
    for (double& d : durations)
      d *= 1.0 + jitter_fraction * (2.0 * rng.next_double() - 1.0);
  }
  return durations;
}

double des_time(const MachineModel& machine, const WorkloadModel& work,
                std::size_t cores, double jitter_fraction,
                std::uint64_t seed) {
  RCR_CHECK_MSG(cores >= 1, "need at least one core");
  const auto tasks =
      make_task_durations(machine, work, 4 * cores, jitter_fraction, seed);
  return simulate_fork_join(tasks, cores, serial_seconds(machine, work),
                            barrier_seconds(machine, work, cores));
}

double amdahl_speedup(double serial_fraction, std::size_t cores) {
  RCR_CHECK_MSG(serial_fraction >= 0.0 && serial_fraction <= 1.0,
                "serial fraction out of [0,1]");
  RCR_CHECK_MSG(cores >= 1, "need at least one core");
  return 1.0 /
         (serial_fraction +
          (1.0 - serial_fraction) / static_cast<double>(cores));
}

double gustafson_speedup(double serial_fraction, std::size_t cores) {
  RCR_CHECK_MSG(serial_fraction >= 0.0 && serial_fraction <= 1.0,
                "serial fraction out of [0,1]");
  RCR_CHECK_MSG(cores >= 1, "need at least one core");
  const double p = static_cast<double>(cores);
  return p - serial_fraction * (p - 1.0);
}

}  // namespace rcr::sim
