#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/cluster.hpp"
#include "sim/scaling.hpp"
#include "util/error.hpp"

namespace rcr::sim {
namespace {

// --- analytic scaling model -----------------------------------------------------

TEST(AmdahlTest, KnownValues) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(0.0, 8), 8.0);
  EXPECT_NEAR(amdahl_speedup(0.1, 8), 1.0 / (0.1 + 0.9 / 8.0), 1e-12);
  // Asymptote: 1/f.
  EXPECT_NEAR(amdahl_speedup(0.05, 1000000), 20.0, 0.01);
  EXPECT_DOUBLE_EQ(amdahl_speedup(1.0, 64), 1.0);
}

TEST(GustafsonTest, KnownValues) {
  EXPECT_DOUBLE_EQ(gustafson_speedup(0.0, 16), 16.0);
  EXPECT_DOUBLE_EQ(gustafson_speedup(0.5, 16), 16.0 - 0.5 * 15.0);
  EXPECT_DOUBLE_EQ(gustafson_speedup(1.0, 16), 1.0);
}

MachineModel test_machine() {
  MachineModel m;
  m.core_gflops = 1.0;  // 1e9 ops/s: easy mental math
  m.mem_bandwidth_gbs = 10.0;
  m.barrier_latency_us = 5.0;
  return m;
}

TEST(PredictTimeTest, SerialBaselineIsWorkOverThroughput) {
  WorkloadModel w;
  w.work_ops = 2e9;
  w.serial_fraction = 0.0;
  w.bytes_per_flop = 0.0;
  w.barriers = 0;
  EXPECT_NEAR(predict_time(test_machine(), w, 1), 2.0, 1e-12);
  EXPECT_NEAR(predict_time(test_machine(), w, 4), 0.5, 1e-12);
}

TEST(PredictTimeTest, SerialFractionCapsSpeedup) {
  WorkloadModel w;
  w.work_ops = 1e9;
  w.serial_fraction = 0.2;
  w.barriers = 0;
  const double t1 = predict_time(test_machine(), w, 1);
  const double t_inf = predict_time(test_machine(), w, 1 << 20);
  EXPECT_NEAR(t1 / t_inf, 5.0, 0.01);  // 1/f = 5
}

TEST(PredictTimeTest, BandwidthCeilingBinds) {
  WorkloadModel w;
  w.work_ops = 1e9;
  w.serial_fraction = 0.0;
  w.bytes_per_flop = 100.0;  // 100 GB moved, bw 10 GB/s -> >= 10 s
  w.barriers = 0;
  EXPECT_NEAR(predict_time(test_machine(), w, 64), 10.0, 1e-9);
  // Ablation without the bandwidth term is much faster (and wrong).
  ModelAblation no_bw;
  no_bw.include_bandwidth = false;
  EXPECT_LT(predict_time_ablated(test_machine(), w, 64, no_bw), 0.1);
}

TEST(PredictTimeTest, BarrierCostGrowsWithCores) {
  WorkloadModel w;
  w.work_ops = 1e6;
  w.serial_fraction = 0.0;
  w.barriers = 100;
  const double t2 = predict_time(test_machine(), w, 2);
  const double t64 = predict_time(test_machine(), w, 64);
  ModelAblation no_barrier;
  no_barrier.include_barriers = false;
  const double t64_nb = predict_time_ablated(test_machine(), w, 64,
                                             no_barrier);
  EXPECT_GT(t64, t64_nb);
  EXPECT_GT(t64 - t64_nb, t2 - predict_time_ablated(test_machine(), w, 2,
                                                    no_barrier));
}

class MonotoneScalingTest : public ::testing::TestWithParam<double> {};

TEST_P(MonotoneScalingTest, ComputeTimeNeverIncreasesWithoutBarriers) {
  WorkloadModel w;
  w.work_ops = 5e9;
  w.serial_fraction = GetParam();
  w.bytes_per_flop = 1.0;
  w.barriers = 0;  // barrier cost is the only non-monotone term
  double prev = predict_time(test_machine(), w, 1);
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const double cur = predict_time(test_machine(), w, p);
    EXPECT_LE(cur, prev + 1e-12) << "p=" << p;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, MonotoneScalingTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 1.0));

TEST(ScalingCurveTest, SpeedupAndEfficiencyConsistent) {
  WorkloadModel w;
  w.work_ops = 1e9;
  w.serial_fraction = 0.05;
  const std::vector<std::size_t> cores = {1, 2, 4, 8};
  const auto curve = strong_scaling_curve(test_machine(), w, cores);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].speedup, 1.0);
  for (const auto& pt : curve)
    EXPECT_NEAR(pt.efficiency, pt.speedup / pt.cores, 1e-12);
}

TEST(PredictTimeTest, RejectsBadInputs) {
  WorkloadModel w;
  EXPECT_THROW(predict_time(test_machine(), w, 0), rcr::Error);
  w.serial_fraction = 1.5;
  EXPECT_THROW(predict_time(test_machine(), w, 1), rcr::Error);
  MachineModel bad = test_machine();
  bad.core_gflops = 0.0;
  EXPECT_THROW(predict_time(bad, WorkloadModel{}, 1), rcr::Error);
}

// --- discrete-event fork-join ----------------------------------------------------

TEST(ForkJoinTest, SingleCoreSumsDurations) {
  const std::vector<double> tasks = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 1), 6.0);
}

TEST(ForkJoinTest, PerfectSplitAcrossCores) {
  const std::vector<double> tasks(8, 1.0);
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 4), 2.0);
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 8), 1.0);
  // More cores than tasks: bounded by the longest task.
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 100), 1.0);
}

TEST(ForkJoinTest, ImbalanceDominates) {
  const std::vector<double> tasks = {10.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 4), 10.0);
  // Greedy list scheduling on 2 cores: 10 | 1+1+1 -> makespan 10.
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 2), 10.0);
}

TEST(ForkJoinTest, SerialAndBarrierAdded) {
  const std::vector<double> tasks = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 2, 0.5, 0.25), 1.75);
}

TEST(ForkJoinTest, AgreesWithAnalyticModelWithoutJitter) {
  const auto machine = test_machine();
  WorkloadModel w;
  w.work_ops = 4e9;
  w.serial_fraction = 0.1;
  w.barriers = 0;
  for (std::size_t p : {1, 2, 4, 16}) {
    const auto tasks = make_task_durations(machine, w, p);  // p equal tasks
    const double serial_s = w.serial_fraction * w.work_ops / 1e9;
    const double des = simulate_fork_join(tasks, p, serial_s);
    const double analytic = predict_time(machine, w, p);
    EXPECT_NEAR(des, analytic, analytic * 1e-9) << "p=" << p;
  }
}

TEST(ForkJoinTest, JitterIsDeterministicAndBounded) {
  const auto machine = test_machine();
  WorkloadModel w;
  w.work_ops = 1e9;
  const auto a = make_task_durations(machine, w, 64, 0.3, 5);
  const auto b = make_task_durations(machine, w, 64, 0.3, 5);
  EXPECT_EQ(a, b);
  const double base = (1.0 - w.serial_fraction) * 1.0 / 64.0;
  for (double d : a) {
    EXPECT_GE(d, base * 0.699);
    EXPECT_LE(d, base * 1.301);
  }
}

TEST(ForkJoinTest, RejectsBadInput) {
  EXPECT_THROW(simulate_fork_join(std::vector<double>{1.0}, 0), rcr::Error);
  EXPECT_THROW(simulate_fork_join(std::vector<double>{-1.0}, 1), rcr::Error);
}

// For p >= 2, des_time is exactly the hand-built fork-join set-up: 4
// jittered tasks per core, the serial fraction, and one log2(p) barrier.
TEST(DesTimeTest, MatchesHandBuiltForkJoinBitForBit) {
  const auto machine = test_machine();
  WorkloadModel w;
  w.work_ops = 3e8;
  w.serial_fraction = 0.02;
  for (std::uint64_t seed : {1u, 5u}) {
    for (std::size_t p : {2u, 8u, 64u}) {
      const double by_hand = simulate_fork_join(
          make_task_durations(machine, w, 4 * p, 0.2, seed), p,
          w.serial_fraction * w.work_ops / (machine.core_gflops * 1e9),
          machine.barrier_latency_us * 1e-6 *
              std::log2(static_cast<double>(std::max<std::size_t>(2, p))));
      EXPECT_EQ(des_time(machine, w, p, 0.2, seed), by_hand)
          << "p=" << p << " seed=" << seed;
    }
  }
}

// The barrier term, as des_time charges it: the difference the machine's
// barrier latency makes.
double des_barrier_term(const WorkloadModel& w, std::size_t p) {
  MachineModel no_barrier = test_machine();
  no_barrier.barrier_latency_us = 0.0;
  return des_time(test_machine(), w, p, 0.2, 1) -
         des_time(no_barrier, w, p, 0.2, 1);
}

TEST(DesTimeTest, ChargesBarriersAsPredictTimeDoes) {
  WorkloadModel one;
  one.work_ops = 3e8;
  WorkloadModel four = one;
  four.barriers = 4;
  // None at one core.
  EXPECT_EQ(des_barrier_term(one, 1), 0.0);
  EXPECT_EQ(des_barrier_term(four, 1), 0.0);
  for (std::size_t p : {2u, 16u, 256u}) {
    const double term = des_barrier_term(one, p);
    EXPECT_NEAR(term, 5e-6 * std::log2(static_cast<double>(p)), 1e-12)
        << "p=" << p;
    EXPECT_NEAR(des_barrier_term(four, p), 4.0 * term, 1e-12) << "p=" << p;
  }
}

// Brute-force reference scheduler: the core-free times as a plain array,
// each task assigned by a linear scan for the minimum. Same greedy policy
// the heap implements — but independent code, so the property test below
// catches any heap bookkeeping slip (the "more cores than tasks" branch
// the heap path once carried was unreachable precisely because the heap
// is seeded with min(cores, tasks) slots; this reference pins the
// behavior that branch claimed to handle).
double brute_force_list_schedule(const std::vector<double>& tasks,
                                 std::size_t cores) {
  std::vector<double> free_at(std::min(cores, tasks.size()), 0.0);
  double makespan = 0.0;
  for (double d : tasks) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < free_at.size(); ++c)
      if (free_at[c] < free_at[best]) best = c;
    free_at[best] += d;
    makespan = std::max(makespan, free_at[best]);
  }
  return makespan;
}

TEST(ForkJoinTest, MatchesBruteForceScheduleOnRandomTaskSets) {
  // Deterministic pseudo-random task sets: sizes crossing the task/core
  // boundary in both directions, including the tasks < cores regime the
  // removed dead branch claimed to serve.
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / static_cast<double>(1 << 24);
  };
  for (std::size_t n : {1u, 3u, 7u, 16u, 61u}) {
    for (std::size_t cores : {1u, 2u, 5u, 16u, 64u}) {
      std::vector<double> tasks(n);
      for (double& d : tasks) d = next() * 10.0;
      const double expected = brute_force_list_schedule(tasks, cores);
      EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, cores), expected)
          << "n=" << n << " cores=" << cores;
    }
  }
}

TEST(ForkJoinTest, MoreCoresThanTasksIsBoundedByLongestTask) {
  // tasks <= cores: every task starts at 0 on its own core, so the
  // parallel phase is exactly max(duration) and the overheads add on top.
  const std::vector<double> tasks = {0.5, 2.5, 1.0};
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 3), 2.5);
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 1000), 2.5);
  EXPECT_DOUBLE_EQ(simulate_fork_join(tasks, 8, 0.25, 0.125), 2.875);
  // Empty task list: just the serial and barrier terms.
  EXPECT_DOUBLE_EQ(simulate_fork_join(std::vector<double>{}, 4, 1.5, 0.5),
                   2.0);
}

// --- cluster queueing -------------------------------------------------------------

JobStreamConfig light_config() {
  JobStreamConfig c;
  c.jobs = 300;
  c.arrival_rate_per_hour = 6.0;   // light load
  c.runtime_log_mu = 6.0;          // ~7 min median
  c.runtime_log_sigma = 1.0;
  c.max_cores = 64;
  c.seed = 5;
  return c;
}

TEST(JobStreamTest, GeneratedStreamIsSane) {
  const auto jobs = generate_job_stream(light_config());
  ASSERT_EQ(jobs.size(), 300u);
  double prev = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.submit_time, prev);
    prev = j.submit_time;
    EXPECT_GE(j.cores, 1u);
    EXPECT_LE(j.cores, 64u);
    // Power-of-two widths.
    EXPECT_EQ(j.cores & (j.cores - 1), 0u);
    EXPECT_GT(j.runtime, 0.0);
  }
}

TEST(ClusterTest, EveryJobRunsAndMetricsConsistent) {
  auto jobs = generate_job_stream(light_config());
  const auto m = simulate_cluster(jobs, 128, SchedulerPolicy::kFcfs);
  EXPECT_EQ(m.jobs, jobs.size());
  for (const auto& j : jobs) EXPECT_GE(j.start_time, j.submit_time);
  EXPECT_GE(m.mean_wait, 0.0);
  EXPECT_LE(m.median_wait, m.p95_wait);
  EXPECT_LE(m.p95_wait, m.max_wait + 1e-9);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
  EXPECT_GE(m.mean_bounded_slowdown, 1.0);
}

TEST(ClusterTest, LightLoadMeansNearZeroWait) {
  auto cfg = light_config();
  cfg.arrival_rate_per_hour = 1.0;
  auto jobs = generate_job_stream(cfg);
  const auto m = simulate_cluster(jobs, 512, SchedulerPolicy::kFcfs);
  EXPECT_LT(m.median_wait, 1.0);  // essentially no queueing
}

TEST(ClusterTest, HeavierLoadMeansLongerWaits) {
  auto cfg = light_config();
  cfg.jobs = 600;
  cfg.arrival_rate_per_hour = 8.0;
  auto light = generate_job_stream(cfg);
  const auto m_light = simulate_cluster(light, 96, SchedulerPolicy::kFcfs);
  cfg.arrival_rate_per_hour = 80.0;
  auto heavy = generate_job_stream(cfg);
  const auto m_heavy = simulate_cluster(heavy, 96, SchedulerPolicy::kFcfs);
  EXPECT_GT(m_heavy.mean_wait, m_light.mean_wait);
  EXPECT_GT(m_heavy.utilization, m_light.utilization);
}

TEST(ClusterTest, BackfillDoesNotHurtMeanWait) {
  auto cfg = light_config();
  cfg.jobs = 800;
  cfg.arrival_rate_per_hour = 40.0;
  auto a = generate_job_stream(cfg);
  auto b = a;  // identical trace
  const auto fcfs = simulate_cluster(a, 128, SchedulerPolicy::kFcfs);
  const auto easy = simulate_cluster(b, 128, SchedulerPolicy::kEasyBackfill);
  EXPECT_LE(easy.mean_wait, fcfs.mean_wait * 1.02 + 1.0);
  // Both policies run everything.
  EXPECT_EQ(fcfs.jobs, easy.jobs);
}

TEST(ClusterTest, FcfsPreservesStartOrder) {
  auto jobs = generate_job_stream(light_config());
  simulate_cluster(jobs, 128, SchedulerPolicy::kFcfs);
  // Under FCFS with homogeneous capacity, start times are non-decreasing in
  // submit order only when widths fit; weaker invariant: a job never starts
  // before an earlier-submitted job that was already startable... checking
  // the simple sanity version: sorted submit order has sorted start for
  // equal-width neighbours.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    if (jobs[i].cores == jobs[i - 1].cores) {
      EXPECT_GE(jobs[i].start_time, jobs[i - 1].start_time - 1e-9);
    }
  }
}

TEST(ClusterTest, RejectsOversizedJob) {
  std::vector<Job> jobs = {{0.0, 100, 10.0, -1.0}};
  EXPECT_THROW(simulate_cluster(jobs, 64, SchedulerPolicy::kFcfs),
               rcr::Error);
  std::vector<Job> empty;
  EXPECT_THROW(simulate_cluster(empty, 64, SchedulerPolicy::kFcfs),
               rcr::Error);
}

TEST(SchedulerLabelTest, Labels) {
  EXPECT_STREQ(scheduler_label(SchedulerPolicy::kFcfs), "FCFS");
  EXPECT_STREQ(scheduler_label(SchedulerPolicy::kEasyBackfill),
               "EASY-backfill");
}

}  // namespace
}  // namespace rcr::sim
