// Tests for the simulator extensions: SJF scheduling.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace rcr::sim {
namespace {

TEST(SjfTest, LabelAndBasicRun) {
  EXPECT_STREQ(scheduler_label(SchedulerPolicy::kShortestFirst), "SJF");
  JobStreamConfig cfg;
  cfg.jobs = 400;
  cfg.arrival_rate_per_hour = 30.0;
  cfg.max_cores = 64;
  cfg.seed = 11;
  auto jobs = generate_job_stream(cfg);
  const auto m = simulate_cluster(jobs, 128, SchedulerPolicy::kShortestFirst);
  EXPECT_EQ(m.jobs, jobs.size());
  for (const auto& j : jobs) EXPECT_GE(j.start_time, j.submit_time);
}

TEST(SjfTest, ShortJobJumpsLongQueue) {
  // One long job occupies the machine; a long and then a short job queue
  // behind it. SJF starts the short one first.
  std::vector<Job> jobs = {
      {0.0, 4, 1000.0, -1.0},   // hog: takes the whole cluster
      {1.0, 4, 500.0, -1.0},    // long waiter (earlier submit)
      {2.0, 4, 10.0, -1.0},     // short waiter (later submit)
  };
  auto fcfs = jobs;
  simulate_cluster(fcfs, 4, SchedulerPolicy::kFcfs);
  EXPECT_LT(fcfs[1].start_time, fcfs[2].start_time);  // FCFS keeps order

  auto sjf = jobs;
  simulate_cluster(sjf, 4, SchedulerPolicy::kShortestFirst);
  EXPECT_LT(sjf[2].start_time, sjf[1].start_time);  // SJF reorders
}

TEST(SjfTest, ImprovesBoundedSlowdownUnderLoad) {
  JobStreamConfig cfg;
  cfg.jobs = 800;
  cfg.arrival_rate_per_hour = 60.0;
  cfg.max_cores = 64;
  cfg.seed = 13;
  auto a = generate_job_stream(cfg);
  auto b = a;
  const auto fcfs = simulate_cluster(a, 96, SchedulerPolicy::kFcfs);
  const auto sjf = simulate_cluster(b, 96, SchedulerPolicy::kShortestFirst);
  // SJF optimizes exactly this metric (short jobs stop waiting behind
  // long ones); allow equality for light stretches.
  EXPECT_LE(sjf.mean_bounded_slowdown, fcfs.mean_bounded_slowdown + 1e-9);
}

}  // namespace
}  // namespace rcr::sim
