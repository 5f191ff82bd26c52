// Golden-artifact registry: every reproducible artifact of the study is
// pinned by the XXH64 (seed 0) of its printed bytes, so "every output is
// unchanged" is a tier-1 check instead of a hand comparison of captures.
//
//   * T1–T8 and F1–F10: the experiment bodies of one two-wave Study at the
//     reference sizes (50,000 / 250,000 rows, seed 3).
//   * L1: the longitudinal battery of a three-wave study (2011 / 2017 /
//     2024 at 2,000 / 2,000 / 5,000 rows, seed 3).
//   * M2: render_stream_report of the streaming study (100,000 rows,
//     seed 7, 65,536-row blocks).
//   * A1 and A2: the ablation bodies (what bench_artifacts prints after
//     each banner line).
//   * S1/<cell>: each cell of sweep::standard_catalog() at master seed 7,
//     pinned by its metric fingerprint.
//
// Every artifact is computed with no pool and on a 4-thread pool, and both
// must match the same entry. A deliberate re-pin is a reviewed edit of
// kGolden below; on a mismatch the test prints the complete replacement
// table to paste, and the change log names every entry that moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "core/stream_study.hpp"
#include "core/study.hpp"
#include "parallel/thread_pool.hpp"
#include "report/experiment.hpp"
#include "sweep/scenarios.hpp"
#include "sweep/sweep.hpp"
#include "synth/calibration.hpp"
#include "util/hash.hpp"

namespace rcr::core {
namespace {

struct Golden {
  const char* id;
  std::uint64_t hash;
};

constexpr Golden kGolden[] = {
    {"T1", 0x32fb2c59af5607ddULL},
    {"T2", 0x534d02365f019696ULL},
    {"T3", 0xff1ce6c503b99bb1ULL},
    {"T4", 0x3614a6e3e6d49451ULL},
    {"T5", 0xe309765be3c36285ULL},
    {"T6", 0xec2c1e739348c99cULL},
    {"T7", 0x7b9c90858756db19ULL},
    {"T8", 0x75cfc83a8cb8fbb3ULL},
    {"F1", 0xadf390ba3eceb008ULL},
    {"F2", 0x7b0a4b0b8cabcfcbULL},
    {"F3", 0x4b301e37647c7857ULL},
    {"F4", 0xc588abf635872500ULL},
    {"F5", 0x9ed70083f786c61bULL},
    {"F6", 0x3019daf58434a570ULL},
    {"F7", 0xc85f417bad58207dULL},
    {"F8", 0x848a3892b0bbb0ddULL},
    {"F9", 0x46f908d9407008cfULL},
    {"F10", 0xb411a8e126d88d8cULL},
    {"L1", 0xe879eee2b99b8b2eULL},
    {"M2", 0x4a2b47f799e6ccdfULL},
    {"A1", 0x1be19064ec4734bdULL},
    {"A2", 0xfd9513954f863004ULL},
    {"S1/amdahl_f0.01_p8_full", 0xd7d99fc38507dc1dULL},
    {"S1/amdahl_f0.01_p8_no_bandwidth", 0x7fdbba76c36fc0a7ULL},
    {"S1/amdahl_f0.01_p8_no_barriers", 0x87c1bc7443d7bd60ULL},
    {"S1/amdahl_f0.01_p64_full", 0x13217d0a6875825cULL},
    {"S1/amdahl_f0.01_p64_no_bandwidth", 0x9aa294148b6eeae9ULL},
    {"S1/amdahl_f0.01_p64_no_barriers", 0xc3691542b9450845ULL},
    {"S1/amdahl_f0.05_p8_full", 0xed3eafa779042439ULL},
    {"S1/amdahl_f0.05_p8_no_bandwidth", 0x9fc0d708ccada572ULL},
    {"S1/amdahl_f0.05_p8_no_barriers", 0xe2c290fe986921caULL},
    {"S1/amdahl_f0.05_p64_full", 0x2acbf64a4f45a61dULL},
    {"S1/amdahl_f0.05_p64_no_bandwidth", 0xbe60c9be5586625fULL},
    {"S1/amdahl_f0.05_p64_no_barriers", 0x8c7a9ac609356678ULL},
    {"S1/queue_FCFS_rate20", 0x08b05fde0c1dc885ULL},
    {"S1/queue_EASY-backfill_rate20", 0x735338a407711efdULL},
    {"S1/queue_SJF_rate20", 0xdc6db08b91acd2eaULL},
    {"S1/queue_FCFS_rate40", 0x22b8f8b57450d54dULL},
    {"S1/queue_EASY-backfill_rate40", 0xfb6a2eeaa501bc0cULL},
    {"S1/queue_SJF_rate40", 0x79372c8c922aca83ULL},
    {"S1/network_bw12.5_halo100000", 0xdc2f2b5b97c494ceULL},
    {"S1/network_bw12.5_halo1000000", 0x2d7d83d6b7aaec21ULL},
    {"S1/network_bw1.25_halo100000", 0x391bfb25358f36f8ULL},
    {"S1/network_bw1.25_halo1000000", 0x0393472c07bdaeabULL},
    {"S1/population_y2011", 0x8a9da7affd683f7bULL},
    {"S1/population_y2017.5", 0x4e1aa8aa41ed1effULL},
    {"S1/population_y2024", 0x5e9f8651d1798b98ULL},
    {"S1/beta_a2_b5", 0xb04ba71c200931adULL},
    {"S1/beta_a5_b2", 0x8791fa414e641279ULL},
    {"S1/beta_a0.5_b0.5", 0x40fa115c75b8ae23ULL},
};

using Hashes = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t hash_of(const std::string& bytes) {
  return xxhash64(bytes.data(), bytes.size(), 0);
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
  return buf;
}

// Hashes of every experiment registered for `study`, or of `only` alone.
Hashes experiment_hashes(const Study& study, const std::string& only = "") {
  report::ExperimentRegistry registry;
  register_all_experiments(registry, study);
  Hashes out;
  for (const auto& e : registry.all()) {
    if (!only.empty() && e.id != only) continue;
    out.emplace_back(e.id, hash_of(e.run()));
  }
  EXPECT_FALSE(out.empty()) << "no registered experiment " << only;
  return out;
}

// Number of kGolden entries whose id starts with `prefix`.
std::size_t pinned_count(std::string_view prefix) {
  std::size_t n = 0;
  for (const Golden& g : kGolden)
    if (std::string_view(g.id).starts_with(prefix)) ++n;
  return n;
}

// Compares `actual` against kGolden. On any difference, names each artifact
// with its expected and actual hash and prints the complete replacement
// table (kGolden with every computed entry substituted).
void expect_pinned(const Hashes& actual, const std::string& where) {
  std::string mismatches;
  for (const auto& [id, hash] : actual) {
    const Golden* pinned = nullptr;
    for (const Golden& g : kGolden)
      if (id == g.id) pinned = &g;
    if (pinned == nullptr)
      mismatches += "  " + id + ": not pinned, actual " + hex(hash) + "\n";
    else if (pinned->hash != hash)
      mismatches += "  " + id + ": expected " + hex(pinned->hash) +
                    ", actual " + hex(hash) + "\n";
  }
  if (mismatches.empty()) return;
  std::string table = "constexpr Golden kGolden[] = {\n";
  for (const Golden& g : kGolden) {
    std::uint64_t hash = g.hash;
    for (const auto& [id, h] : actual)
      if (id == g.id) hash = h;
    table += "    {\"" + std::string(g.id) + "\", " + hex(hash) + "ULL},\n";
  }
  table += "};\n";
  ADD_FAILURE() << where << ": artifacts differ from the golden registry\n"
                << mismatches << "replacement table:\n"
                << table;
}

class GoldenArtifactsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  // nullptr at 0 threads: every artifact runs serially.
  parallel::ThreadPool* pool() {
    if (GetParam() == 0) return nullptr;
    if (!pool_) pool_ = std::make_unique<parallel::ThreadPool>(GetParam());
    return pool_.get();
  }
  std::string where(const char* what) const {
    return std::string(what) + " at threads=" + std::to_string(GetParam());
  }

 private:
  std::unique_ptr<parallel::ThreadPool> pool_;
};

TEST_P(GoldenArtifactsTest, StudyTablesAndFigures) {
  StudyConfig config;
  config.n_2011 = 50000;
  config.n_2024 = 250000;
  config.seed = 3;
  config.pool = pool();
  const Study study(config);
  const Hashes hashes = experiment_hashes(study);
  // Every T and F entry comes from this study; a new experiment fails as
  // unpinned, a dropped one fails here.
  EXPECT_EQ(hashes.size(), pinned_count("T") + pinned_count("F"));
  expect_pinned(hashes, where("two-wave study"));
}

TEST_P(GoldenArtifactsTest, LongitudinalBattery) {
  StudyConfig config;
  config.seed = 3;
  config.pool = pool();
  config.waves = {{synth::kYear2011, 2000, "", 0},
                  {2017.0, 2000, "", 0},
                  {synth::kYear2024, 5000, "", 0}};
  const Study study(config);
  expect_pinned(experiment_hashes(study, "L1"), where("three-wave study"));
}

TEST_P(GoldenArtifactsTest, StreamingStudyReport) {
  StreamStudyConfig config;
  config.respondents = 100000;
  config.seed = 7;
  config.block_rows = 65536;
  config.pool = pool();
  const std::string report = render_stream_report(run_stream_study(config));
  expect_pinned({{"M2", hash_of(report)}}, where("streaming study"));
}

TEST_P(GoldenArtifactsTest, Ablations) {
  expect_pinned({{"A1", hash_of(run_a1_model_ablation())},
                 {"A2", hash_of(run_a2_comm_model())}},
                where("ablations"));
}

TEST_P(GoldenArtifactsTest, ScenarioSweepCells) {
  sweep::SweepConfig config;
  config.seed = 7;
  config.pool = pool();
  Hashes hashes;
  for (const auto& cell : sweep::run_sweep(sweep::standard_catalog(), config))
    hashes.emplace_back("S1/" + cell.id, cell.fingerprint);
  EXPECT_EQ(hashes.size(), pinned_count("S1/"));
  expect_pinned(hashes, where("scenario sweep"));
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenArtifactsTest,
                         ::testing::Values(std::size_t{0}, std::size_t{4}));

}  // namespace
}  // namespace rcr::core
