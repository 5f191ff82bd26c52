// Golden-artifact registry: every reproducible artifact of the study is
// pinned by the XXH64 (seed 0) of its printed bytes, so "every output is
// unchanged" is a tier-1 check instead of a hand comparison of captures.
//
//   * T1–T8 and F1–F10: the experiment bodies of one two-wave Study at the
//     reference sizes (50,000 / 250,000 rows, seed 3). F5 prints host
//     timings, so it is pinned by its serial-vs-parallel "checksum diff"
//     values alone, each followed by '\n'.
//   * L1: the longitudinal battery of a three-wave study (2011 / 2017 /
//     2024 at 2,000 / 2,000 / 5,000 rows, seed 3, the 2024 wave raked).
//   * M2: render_stream_report of the streaming study (100,000 rows,
//     seed 7, 65,536-row blocks).
//
// Every artifact is computed with no pool and on a 4-thread pool, and both
// must match the same entry. A deliberate re-pin is a reviewed edit of
// kGolden below; on a mismatch the test prints the complete replacement
// table to paste, and the change log names every entry that moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "core/stream_study.hpp"
#include "core/study.hpp"
#include "parallel/thread_pool.hpp"
#include "report/experiment.hpp"
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
    {"F5", 0xfc8fb3b32cc70a2fULL},
    {"F6", 0x3019daf58434a570ULL},
    {"F7", 0xc85f417bad58207dULL},
    {"F8", 0x848a3892b0bbb0ddULL},
    {"F9", 0x46f908d9407008cfULL},
    {"F10", 0xb411a8e126d88d8cULL},
    {"L1", 0xe879eee2b99b8b2eULL},
    {"M2", 0x4a2b47f799e6ccdfULL},
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

// F5's reproducible part: the text after "checksum diff " on every
// "kernel " line, one value per line.
std::string f5_checksum_values(const std::string& body) {
  std::istringstream in(body);
  std::string line, values;
  while (std::getline(in, line)) {
    if (line.rfind("kernel ", 0) != 0) continue;
    const auto at = line.find("checksum diff ");
    if (at == std::string::npos) continue;
    values += line.substr(at + 14) + '\n';
  }
  return values;
}

// Hashes of every experiment registered for `study`, or of `only` alone.
Hashes experiment_hashes(const Study& study, const std::string& only = "") {
  report::ExperimentRegistry registry;
  register_all_experiments(registry, study);
  Hashes out;
  for (const auto& e : registry.all()) {
    if (!only.empty() && e.id != only) continue;
    const std::string body = e.run();
    out.emplace_back(e.id, hash_of(e.id == "F5" ? f5_checksum_values(body)
                                                : body));
  }
  EXPECT_FALSE(out.empty()) << "no registered experiment " << only;
  return out;
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
  // Every entry but L1 and M2 comes from this study; a new experiment
  // fails as unpinned, a dropped one fails here.
  EXPECT_EQ(hashes.size(), std::size(kGolden) - 2);
  expect_pinned(hashes, where("two-wave study"));
}

TEST_P(GoldenArtifactsTest, LongitudinalBattery) {
  StudyConfig config;
  config.seed = 3;
  config.pool = pool();
  config.waves = {{synth::kYear2011, 2000, "", false, 0},
                  {2017.0, 2000, "", false, 0},
                  {synth::kYear2024, 5000, "", true, 0}};
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

INSTANTIATE_TEST_SUITE_P(Threads, GoldenArtifactsTest,
                         ::testing::Values(std::size_t{0}, std::size_t{4}));

}  // namespace
}  // namespace rcr::core
