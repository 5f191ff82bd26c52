#include "inputs.hpp"

#include <algorithm>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "synth/calibration.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"

namespace perfbench {

namespace {

namespace col = rcr::synth::col;

const std::vector<std::string>& categorical() {
  static const std::vector<std::string> v = {
      col::kField, col::kCareerStage, col::kPrimaryLanguage, col::kGpuUsage};
  return v;
}
const std::vector<std::string>& multiselect() {
  static const std::vector<std::string> v = {
      col::kLanguages,   col::kParallelResources, col::kParallelModels,
      col::kSePractices, col::kToolsAware,        col::kToolsUsed};
  return v;
}
const std::vector<std::string>& numeric() {
  static const std::vector<std::string> v = {
      col::kYearsProgramming, col::kTimeProgramming, col::kCoresTypical,
      col::kDatasetGb, col::kExpertise};
  return v;
}

}  // namespace

std::vector<rcr::serve::QuerySpec> make_catalog(std::size_t n) {
  using rcr::serve::QueryKind;
  using rcr::serve::QuerySpec;

  std::vector<std::string> weights = {""};
  weights.insert(weights.end(), numeric().begin(), numeric().end());

  std::vector<QuerySpec> shaped;
  for (const auto& a : categorical()) {
    for (const auto& b : categorical())
      if (a != b)
        for (const auto& w : weights)
          shaped.push_back({QueryKind::kCrosstab, a, b, w, 0.95});
    for (const auto& b : multiselect())
      for (const auto& w : weights)
        shaped.push_back({QueryKind::kCrosstabMultiselect, a, b, w, 0.95});
    for (const auto& b : multiselect())
      shaped.push_back({QueryKind::kGroupAnswered, a, b, "", 0.95});
    for (const auto& b : numeric())
      shaped.push_back({QueryKind::kGroupAnswered, a, b, "", 0.95});
  }
  for (const auto& a : numeric())
    shaped.push_back({QueryKind::kNumericSummary, a, "", "", 0.95});

  std::vector<std::string> share_cols = categorical();
  share_cols.insert(share_cols.end(), multiselect().begin(),
                    multiselect().end());

  // One shaped spec every 16 entries, share specs in between.
  std::vector<QuerySpec> out;
  out.reserve(n);
  std::size_t next_shaped = 0, next_share = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 16 == 0 && next_shaped < shaped.size()) {
      out.push_back(shaped[next_shaped++]);
      continue;
    }
    const std::size_t c = next_share % share_cols.size();
    const std::size_t level = next_share / share_cols.size();
    ++next_share;
    const bool categorical_col = c < categorical().size();
    out.push_back({categorical_col ? QueryKind::kCategoryShares
                                   : QueryKind::kOptionShares,
                   share_cols[c], "", "",
                   0.80 + 0.0004 * static_cast<double>(level)});
  }
  return out;
}

rcr::data::Table survey_rows(double year, std::uint64_t seed,
                             std::size_t first, std::size_t count,
                             rcr::parallel::ThreadPool* pool) {
  const rcr::synth::WaveParams params = rcr::synth::interpolated_params(year);
  rcr::synth::GeneratorConfig gc;
  gc.wave = params.wave;
  gc.respondents = first + count;
  gc.seed = seed;
  gc.pool = pool;
  gc.params = &params;
  return rcr::synth::generate_range(gc, first, count);
}

std::vector<std::vector<std::uint8_t>> cold_bodies(
    const rcr::data::Table& table,
    const std::vector<rcr::serve::QuerySpec>& specs,
    rcr::parallel::ThreadPool* pool) {
  // Fresh engines of at most kChunk specs each: the reference stays a cold
  // run, and its partials stay small next to what the workload measures.
  constexpr std::size_t kChunk = 256;
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(specs.size());
  for (std::size_t lo = 0; lo < specs.size(); lo += kChunk) {
    const std::size_t hi = std::min(specs.size(), lo + kChunk);
    rcr::query::QueryEngine engine(table);
    std::vector<rcr::serve::QuerySpec> canon;
    std::vector<rcr::query::QueryId> ids;
    for (std::size_t i = lo; i < hi; ++i) {
      canon.push_back(rcr::serve::canonicalize(specs[i]));
      ids.push_back(rcr::serve::register_spec(engine, canon.back()));
    }
    engine.run(pool);
    for (std::size_t i = 0; i < canon.size(); ++i)
      out.push_back(rcr::serve::encode_result_body(engine, ids[i], canon[i]));
  }
  return out;
}

}  // namespace perfbench
