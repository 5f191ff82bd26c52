#include "core/study.hpp"

#include "data/snapshot.hpp"
#include "query/engine.hpp"
#include "synth/calibration.hpp"
#include "synth/domain.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rcr::core {

namespace {

// Ids of the wave aggregates, in registration order.
enum AggregateId : query::QueryId {
  kFieldByCareer, kFieldByLanguages, kFieldBySe, kLanguages, kSePractices,
  kParallelResources, kToolsAware, kToolsUsed, kGpuUsage,
  kFieldAnsweredLanguages, kFieldAnsweredSe,
};

// Default per-wave seed salt. Indices 0 and 1 reproduce the legacy
// 2011/2024 generator streams bit-for-bit; later waves derive an
// independent stream from their calendar year.
std::uint64_t default_salt(std::size_t index, double year) {
  if (index == 0) return 0;
  if (index == 1) return 0xA5A5A5A5ULL;
  return xxhash64(&year, sizeof year, 0x5EEDF00DULL + index);
}

// The study's wave list: explicit specs, or the classic 2011→2024 pair
// built from the legacy config fields.
std::vector<WaveSpec> resolve_specs(const StudyConfig& config) {
  std::vector<WaveSpec> specs = config.waves;
  if (specs.empty()) {
    specs.push_back({synth::kYear2011, config.n_2011, config.snapshot_2011, 0});
    specs.push_back({synth::kYear2024, config.n_2024, config.snapshot_2024, 0});
  }
  RCR_CHECK_MSG(specs.size() >= 2, "a study needs at least two waves");
  for (std::size_t w = 0; w < specs.size(); ++w) {
    WaveSpec& spec = specs[w];
    if (spec.seed_salt == 0) spec.seed_salt = default_salt(w, spec.year);
    RCR_CHECK_MSG(spec.n > 0 || !spec.snapshot.empty(),
                  "wave " + std::to_string(w) +
                      " needs respondents or a snapshot path");
    if (w > 0)
      RCR_CHECK_MSG(spec.year > specs[w - 1].year,
                    "study waves must be strictly time-ordered");
  }
  return specs;
}

data::Table materialize_wave(const WaveSpec& spec, const StudyConfig& config) {
  if (!spec.snapshot.empty()) return data::read_snapshot(spec.snapshot);
  // Anchor years get the calibrated anchor sets verbatim (interpolated_params
  // returns them exactly), so this one code path is byte-identical to the
  // legacy params_for-driven generation for 2011 and 2024 waves.
  const synth::WaveParams params = synth::interpolated_params(spec.year);
  synth::GeneratorConfig gc;
  gc.wave = params.wave;
  gc.respondents = spec.n;
  gc.seed = config.seed ^ spec.seed_salt;
  gc.pool = config.pool;
  gc.params = &params;
  return synth::generate_wave(gc);
}

}  // namespace

void register_wave_aggregates(query::QueryEngine& engine) {
  RCR_CHECK_MSG(engine.query_count() == 0,
                "wave aggregates register on an engine with no queries");
  // Each registration is pinned to the id wave_aggregates reads it by.
  const auto expect = [](query::QueryId got, AggregateId want) {
    RCR_CHECK_MSG(got == want, "wave aggregate registered out of order");
  };
  namespace col = synth::col;
  expect(engine.add_crosstab(col::kField, col::kCareerStage), kFieldByCareer);
  expect(engine.add_crosstab_multiselect(col::kField, col::kLanguages),
         kFieldByLanguages);
  expect(engine.add_crosstab_multiselect(col::kField, col::kSePractices),
         kFieldBySe);
  expect(engine.add_option_shares(col::kLanguages), kLanguages);
  expect(engine.add_option_shares(col::kSePractices), kSePractices);
  expect(engine.add_option_shares(col::kParallelResources),
         kParallelResources);
  expect(engine.add_option_shares(col::kToolsAware), kToolsAware);
  expect(engine.add_option_shares(col::kToolsUsed), kToolsUsed);
  expect(engine.add_category_shares(col::kGpuUsage), kGpuUsage);
  expect(engine.add_group_answered(col::kField, col::kLanguages),
         kFieldAnsweredLanguages);
  expect(engine.add_group_answered(col::kField, col::kSePractices),
         kFieldAnsweredSe);
}

WaveAggregates wave_aggregates(const query::QueryEngine& engine) {
  WaveAggregates a;
  a.field_by_career = engine.crosstab(kFieldByCareer);
  a.field_by_languages = engine.crosstab(kFieldByLanguages);
  a.field_by_se = engine.crosstab(kFieldBySe);
  a.languages = engine.shares(kLanguages);
  a.se_practices = engine.shares(kSePractices);
  a.parallel_resources = engine.shares(kParallelResources);
  a.tools_aware = engine.shares(kToolsAware);
  a.tools_used = engine.shares(kToolsUsed);
  a.gpu_usage = engine.shares(kGpuUsage);
  a.field_answered_languages = engine.group_answered(kFieldAnsweredLanguages);
  a.field_answered_se = engine.group_answered(kFieldAnsweredSe);
  return a;
}

Study::Study(const StudyConfig& config)
    : config_(config), specs_(resolve_specs(config)) {
  waves_.reserve(specs_.size());
  for (const WaveSpec& spec : specs_)
    waves_.push_back(materialize_wave(spec, config_));
  weights_.resize(specs_.size());
  aggregates_.resize(specs_.size());
}

const WaveSpec& Study::wave_spec(std::size_t w) const {
  RCR_CHECK_MSG(w < specs_.size(), "wave index out of range");
  return specs_[w];
}

const data::Table& Study::wave(std::size_t w) const {
  RCR_CHECK_MSG(w < waves_.size(), "wave index out of range");
  return waves_[w];
}

const survey::RakingResult& Study::weights(std::size_t w) const {
  RCR_CHECK_MSG(w < waves_.size(), "wave index out of range");
  if (!weights_[w]) {
    // Population targets: the calibrated strata mixes of the wave's year
    // are, by construction, the truth the sample was drawn from.
    const synth::WaveParams p = synth::interpolated_params(specs_[w].year);
    survey::MarginTarget field_target{synth::col::kField, {}};
    for (std::size_t f = 0; f < synth::fields().size(); ++f)
      field_target.shares[synth::fields()[f]] = p.field_mix[f];
    survey::MarginTarget career_target{synth::col::kCareerStage, {}};
    for (std::size_t c = 0; c < synth::career_stages().size(); ++c)
      career_target.shares[synth::career_stages()[c]] = p.career_mix[c];
    weights_[w] = std::make_unique<survey::RakingResult>(
        survey::rake_weights(waves_[w], {field_target, career_target}));
  }
  return *weights_[w];
}

const WaveAggregates& Study::aggregates(std::size_t w) const {
  RCR_CHECK_MSG(w < waves_.size(), "wave index out of range");
  if (!aggregates_[w]) {
    // One fused scan answers all eleven queries (one-query builders would
    // have scanned the wave eleven times).
    query::QueryEngine engine(waves_[w]);
    register_wave_aggregates(engine);
    engine.run(config_.pool);
    aggregates_[w] = std::make_unique<WaveAggregates>(wave_aggregates(engine));
  }
  return *aggregates_[w];
}

const char* rung_label(ParallelRung r) {
  switch (r) {
    case ParallelRung::kSerialOnly: return "Serial only";
    case ParallelRung::kMulticore: return "Multicore";
    case ParallelRung::kCluster: return "Cluster";
    case ParallelRung::kGpu: return "GPU";
  }
  return "?";
}

RungCounts rung_counts(const data::Table& table) {
  const auto& res = table.multiselect(synth::col::kParallelResources);
  const auto bit = [&](const char* label) {
    const std::int32_t i = res.find_option(label);
    RCR_CHECK_MSG(i >= 0, "resource option missing from schema");
    return std::uint64_t{1} << i;
  };
  const std::uint64_t gpu = bit("GPU");
  const std::uint64_t cluster_class = bit("Cluster") | bit("Cloud");
  const std::uint64_t multicore = bit("Multicore node");
  RungCounts counts;
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (res.is_missing(i)) continue;
    const std::uint64_t m = res.mask_at(i);
    const ParallelRung rung = (m & gpu)             ? ParallelRung::kGpu
                              : (m & cluster_class) ? ParallelRung::kCluster
                              : (m & multicore)     ? ParallelRung::kMulticore
                                                    : ParallelRung::kSerialOnly;
    counts.answered += 1.0;
    counts.at_rung[static_cast<std::size_t>(rung)] += 1.0;
  }
  return counts;
}

}  // namespace rcr::core
