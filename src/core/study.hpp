// Study: the end-to-end object of the reproduction — every survey wave plus
// the machinery to analyze them. Examples, benches, and integration tests
// all start here.
//
// A study holds N >= 2 time-ordered waves described by WaveSpec entries
// (calendar year, size or snapshot path, seed salt). The historical
// two-wave 2011→2024 shape is the default configuration: its waves are
// indices 0 and 1, and their outputs are byte-identical to the pre-N-wave
// code (same generator streams, same seeds, same fused aggregate scans).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "survey/weighting.hpp"
#include "synth/generator.hpp"

namespace rcr::query {
class QueryEngine;
}

namespace rcr::core {

// One wave of a longitudinal study.
struct WaveSpec {
  double year = 2024.0;   // calendar year; waves must be strictly ordered
  std::size_t n = 0;      // respondents to synthesize (ignored with snapshot)
  // When non-empty, the wave is loaded from an rcr::data snapshot
  // (data/snapshot.hpp, memory-mapped zero-copy) instead of being
  // synthesized; n and the seed are ignored for that wave. A snapshot
  // written from a generated wave reloads it bitwise, so every downstream
  // aggregate is byte-identical to the synthesized run.
  std::string snapshot;
  // Seed salt XORed into StudyConfig.seed for this wave's generator
  // stream. 0 applies the default rule, which reproduces the legacy
  // streams exactly: wave 0 draws from the seed itself, wave 1 from
  // seed ^ 0xA5A5A5A5, and waves 2+ from a year-derived hash (so every
  // wave is an independent sample).
  std::uint64_t seed_salt = 0;
};

struct StudyConfig {
  std::size_t n_2011 = 120;   // 2011 field study reached ~10^2 researchers
  std::size_t n_2024 = 650;   // the revisit reaches a larger population
  std::uint64_t seed = 7;
  rcr::parallel::ThreadPool* pool = nullptr;
  // Legacy two-wave snapshot paths (see WaveSpec::snapshot).
  std::string snapshot_2011;
  std::string snapshot_2024;
  // N-wave form: when non-empty these specs define the study and the
  // legacy fields above are ignored. Empty (the default) maps to the
  // classic pair {2011, n_2011, snapshot_2011} / {2024, n_2024,
  // snapshot_2024}. Waves at the anchor years synthesize from the
  // calibrated anchor parameters; intermediate years interpolate
  // (synth::interpolated_params), so a 3+-wave study tracks the same
  // secular drift the two anchors pin down.
  std::vector<WaveSpec> waves;
};

// Every standard aggregate of one wave that the reproduced tables/figures
// consume, produced by a single fused query::QueryEngine scan of that wave
// (DESIGN.md "query"): the experiments read from here instead of issuing
// one full-table scan per crosstab/share. Numbers are bitwise identical to
// the serial reference builders (tests/query_reference.hpp). The streaming
// study (core/stream_study.hpp) builds the same struct block by block.
struct WaveAggregates {
  data::LabeledCrosstab field_by_career;           // T1
  data::LabeledCrosstab field_by_languages;        // T2
  data::LabeledCrosstab field_by_se;               // T4
  std::vector<data::OptionShare> languages;        // T2, T6, F1
  std::vector<data::OptionShare> se_practices;     // T4, T6
  std::vector<data::OptionShare> parallel_resources;  // T6
  std::vector<data::OptionShare> tools_aware;      // T5
  std::vector<data::OptionShare> tools_used;       // T5
  std::vector<data::OptionShare> gpu_usage;        // T6 (category shares)
  // Per-field counts of rows answering the multi-select — the row
  // denominators T2/T4 previously rebuilt with group_rows() walks.
  std::vector<double> field_answered_languages;
  std::vector<double> field_answered_se;
};

// The eleven queries behind WaveAggregates. register_wave_aggregates adds
// them to an engine with no queries yet, in the order that fixes the cell
// layout; wave_aggregates reads them back once the engine has folded rows.
// Study's cold run and the streaming study's appends (core/stream_study.hpp)
// share both, so their answers are bit-comparable.
void register_wave_aggregates(query::QueryEngine& engine);
WaveAggregates wave_aggregates(const query::QueryEngine& engine);

class Study {
 public:
  explicit Study(const StudyConfig& config = {});

  const StudyConfig& config() const { return config_; }

  // --- N-wave surface -------------------------------------------------------
  std::size_t wave_count() const { return waves_.size(); }
  const WaveSpec& wave_spec(std::size_t w) const;
  double wave_year(std::size_t w) const { return wave_spec(w).year; }
  const data::Table& wave(std::size_t w) const;

  // Fused aggregates of wave `w`, computed on first use by one engine scan
  // on the configured pool (results are pool-size invariant).
  const WaveAggregates& aggregates(std::size_t w) const;

  // Raking weights for wave `w` against the calibrated population
  // field/career mix of its calendar year (computed on first use).
  const survey::RakingResult& weights(std::size_t w) const;

 private:
  StudyConfig config_;
  std::vector<WaveSpec> specs_;      // resolved (salts applied)
  std::vector<data::Table> waves_;
  mutable std::vector<std::unique_ptr<survey::RakingResult>> weights_;
  mutable std::vector<std::unique_ptr<WaveAggregates>> aggregates_;
};

// --- Derived indicators shared by several experiments ----------------------

// Parallelism ladder rungs, ordered by capability.
enum class ParallelRung { kSerialOnly, kMulticore, kCluster, kGpu };
const char* rung_label(ParallelRung r);

// One pass over a wave's parallel_resources answers: the rows answering it
// and, indexed by ParallelRung, how many reach each rung as their highest.
// GPU outranks cluster (the 2024-defining capability); cloud counts as
// cluster-class capacity.
struct RungCounts {
  double answered = 0.0;
  std::array<double, 4> at_rung{};
};
RungCounts rung_counts(const data::Table& table);

}  // namespace rcr::core
