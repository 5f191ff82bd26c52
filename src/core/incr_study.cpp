#include "core/incr_study.hpp"

#include <utility>

#include "data/snapshot.hpp"
#include "synth/domain.hpp"
#include "util/error.hpp"

namespace rcr::core {

IncrStudy::IncrStudy(IncrStudyConfig config)
    : config_(std::move(config)),
      schema_(synth::instrument().make_table()),
      engine_(schema_) {
  register_wave_aggregates(engine_);
}

std::size_t IncrStudy::run(const CutCallback& on_cut) {
  if (!config_.snapshot_path.empty()) {
    data::for_each_snapshot_block(
        config_.snapshot_path,
        [&](const data::Table& block, std::size_t /*first_row*/) {
          ingest(block);
          if (on_cut) on_cut(aggregates(), rows());
        });
  } else {
    synth::generate_blocks(
        {config_.wave, config_.respondents, config_.seed, config_.pool,
         config_.nonresponse_strength},
        config_.block_rows,
        [&](data::Table block, std::size_t /*first_row*/) {
          ingest(block);
          if (on_cut) on_cut(aggregates(), rows());
        });
  }
  return rows();
}

void IncrStudy::ingest(const data::Table& block) {
  engine_.append(block, config_.pool);
  ++blocks_;
}

const WaveAggregates& IncrStudy::aggregates() {
  if (!built_ || built_at_rows_ != engine_.row_count()) {
    current_ = wave_aggregates(engine_);
    built_ = true;
    built_at_rows_ = engine_.row_count();
  }
  return current_;
}

}  // namespace rcr::core
