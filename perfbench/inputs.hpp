// Generated inputs shared by the workloads: survey respondents and the
// serving query catalog, plus the cold-engine reference bodies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "serve/protocol.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace perfbench {

// `n` distinct servable specs over the survey instrument's columns: every
// crosstab, numeric summary and group-answered shape first interleaved with
// share queries, whose confidence level makes each entry distinct (many
// dashboards over one snapshot). A pure function of `n`.
std::vector<rcr::serve::QuerySpec> make_catalog(std::size_t n);

// Rows [first, first + count) of the respondent sequence calibrated for
// `year` and drawn from `seed` (synth::generate_range: disjoint ranges are
// distinct people, and [0, n) is exactly synth::generate_wave's table).
rcr::data::Table survey_rows(double year, std::uint64_t seed,
                             std::size_t first, std::size_t count,
                             rcr::parallel::ThreadPool* pool);

// Cold reference bodies: the specs registered on fresh QueryEngines over
// `table`, each run once, and encoded as the server would encode them.
std::vector<std::vector<std::uint8_t>> cold_bodies(
    const rcr::data::Table& table,
    const std::vector<rcr::serve::QuerySpec>& specs,
    rcr::parallel::ThreadPool* pool);

}  // namespace perfbench
