// Quickstart: generate a synthetic survey wave, crosstab it and read one
// share, both from one fused query-engine scan.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--n 400] [--seed 7]
#include <iostream>

#include "core/rcr.hpp"

int main(int argc, char** argv) {
  rcr::CliParser cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_or("n", 400));
  const auto seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 7));
  cli.finish();

  // 1. Generate one 2024 wave of synthetic respondents.
  const rcr::data::Table wave =
      rcr::synth::generate_wave({rcr::synth::Wave::k2024, n, seed, nullptr});
  std::cout << "generated " << wave.row_count() << " respondents, "
            << wave.column_count() << " questions\n\n";

  // 2. Validate it against the questionnaire (always clean for synthetic
  //    data; essential when ingesting a real CSV).
  const auto issues =
      rcr::survey::validate_responses(rcr::synth::instrument(), wave);
  std::cout << "validation issues: " << issues.size() << "\n\n";

  // 3. One fused scan answers both questions below: language usage by
  //    research field, and the overall share of each language.
  rcr::query::QueryEngine engine(wave);
  const auto by_field = engine.add_crosstab_multiselect(
      rcr::synth::col::kField, rcr::synth::col::kLanguages);
  const auto overall = engine.add_option_shares(rcr::synth::col::kLanguages);
  engine.run();

  const auto& ct = engine.crosstab(by_field);
  rcr::report::TextTable table({"Field", "Python", "C++", "MATLAB", "R"});
  const auto col_of = [&](const char* label) {
    for (std::size_t c = 0; c < ct.col_labels.size(); ++c)
      if (ct.col_labels[c] == label) return c;
    throw rcr::Error("missing language column");
  };
  for (std::size_t f = 0; f < ct.row_labels.size(); ++f) {
    const double total = ct.counts.row_total(f);
    if (total == 0.0) continue;
    table.add_row({ct.row_labels[f],
                   rcr::format_percent(ct.row_share(f, col_of("Python")), 0),
                   rcr::format_percent(ct.row_share(f, col_of("C++")), 0),
                   rcr::format_percent(ct.row_share(f, col_of("MATLAB")), 0),
                   rcr::format_percent(ct.row_share(f, col_of("R")), 0)});
  }
  std::cout << "language mix by field (share of per-field selections):\n"
            << table.render();

  // 4. One overall share with a proper confidence interval.
  for (const auto& s : engine.shares(overall)) {
    if (s.label != "Python") continue;
    std::cout << "\nPython usage: "
              << rcr::report::share_cell(s.share.estimate, s.share.lo,
                                         s.share.hi)
              << " of " << s.total << " respondents\n";
  }
  return 0;
}
