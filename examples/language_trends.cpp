// Full two-wave trend study for programming languages: shares with CIs,
// Holm-corrected significance, and a fitted logistic adoption curve.
//
//   ./build/examples/language_trends [--n2011 120] [--n2024 650] [--seed 7]
#include <algorithm>
#include <iostream>

#include "core/rcr.hpp"

int main(int argc, char** argv) {
  rcr::CliParser cli(argc, argv);
  rcr::core::StudyConfig config;
  config.n_2011 = static_cast<std::size_t>(cli.get_int_or("n2011", 120));
  config.n_2024 = static_cast<std::size_t>(cli.get_int_or("n2024", 650));
  config.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 7));
  cli.finish();

  const rcr::core::Study study(config);

  // Battery of share trends across all languages, Holm-adjusted, from each
  // wave's fused-engine language shares.
  const auto battery = rcr::trend::option_battery_from_shares(
      study.aggregates(0).languages, study.aggregates(1).languages);
  rcr::report::TextTable table(
      {"Language", "2011", "2024", "Δ (pp)", "p (Holm)", "Trend"});
  for (const auto& t : battery) {
    table.add_row(
        {t.indicator, rcr::format_percent(t.share1.estimate, 1),
         rcr::format_percent(t.share2.estimate, 1),
         rcr::format_double(100.0 * (t.share2.estimate - t.share1.estimate),
                            1),
         rcr::report::p_cell(t.p_adjusted),
         rcr::trend::direction_label(t.direction)});
  }
  std::cout << "Language usage, 2011 vs 2024 (n=" << config.n_2011 << "/"
            << config.n_2024 << ")\n"
            << table.render() << "\n";

  // Did the full primary-language distribution shift?
  const auto shift = rcr::trend::distribution_shift_test(
      study.wave(0), study.wave(1), rcr::synth::col::kPrimaryLanguage);
  std::cout << "primary-language mix shift: chi2="
            << rcr::format_double(shift.statistic, 1)
            << ", p=" << rcr::report::p_cell(shift.p_value)
            << ", Cramer's V=" << rcr::format_double(shift.cramers_v, 2)
            << "\n\n";

  // Logistic adoption curve for Python, from the counts behind its trend.
  const auto python = std::find_if(
      battery.begin(), battery.end(),
      [](const rcr::trend::ShareTrend& t) { return t.indicator == "Python"; });
  if (python == battery.end()) return 1;
  const auto curve = rcr::trend::fit_adoption_curve(
      python->count1, python->n1, 2011, python->count2, python->n2, 2024);
  std::cout << "Python adoption curve: P(year) = sigmoid("
            << rcr::format_double(curve.intercept, 2) << " + "
            << rcr::format_double(curve.slope_per_year, 3)
            << " * (year - 2011))\n";
  for (int year = 2011; year <= 2027; year += 4) {
    std::cout << "  " << year << ": "
              << rcr::format_percent(curve.predict(year), 1) << "\n";
  }
  return 0;
}
