#include <algorithm>
#include <cmath>

#include "core/experiments.hpp"
#include "data/crosstab.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "stats/contingency.hpp"
#include "synth/domain.hpp"
#include "trend/trend.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rcr::core {

namespace {
using rcr::format_double;
using rcr::format_percent;

std::string wave_header(const Study& study) {
  return "2011 wave n=" + std::to_string(study.wave(0).row_count()) +
         ", 2024 wave n=" + std::to_string(study.wave(1).row_count()) + "\n";
}

// Renders an option-battery (shares per wave + adjusted significance).
std::string render_battery(const std::vector<trend::ShareTrend>& trends) {
  report::TextTable t({"Indicator", "2011 share [95% CI]",
                       "2024 share [95% CI]", "Δ (pp)", "Odds ratio",
                       "p (Holm)", "Trend"});
  for (const auto& tr : trends) {
    t.add_row({tr.indicator,
               report::share_cell(tr.share1.estimate, tr.share1.lo,
                                  tr.share1.hi),
               report::share_cell(tr.share2.estimate, tr.share2.lo,
                                  tr.share2.hi),
               format_double(100.0 * (tr.share2.estimate - tr.share1.estimate),
                             1),
               format_double(tr.odds_ratio, 2), report::p_cell(tr.p_adjusted),
               trend::direction_label(tr.direction)});
  }
  return t.render();
}

// The share labelled `label` in one wave's fused share vector.
const data::OptionShare& share_labelled(
    const std::vector<data::OptionShare>& shares, const char* label) {
  for (const auto& s : shares)
    if (s.label == label) return s;
  throw Error(std::string("share '") + label + "' missing");
}
}  // namespace

std::string run_t1_demographics(const Study& study) {
  std::string out = wave_header(study);
  for (std::size_t w = 0; w < 2; ++w) {
    out += std::string("\nWave ") + (w == 0 ? "2011" : "2024") +
           " — respondents by field and career stage\n";
    const auto& ct = study.aggregates(w).field_by_career;
    std::vector<std::string> headers = {"Field"};
    for (const auto& c : ct.col_labels) headers.push_back(c);
    headers.push_back("Total");
    headers.push_back("Share");
    report::TextTable t(headers);
    const double grand = ct.counts.grand_total();
    for (std::size_t r = 0; r < ct.row_labels.size(); ++r) {
      std::vector<std::string> row = {ct.row_labels[r]};
      for (std::size_t c = 0; c < ct.col_labels.size(); ++c)
        row.push_back(format_double(ct.counts.at(r, c), 0));
      row.push_back(format_double(ct.counts.row_total(r), 0));
      row.push_back(format_percent(ct.counts.row_total(r) / grand));
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  return out;
}

std::string run_t2_languages_by_field(const Study& study) {
  std::string out = wave_header(study);
  out += "\nShare of respondents in each field using each language "
         "(2024 wave; 2011 overall row for contrast)\n";
  // Crosstab and its per-field answered-row denominators come from the same
  // fused scan.
  const auto& agg2024 = study.aggregates(1);
  const auto& ct = agg2024.field_by_languages;

  std::vector<std::string> headers = {"Field"};
  for (const auto& l : ct.col_labels) headers.push_back(l);
  report::TextTable t(headers);
  for (std::size_t f = 0; f < ct.row_labels.size(); ++f) {
    const double denom = agg2024.field_answered_languages[f];
    std::vector<std::string> row = {ct.row_labels[f]};
    for (std::size_t l = 0; l < ct.col_labels.size(); ++l)
      row.push_back(denom > 0.0
                        ? format_percent(ct.counts.at(f, l) / denom, 0)
                        : "-");
    t.add_row(std::move(row));
  }
  // Overall rows for both waves.
  for (std::size_t w = 0; w < 2; ++w) {
    const auto& shares = study.aggregates(w).languages;
    std::vector<std::string> row = {w == 0 ? "(all, 2011)" : "(all, 2024)"};
    for (const auto& s : shares)
      row.push_back(format_percent(s.share.estimate, 0));
    t.add_row(std::move(row));
  }
  out += t.render();
  return out;
}

namespace {
// One wave's parallel users (parallel_resources answered with some resource
// selected) and, over the users answering parallel_models, each model's
// share, built as the engine's option shares are.
struct ParallelUsers {
  std::size_t users = 0;
  std::vector<data::OptionShare> models;
};

ParallelUsers parallel_users(const data::Table& wave) {
  const auto& res = wave.multiselect(synth::col::kParallelResources);
  const auto& models = wave.multiselect(synth::col::kParallelModels);
  ParallelUsers out;
  double answered = 0.0;
  std::vector<double> counts(models.option_count(), 0.0);
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (res.is_missing(i) || res.mask_at(i) == 0) continue;
    ++out.users;
    if (models.is_missing(i)) continue;
    answered += 1.0;
    for (std::size_t o = 0; o < counts.size(); ++o)
      if (models.has(i, o)) counts[o] += 1.0;
  }
  RCR_CHECK_MSG(answered > 0.0, "option_shares: no answered rows");
  for (std::size_t o = 0; o < counts.size(); ++o)
    out.models.push_back({models.option(o), counts[o], answered,
                          stats::wilson_ci(counts[o], answered, 0.95)});
  return out;
}
}  // namespace

std::string run_t3_parallel_models(const Study& study) {
  std::string out = wave_header(study);
  out += "\nParallel programming model usage among parallel users\n";
  const ParallelUsers p2011 = parallel_users(study.wave(0));
  const ParallelUsers p2024 = parallel_users(study.wave(1));
  out += "parallel users: 2011 n=" + std::to_string(p2011.users) + " (" +
         format_percent(static_cast<double>(p2011.users) /
                        study.wave(0).row_count()) +
         "), 2024 n=" + std::to_string(p2024.users) + " (" +
         format_percent(static_cast<double>(p2024.users) /
                        study.wave(1).row_count()) +
         ")\n";
  out += render_battery(
      trend::option_battery_from_shares(p2011.models, p2024.models));
  return out;
}

std::string run_t4_se_practices(const Study& study) {
  std::string out = wave_header(study);
  out += "\nSoftware-engineering practice adoption, 2011 vs 2024\n";
  const auto battery = trend::option_battery_from_shares(
      study.aggregates(0).se_practices, study.aggregates(1).se_practices);
  out += render_battery(battery);

  out += "\nVersion-control adoption by field (2024)\n";
  const auto& agg2024 = study.aggregates(1);
  const auto& ct = agg2024.field_by_se;
  const auto& se = study.wave(1).multiselect(synth::col::kSePractices);
  const std::size_t vcs =
      static_cast<std::size_t>(se.find_option("Version control"));
  report::TextTable t({"Field", "n", "VCS share [95% CI]"});
  for (std::size_t f = 0; f < ct.row_labels.size(); ++f) {
    const double denom = agg2024.field_answered_se[f];
    if (denom == 0.0) continue;
    const auto ci = stats::wilson_ci(ct.counts.at(f, vcs), denom);
    t.add_row({ct.row_labels[f], format_double(denom, 0),
               report::share_cell(ci.estimate, ci.lo, ci.hi)});
  }
  out += t.render();
  return out;
}

std::string run_t5_tool_gap(const Study& study) {
  std::string out = wave_header(study);
  for (std::size_t w = 0; w < 2; ++w) {
    out += std::string("\nWave ") + (w == 0 ? "2011" : "2024") +
           " — tool awareness vs use\n";
    const auto& aware = study.aggregates(w).tools_aware;
    const auto& used = study.aggregates(w).tools_used;
    report::TextTable t(
        {"Tool", "Aware", "Use", "Gap (pp)", "Use|Aware"});
    for (std::size_t i = 0; i < aware.size(); ++i) {
      const double a = aware[i].share.estimate;
      const double u = used[i].share.estimate;
      t.add_row({aware[i].label, format_percent(a, 0), format_percent(u, 0),
                 format_double(100.0 * (a - u), 0),
                 a > 0.0 ? format_percent(u / a, 0) : "-"});
    }
    out += t.render();
  }
  out += "\nThe awareness→use gap is the survey's \"tools exist but are not "
         "picked up\" finding; it narrows for build systems and schedulers "
         "by 2024 but persists for profilers.\n";
  return out;
}

std::string run_t6_significance(const Study& study) {
  std::string out = wave_header(study);
  out += "\nAll 2011→2024 shifts, Holm-adjusted within one family\n";
  // Every per-option count below comes from the two cached fused scans.
  std::vector<trend::ShareTrend> all;
  // Validated pairing: the share vectors come from per-wave engine scans,
  // so the labels are checked pairwise instead of trusting raw indices.
  const auto collect = [&](const std::vector<data::OptionShare>& s2011,
                           const std::vector<data::OptionShare>& s2024) {
    trend::append_share_trends(all, s2011, s2024);
  };
  const auto& a2011 = study.aggregates(0);
  const auto& a2024 = study.aggregates(1);
  collect(a2011.languages, a2024.languages);
  collect(a2011.parallel_resources, a2024.parallel_resources);
  collect(a2011.se_practices, a2024.se_practices);
  const auto& g2011 = share_labelled(a2011.gpu_usage, "Regularly");
  const auto& g2024 = share_labelled(a2024.gpu_usage, "Regularly");
  all.push_back(trend::trend_from_counts("Regularly", g2011.count,
                                         g2011.total, g2024.count,
                                         g2024.total));
  // Prefix indicators with their family for readability.
  trend::adjust_and_classify(all);
  std::stable_sort(all.begin(), all.end(),
                   [](const trend::ShareTrend& a, const trend::ShareTrend& b) {
                     return a.p_adjusted < b.p_adjusted;
                   });
  out += render_battery(all);

  const auto shift = trend::distribution_shift_test(
      study.wave(0), study.wave(1), synth::col::kPrimaryLanguage);
  out += "\nPrimary-language distribution shift (2 x k chi-square): chi2=" +
         format_double(shift.statistic, 1) +
         ", dof=" + format_double(shift.dof, 0) +
         ", p=" + report::p_cell(shift.p_value) +
         ", Cramer's V=" + format_double(shift.cramers_v, 2) + "\n";
  return out;
}

namespace {
struct FieldGpu {
  std::size_t rows = 0;
  double answered = 0.0, gpu = 0.0;
};

// Per field of synth::fields(), in that order, from one pass over a wave:
// the field's rows, those answering parallel_resources, and the GPU rows
// among them.
std::vector<FieldGpu> gpu_by_field(const data::Table& wave) {
  const auto& field = wave.categorical(synth::col::kField);
  const auto& res = wave.multiselect(synth::col::kParallelResources);
  const std::int32_t gpu = res.find_option("GPU");
  RCR_CHECK_MSG(gpu >= 0, "unknown option 'GPU'");
  std::vector<FieldGpu> by_code(field.category_count());
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field.is_missing(i)) continue;
    FieldGpu& f = by_code[static_cast<std::size_t>(field.code_at(i))];
    ++f.rows;
    if (res.is_missing(i)) continue;
    f.answered += 1.0;
    if (res.has(i, static_cast<std::size_t>(gpu))) f.gpu += 1.0;
  }
  std::vector<FieldGpu> out;
  for (const auto& label : synth::fields()) {
    const std::int32_t code = field.find_code(label);
    RCR_CHECK_MSG(code != data::kMissingCode, "unknown field '" + label + "'");
    out.push_back(by_code[static_cast<std::size_t>(code)]);
  }
  return out;
}
}  // namespace

std::string run_t7_gpu_adoption(const Study& study) {
  std::string out = wave_header(study);
  out += "\nGPU adoption by field with fitted logistic adoption curves\n";
  report::TextTable t({"Field", "2011 share", "2024 share", "Slope/yr",
                       "Midpoint year"});
  const auto& fields = synth::fields();
  const auto t2011 = gpu_by_field(study.wave(0));
  const auto t2024 = gpu_by_field(study.wave(1));
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const FieldGpu& a = t2011[f];
    const FieldGpu& b = t2024[f];
    if (a.rows < 5 || b.rows < 5) continue;
    const auto tr =
        trend::trend_from_counts("GPU", a.gpu, a.answered, b.gpu, b.answered);
    const auto curve = trend::fit_adoption_curve(a.gpu, a.answered, 2011.0,
                                                 b.gpu, b.answered, 2024.0);
    const bool midpoint_sane =
        std::isfinite(curve.midpoint_year) && curve.slope_per_year > 0.0 &&
        curve.midpoint_year > 1990.0 && curve.midpoint_year < 2060.0;
    t.add_row({fields[f], format_percent(tr.share1.estimate, 0),
               format_percent(tr.share2.estimate, 0),
               format_double(curve.slope_per_year, 3),
               midpoint_sane ? format_double(curve.midpoint_year, 1) : "n/a"});
  }
  out += t.render();
  // Pooled curve, from the GPU share of each wave's fused scan.
  const auto& g2011 =
      share_labelled(study.aggregates(0).parallel_resources, "GPU");
  const auto& g2024 =
      share_labelled(study.aggregates(1).parallel_resources, "GPU");
  const auto curve = trend::fit_adoption_curve(
      g2011.count, g2011.total, 2011.0, g2024.count, g2024.total, 2024.0);
  out += "\nPooled logistic fit: P(GPU) = sigmoid(" +
         format_double(curve.intercept, 2) + " + " +
         format_double(curve.slope_per_year, 3) + " * (year - 2011)), " +
         "midpoint " + format_double(curve.midpoint_year, 1) + "\n";
  return out;
}

std::string run_t8_field_drilldown(const Study& study) {
  std::string out = wave_header(study);
  out += "\nWhere did the headline shifts happen? Per-field trends, each "
         "family Holm-adjusted.\n";
  struct Target {
    const char* column;
    const char* option;
  };
  const Target targets[] = {
      {synth::col::kLanguages, "Python"},
      {synth::col::kParallelResources, "GPU"},
      {synth::col::kSePractices, "Version control"},
  };
  for (const auto& target : targets) {
    out += std::string("\n") + target.option + " by field\n";
    const auto trends =
        trend::per_group_trend(study.wave(0), study.wave(1), synth::col::kField,
                               target.column, target.option);
    report::TextTable t({"Field", "2011", "2024", "Δ (pp)", "p (Holm)",
                         "Trend"});
    for (const auto& tr : trends) {
      t.add_row({tr.indicator, format_percent(tr.share1.estimate, 0),
                 format_percent(tr.share2.estimate, 0),
                 format_double(
                     100.0 * (tr.share2.estimate - tr.share1.estimate), 0),
                 report::p_cell(tr.p_adjusted),
                 trend::direction_label(tr.direction)});
    }
    out += t.render();
  }
  out += "\nThe Python and version-control shifts are broad-based; GPU "
         "adoption concentrates in the simulation- and ML-heavy fields, "
         "with Social Science lagging on every indicator.\n";
  return out;
}

}  // namespace rcr::core
