// Using the toolkit on YOUR survey: define a questionnaire, ingest CSV
// responses, validate, weight against known population margins, and report
// shares with honest intervals. This is the path a real deployment of the
// study takes once actual responses exist.
//
//   ./build/examples/custom_survey [--csv path/to/responses.csv]
#include <iostream>
#include <sstream>

#include "core/rcr.hpp"
#include "util/error.hpp"

namespace {

// A small lab-practices questionnaire.
rcr::survey::Questionnaire make_questionnaire() {
  using rcr::survey::Question;
  return rcr::survey::Questionnaire(
      "lab-practices",
      {Question::single_choice("role", "Role",
                               {"student", "postdoc", "faculty"},
                               /*required=*/true),
       Question::multi_select("ci_tools", "CI tools used",
                              {"github-actions", "gitlab-ci", "jenkins"}),
       Question::likert("satisfaction", "Tooling satisfaction", 5),
       Question::numeric("build_minutes", "Typical CI build minutes")});
}

// Inline demo responses, used when --csv is not given.
constexpr const char* kDemoCsv =
    "role,ci_tools,satisfaction,build_minutes\n"
    "student,github-actions,4,12\n"
    "student,github-actions|gitlab-ci,3,25\n"
    "student,,2,\n"
    "student,github-actions,5,8\n"
    "student,jenkins,2,55\n"
    "student,github-actions,4,10\n"
    "postdoc,gitlab-ci,3,30\n"
    "postdoc,github-actions,4,15\n"
    "postdoc,,3,20\n"
    "faculty,jenkins,1,90\n"
    "faculty,github-actions,4,11\n"
    "faculty,,3,\n";

}  // namespace

int main(int argc, char** argv) try {
  rcr::CliParser cli(argc, argv);
  const auto csv_path = cli.get("csv");
  cli.finish();

  const auto questionnaire = make_questionnaire();
  const auto schema = questionnaire.make_table();

  rcr::data::Table responses = [&] {
    if (csv_path) return rcr::data::read_csv_file(*csv_path, schema);
    std::istringstream demo(kDemoCsv);
    return rcr::data::read_csv(demo, schema);
  }();
  std::cout << "loaded " << responses.row_count() << " responses\n";

  // Validate before analyzing anything.
  const auto issues = rcr::survey::validate_responses(questionnaire, responses);
  for (const auto& issue : issues)
    std::cout << "  validation: row " << issue.row << " " << issue.question_id
              << ": " << issue.message << "\n";
  if (!issues.empty()) {
    std::cout << "fix the responses before analysis\n";
    return 1;
  }

  // Weight: suppose the department is actually 50/25/25 across roles but
  // students over-answered.
  const auto raking = rcr::survey::rake_weights(
      responses, {{"role",
                   {{"student", 0.5}, {"postdoc", 0.25}, {"faculty", 0.25}}}});
  std::cout << "raking converged=" << raking.converged
            << " design effect=" << rcr::format_double(raking.design_effect, 2)
            << " effective n=" << rcr::format_double(raking.effective_n, 1)
            << "\n\n";

  // CI-tool shares, unweighted vs weighted.
  rcr::report::TextTable table({"CI tool", "Unweighted", "Weighted"});
  const auto& tools = responses.multiselect("ci_tools");
  for (std::size_t o = 0; o < tools.option_count(); ++o) {
    double num = 0, den = 0, wnum = 0, wden = 0;
    for (std::size_t i = 0; i < tools.size(); ++i) {
      if (tools.is_missing(i)) continue;
      den += 1.0;
      wden += raking.weights[i];
      if (tools.has(i, o)) {
        num += 1.0;
        wnum += raking.weights[i];
      }
    }
    table.add_row({tools.option(o), rcr::format_percent(num / den, 0),
                   rcr::format_percent(wnum / wden, 0)});
  }
  std::cout << table.render() << "\n";

  // Likert summary with top-box CI.
  const auto s = rcr::survey::summarize_likert(responses, "satisfaction", 5);
  std::cout << "satisfaction: mean " << rcr::format_double(s.mean, 2)
            << ", top-box "
            << rcr::report::share_cell(s.top_box.estimate, s.top_box.lo,
                                       s.top_box.hi)
            << "\n";

  // Numeric summary.
  const auto mins =
      responses.numeric("build_minutes").present_values();
  const auto summary = rcr::stats::summarize(mins);
  std::cout << "build minutes: median " << summary.median << ", p75 "
            << summary.p75 << ", max " << summary.max << "\n";
  return 0;
} catch (const rcr::Error& e) {
  // A missing or malformed --csv file lands here.
  std::cerr << "custom_survey: " << e.what() << "\n";
  return 1;
}
