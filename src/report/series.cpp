#include "report/series.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rcr::report {

std::string render_series_csv(const std::string& x_label,
                              const std::vector<Series>& series) {
  RCR_CHECK_MSG(!series.empty(), "no series to render");
  const std::size_t n = series.front().points.size();
  for (const auto& s : series)
    RCR_CHECK_MSG(s.points.size() == n, "series lengths differ");

  std::string out = x_label;
  for (const auto& s : series) out += "," + s.name;
  out += '\n';
  for (std::size_t i = 0; i < n; ++i) {
    const double x = series.front().points[i].first;
    for (const auto& s : series)
      RCR_CHECK_MSG(s.points[i].first == x, "series x values differ");
    out += rcr::format_double(x, 6);
    for (const auto& s : series) {
      out += ',';
      out += rcr::format_double(s.points[i].second, 6);
    }
    out += '\n';
  }
  return out;
}

std::string render_bars(const std::vector<Bar>& bars, double max_value,
                        std::size_t width) {
  RCR_CHECK_MSG(!bars.empty(), "no bars to render");
  RCR_CHECK_MSG(width >= 4, "bar width too small");
  if (max_value <= 0.0) {
    for (const auto& b : bars) max_value = std::max(max_value, b.value);
    if (max_value <= 0.0) max_value = 1.0;
  }
  std::size_t label_width = 0;
  for (const auto& b : bars)
    label_width = std::max(label_width, b.label.size());

  std::string out;
  for (const auto& b : bars) {
    RCR_CHECK_MSG(b.value >= 0.0, "bar values must be non-negative");
    const auto filled = static_cast<std::size_t>(
        std::round(std::min(1.0, b.value / max_value) *
                   static_cast<double>(width)));
    out += b.label;
    out += std::string(label_width - b.label.size() + 2, ' ');
    out += std::string(filled, '#');
    out += std::string(width - filled, '.');
    out += "  " + rcr::format_double(b.value, 3) + '\n';
  }
  return out;
}

}  // namespace rcr::report
