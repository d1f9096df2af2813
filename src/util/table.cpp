#include "src/util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace tormet {

namespace {
void pad_to(std::string& s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
}

// printf keeps the sign of a negative value that rounds to zero ("-0",
// "-0.0 %"); a printed zero carries no sign.
std::string without_negative_zero(const char* printed) {
  std::string s{printed};
  const std::string_view number =
      std::string_view{s}.substr(1, s.find_first_not_of("0123456789.", 1) - 1);
  if (s.front() == '-' && !number.empty() &&
      number.find_first_not_of("0.") == std::string_view::npos) {
    s.erase(0, 1);
  }
  return s;
}
}  // namespace

std::string repro_table::render() const {
  const std::vector<std::string> headers{"statistic", "paper", "measured",
                                         "95% CI", "note"};
  std::vector<std::size_t> widths(5);
  for (std::size_t i = 0; i < 5; ++i) widths[i] = headers[i].size();
  for (const auto& r : rows_) {
    widths[0] = std::max(widths[0], r.statistic.size());
    widths[1] = std::max(widths[1], r.paper_value.size());
    widths[2] = std::max(widths[2], r.measured_value.size());
    widths[3] = std::max(widths[3], r.ci.size());
    widths[4] = std::max(widths[4], r.note.size());
  }

  std::ostringstream out;
  out << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::string& a, const std::string& b,
                      const std::string& c, const std::string& d,
                      const std::string& e) {
    std::string col0 = a, col1 = b, col2 = c, col3 = d, col4 = e;
    pad_to(col0, widths[0]);
    pad_to(col1, widths[1]);
    pad_to(col2, widths[2]);
    pad_to(col3, widths[3]);
    pad_to(col4, widths[4]);
    out << "  " << col0 << "  " << col1 << "  " << col2 << "  " << col3 << "  "
        << col4 << '\n';
  };
  emit_row(headers[0], headers[1], headers[2], headers[3], headers[4]);
  std::string rule(widths[0] + widths[1] + widths[2] + widths[3] + widths[4] + 10,
                   '-');
  out << "  " << rule << '\n';
  for (const auto& r : rows_) {
    emit_row(r.statistic, r.paper_value, r.measured_value, r.ci, r.note);
  }
  return out.str();
}

void repro_table::print() const {
  const std::string rendered = render();
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  std::fputc('\n', stdout);
}

std::string format_sig(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, value);
  return without_negative_zero(buf);
}

std::string format_count(double value) {
  const double magnitude = std::fabs(value);
  char buf[64];
  if (magnitude >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3g billion", value / 1e9);
  } else if (magnitude >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3g million", value / 1e6);
  } else if (magnitude >= 1e4) {
    std::snprintf(buf, sizeof buf, "%.1f thousand", value / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  }
  return without_negative_zero(buf);
}

std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f %%", fraction * 100.0);
  return without_negative_zero(buf);
}

std::string format_bytes(double bytes) {
  static constexpr const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int unit = 0;
  double v = bytes;
  while (std::fabs(v) >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3g %s", v, units[unit]);
  return without_negative_zero(buf);
}

}  // namespace tormet
