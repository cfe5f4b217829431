#include "util/parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace exasim {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

}  // namespace

std::string format_sim_time(SimTime t) {
  char buf[64];
  if (t >= sim_sec(1)) {
    std::snprintf(buf, sizeof buf, "%.3f s", to_seconds(t));
  } else if (t >= sim_ms(1)) {
    std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(t) / 1e6);
  } else if (t >= sim_us(1)) {
    std::snprintf(buf, sizeof buf, "%.3f us", static_cast<double>(t) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu ns", static_cast<unsigned long long>(t));
  }
  return buf;
}

SpecParts split_spec(std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) return {text, std::nullopt};
  return {text.substr(0, colon), text.substr(colon + 1)};
}

bool parse_fields(std::string_view body,
                  const std::function<bool(std::string_view, std::string_view)>& on_field) {
  while (true) {
    const auto comma = body.find(',');
    const std::string_view piece = body.substr(0, comma);
    const auto eq = piece.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = trim(piece.substr(0, eq));
    if (key.empty() || !on_field(key, trim(piece.substr(eq + 1)))) return false;
    if (comma == std::string_view::npos) return true;
    body.remove_prefix(comma + 1);
  }
}

std::optional<double> parse_double(std::string_view text, double lo, double hi) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "0") return false;
  if (text == "1") return true;
  return std::nullopt;
}

std::optional<SimTime> parse_duration(std::string_view text) {
  text = trim(text);

  // Split the numeric part from the unit suffix; parse_double judges the
  // number.
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == '+' || text[i] == 'e' || text[i] == 'E' ||
          (text[i] == '-' && i > 0 && (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
    ++i;
  }
  const auto value = parse_double(text.substr(0, i), 0.0);
  if (!value) return std::nullopt;

  const std::string_view unit = trim(text.substr(i));
  double scale;
  if (unit.empty() || unit == "s" || unit == "sec") {
    scale = 1e9;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "m" || unit == "min") {
    scale = 60e9;
  } else if (unit == "h") {
    scale = 3600e9;
  } else {
    return std::nullopt;
  }
  const double ns = *value * scale + 0.5;
  if (ns >= 18446744073709551616.0) return std::nullopt;  // 2^64: no SimTime.
  return static_cast<SimTime>(ns);
}

std::string format_duration(SimTime t) {
  if (t % 1'000'000'000 == 0) return std::to_string(t / 1'000'000'000) + "s";
  if (t % 1'000'000 == 0) return std::to_string(t / 1'000'000) + "ms";
  if (t % 1'000 == 0) return std::to_string(t / 1'000) + "us";
  return std::to_string(t) + "ns";
}

std::vector<std::string> split_trimmed(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      std::string_view piece = trim(text.substr(start, i - start));
      if (!piece.empty()) out.emplace_back(piece);
      start = i + 1;
    }
  }
  return out;
}

std::optional<std::vector<FailureSpec>> parse_failure_schedule(std::string_view text) {
  // Accept both ',' and ';' as pair separators.
  std::string normalized(text);
  for (auto& c : normalized) {
    if (c == ';') c = ',';
  }

  std::vector<FailureSpec> specs;
  for (const auto& piece : split_trimmed(normalized, ',')) {
    auto at = piece.find('@');
    if (at == std::string::npos) return std::nullopt;
    std::string_view rank_str = trim(std::string_view(piece).substr(0, at));
    std::string_view time_str = trim(std::string_view(piece).substr(at + 1));

    const auto rank = parse_int<int>(rank_str, 0);
    const auto t = parse_duration(time_str);
    if (!rank || !t) return std::nullopt;
    specs.push_back(FailureSpec{*rank, *t});
  }
  return specs;
}

std::string format_failure_schedule(const std::vector<FailureSpec>& specs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) os << ',';
    std::ostringstream secs;
    secs << to_seconds(specs[i].time) << 's';
    os << specs[i].rank << '@'
       << (parse_duration(secs.str()) == specs[i].time ? secs.str()
                                                        : format_duration(specs[i].time));
  }
  return os.str();
}

std::optional<ParamMap> ParamMap::parse(std::string_view text) {
  ParamMap map;
  if (trim(text).empty()) return map;
  if (!parse_fields(text, [&map](std::string_view key, std::string_view value) {
        map.set(std::string(key), std::string(value));
        return true;
      })) {
    return std::nullopt;
  }
  return map;
}

bool ParamMap::contains(const std::string& key) const {
  return get(key).has_value();
}

std::optional<std::string> ParamMap::get(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<std::int64_t> ParamMap::get_int(const std::string& key) const {
  auto v = get(key);
  if (!v) return std::nullopt;
  return parse_int<std::int64_t>(*v);
}

std::optional<double> ParamMap::get_double(const std::string& key) const {
  auto v = get(key);
  if (!v) return std::nullopt;
  return parse_double(*v);
}

std::optional<SimTime> ParamMap::get_duration(const std::string& key) const {
  auto v = get(key);
  if (!v) return std::nullopt;
  return parse_duration(*v);
}

void ParamMap::set(std::string key, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(key), std::move(value));
}

}  // namespace exasim
