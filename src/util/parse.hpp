#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace exasim {

// -- The spec grammar ---------------------------------------------------------
//
// Every spec exasim reads from a flag or an EXASIM_* variable has the shape
// `head[:body]`. Most bodies are `k=v[,k=v...]` lists walked by parse_fields;
// every number is read by parse_int / parse_double / parse_bool, which take
// the whole string or nothing (std::from_chars: no sign on unsigned types, no
// '+', no whitespace, no trailing garbage) and check a range.

/// A spec split at its first ':'. `body` is nullopt without a ':', so "x"
/// (no options) and "x:" (an empty, malformed option list) stay distinct.
struct SpecParts {
  std::string_view head;
  std::optional<std::string_view> body;
};
SpecParts split_spec(std::string_view text);

/// Walks a "k=v[,k=v...]" body, calling on_field(key, value) for each pair in
/// order (pieces, keys and values trimmed of ASCII whitespace). Returns false
/// at the first empty piece (so an empty body is malformed), piece without
/// '=', empty key, or pair on_field rejects — an unknown key or a bad value.
bool parse_fields(std::string_view body,
                  const std::function<bool(std::string_view key, std::string_view value)>&
                      on_field);

/// Whole-string decimal integer in [lo, hi].
template <class Int>
std::optional<Int> parse_int(std::string_view text, Int lo = std::numeric_limits<Int>::min(),
                             Int hi = std::numeric_limits<Int>::max()) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) return std::nullopt;
  return value;
}

/// Whole-string finite double in [lo, hi] (fixed or exponent form; no inf,
/// nan or hex; overflow and underflow are rejected).
std::optional<double> parse_double(std::string_view text,
                                   double lo = std::numeric_limits<double>::lowest(),
                                   double hi = std::numeric_limits<double>::max());

/// Smallest lower bound that still excludes zero, for parse_double.
inline constexpr double kPositive = std::numeric_limits<double>::min();

/// "0" or "1".
std::optional<bool> parse_bool(std::string_view text);

/// Stores `*parsed` into `out` when present; returns whether it was — the
/// glue between a reader and the field it fills.
template <class T, class U>
bool set_from(const std::optional<T>& parsed, U& out) {
  if (parsed) out = *parsed;
  return parsed.has_value();
}

/// Resolves a setting the xSim way: a non-empty `configured` wins, else the
/// environment variable `env_var` when set and non-empty, else `fallback`.
/// `parse` maps text to std::optional<T>. A malformed value throws
/// std::invalid_argument naming `what` (configured) or the variable (env).
template <class T, class Parse>
T resolve(const std::string& configured, const char* env_var, Parse parse, T fallback,
          const char* what) {
  if (!configured.empty()) {
    if (auto value = parse(configured)) return *value;
    throw std::invalid_argument(std::string("malformed ") + what + ": " + configured);
  }
  const char* env = std::getenv(env_var);
  if (env == nullptr || *env == '\0') return fallback;
  if (auto value = parse(std::string(env))) return *value;
  throw std::invalid_argument(std::string("malformed ") + env_var + "=" + env);
}

/// One scheduled process failure: MPI rank and earliest virtual failure time.
struct FailureSpec {
  int rank = -1;
  SimTime time = kSimTimeNever;

  friend bool operator==(const FailureSpec&, const FailureSpec&) = default;
};

/// Parses a duration with unit suffix: "12ns", "3us", "4ms", "5s", "1.5s",
/// "2m", "1h". A bare number is interpreted as seconds (the paper gives MTTFs
/// in seconds). Negative, non-finite and out-of-range (>= 2^64 ns) values are
/// rejected.
std::optional<SimTime> parse_duration(std::string_view text);

/// Canonical duration spelling that parse_duration reads back exactly: the
/// largest whole unit among s, ms, us and ns ("2s", "100ms", "750ns"; 0 is
/// "0s").
std::string format_duration(SimTime t);

/// Parses a failure schedule of the form "rank@time[,rank@time...]"
/// (also accepts ';' separators), e.g. "12@3000s,77@1.5s".
/// Returns std::nullopt on malformed input.
std::optional<std::vector<FailureSpec>> parse_failure_schedule(std::string_view text);

/// Renders a schedule back to its "rank@time" form: times in seconds
/// ("3@10s,1@1.5s") where that spelling reads back exactly, else in
/// format_duration's whole units.
std::string format_failure_schedule(const std::vector<FailureSpec>& specs);

/// Splits `text` on `sep`, trimming ASCII whitespace from each piece and
/// dropping empty pieces.
std::vector<std::string> split_trimmed(std::string_view text, char sep);

/// Simple "key=value" bag used for experiment configuration strings.
class ParamMap {
 public:
  /// Parses "a=1,b=2.5,c=torus" (parse_fields grammar; "" is the empty map);
  /// returns nullopt on malformed pairs.
  static std::optional<ParamMap> parse(std::string_view text);

  bool contains(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::optional<std::int64_t> get_int(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<SimTime> get_duration(const std::string& key) const;

  void set(std::string key, std::string value);
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace exasim
