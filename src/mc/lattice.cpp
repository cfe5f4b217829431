#include "mc/lattice.hpp"

#include <algorithm>

#include "util/parse.hpp"

namespace exasim::mc {

ScenarioLattice::ScenarioLattice(LatticeSpec spec) : spec_(std::move(spec)) {
  spec_.grid = std::max(spec_.grid, 2);
  spec_.depth = std::clamp(spec_.depth, 0, 20);
  if (spec_.window_hi < spec_.window_lo) spec_.window_hi = spec_.window_lo;
  finest_points_ =
      static_cast<std::int64_t>(spec_.grid - 1) * (std::int64_t{1} << spec_.depth) + 1;
  // Row order is the report/schedule order: victim-major, then detector, then
  // policy — fixed so mc-report.json is stable across flag spellings.
  rows_.reserve(spec_.victims.size() * spec_.detectors.size() * spec_.policies.size());
  for (std::size_t v = 0; v < spec_.victims.size(); ++v) {
    for (std::size_t d = 0; d < spec_.detectors.size(); ++d) {
      for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
        rows_.push_back(LatticeRow{spec_.victims[v], d, p});
      }
    }
  }
}

SimTime ScenarioLattice::finest_step() const {
  return (spec_.window_hi - spec_.window_lo) / std::max<std::int64_t>(finest_points_ - 1, 1);
}

SimTime ScenarioLattice::time_of(std::int64_t f) const {
  const std::int64_t span = finest_points_ - 1;
  if (span <= 0) return spec_.window_lo;
  // Integer interpolation keyed on the finest index: deterministic and exact
  // at both window endpoints. (window * f stays well inside int64 for any
  // realistic window/grid: hours of virtual time x tens of thousands of
  // points.)
  return spec_.window_lo + (spec_.window_hi - spec_.window_lo) * f / span;
}

std::vector<std::int64_t> ScenarioLattice::initial_indices() const {
  const std::int64_t stride = std::int64_t{1} << spec_.depth;
  std::vector<std::int64_t> out;
  out.reserve(spec_.grid);
  for (std::int64_t f = 0; f < finest_points_; f += stride) out.push_back(f);
  return out;
}

std::optional<std::vector<int>> parse_victims(const std::string& text, int ranks) {
  std::vector<int> out;
  if (text == "all") {
    for (int r = 0; r < ranks; ++r) out.push_back(r);
    return out;
  }
  if (const auto [head, body] = split_spec(text); head == "stride" && body) {
    const auto stride = parse_int<int>(*body, 1);
    if (!stride) return std::nullopt;
    for (int r = 0; r < ranks; r += *stride) out.push_back(r);
    return out;
  }
  for (const auto& piece : split_trimmed(text, ',')) {
    const auto r = parse_int<int>(piece, 0, ranks - 1);
    if (!r) return std::nullopt;
    out.push_back(*r);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::pair<SimTime, SimTime>> parse_window(const std::string& text) {
  const auto sep = text.find("..");
  if (sep == std::string::npos) return std::nullopt;
  const auto lo = parse_duration(std::string_view(text).substr(0, sep));
  const auto hi = parse_duration(std::string_view(text).substr(sep + 2));
  if (!lo || !hi || *hi <= *lo) return std::nullopt;
  return std::pair{*lo, *hi};
}

std::optional<std::pair<int, int>> parse_grid(const std::string& text) {
  const auto [head, body] = split_spec(text);
  const auto grid = parse_int<int>(head, 2, 1 << 20);
  const auto depth = body ? parse_int<int>(*body, 0, 20) : LatticeSpec{}.depth;
  if (!grid || !depth) return std::nullopt;
  return std::pair{*grid, *depth};
}

std::optional<std::uint64_t> parse_budget(const std::string& text) {
  return parse_int<std::uint64_t>(text);
}

std::optional<std::vector<resilience::DetectorSpec>> parse_detector_list(
    const std::string& text) {
  std::vector<resilience::DetectorSpec> out;
  for (const auto& piece : split_trimmed(text, ';')) {
    auto spec = resilience::parse_detector_spec(piece);
    if (!spec) return std::nullopt;
    out.push_back(*spec);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::vector<ckpt::CkptMode>> parse_policy_list(const std::string& text) {
  std::vector<ckpt::CkptMode> out;
  for (const auto& piece : split_trimmed(text, ',')) {
    auto mode = ckpt::parse_ckpt_mode(piece);
    if (!mode) return std::nullopt;
    out.push_back(*mode);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

}  // namespace exasim::mc
