#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/tiered.hpp"
#include "resilience/detector.hpp"
#include "util/time.hpp"

namespace exasim::mc {

/// The discrete part of one lattice row: which rank is killed, which detector
/// model governs notice delivery, and which recovery (checkpoint placement)
/// policy the restart uses. The injection-*time* axis is the continuous
/// dimension the explorer refines adaptively per row (DESIGN.md §15).
struct LatticeRow {
  int victim = 0;
  std::size_t detector_index = 0;
  std::size_t policy_index = 0;
};

/// Configuration of the failure-scenario lattice explored by mc::explore.
///
/// The time axis is an integer grid: the *finest* grid has
///   F = (grid - 1) * 2^depth + 1
/// points across [window_lo, window_hi]; the explorer starts from the `grid`
/// coarse points (every 2^depth-th finest index) and subdivides only the
/// intervals whose endpoint outcome signatures disagree, so a discontinuity
/// (an abort-time boundary, a checkpoint-interval cliff) ends up localized
/// within one finest-grid step while flat regions cost two evaluations total.
struct LatticeSpec {
  std::vector<int> victims;                           ///< World ranks to kill.
  std::vector<resilience::DetectorSpec> detectors;    ///< Detector axis.
  std::vector<ckpt::CkptMode> policies;               ///< Recovery-policy axis.

  /// Injection window (absolute virtual time of the first launch). A zero
  /// window_hi means "derive from a failure-free probe run": the explorer
  /// sets [0, 1.05 * max over policies of the baseline E2], so the lattice
  /// straddles the completion boundary where injection stops mattering.
  SimTime window_lo = 0;
  SimTime window_hi = 0;

  int grid = 9;    ///< Initial grid points per row (>= 2).
  int depth = 4;   ///< Refinement depth (>= 0).
  bool prune = true;       ///< false = evaluate the full finest grid.
  std::uint64_t budget = 0;  ///< Max scenario evaluations; 0 = unlimited.

  /// Outcome-signature quantization step for the continuous fields
  /// (detection latencies, abort lag, E2 excess). 0 = derive from the
  /// machine's failure timeout (its natural outcome resolution).
  SimTime quantum = 0;
};

/// Expanded lattice geometry: rows plus the integer time grid. Times are
/// pure integer arithmetic on the finest-grid index, so every refinement
/// midpoint is an exact finest-grid member and the schedule is identical on
/// every host and job count.
class ScenarioLattice {
 public:
  explicit ScenarioLattice(LatticeSpec spec);

  const LatticeSpec& spec() const { return spec_; }
  const std::vector<LatticeRow>& rows() const { return rows_; }

  /// Finest-grid point count F (per row).
  std::int64_t finest_points() const { return finest_points_; }
  /// Total lattice cardinality at the finest resolution = rows * F — the
  /// "raw scenarios" the explorer answers for.
  std::uint64_t raw_scenarios() const {
    return rows_.size() * static_cast<std::uint64_t>(finest_points_);
  }
  /// Virtual-time distance between adjacent finest-grid points.
  SimTime finest_step() const;
  /// Injection time of finest-grid index f (0 <= f < finest_points).
  SimTime time_of(std::int64_t f) const;
  /// Finest-grid indices of the initial coarse grid (spacing 2^depth).
  std::vector<std::int64_t> initial_indices() const;

 private:
  LatticeSpec spec_;
  std::vector<LatticeRow> rows_;
  std::int64_t finest_points_ = 0;
};

/// Parses "0,5,63", "stride:K" (ranks 0, K, 2K, ...), or "all" against the
/// machine's rank count. Returns nullopt on malformed input or out-of-range
/// ranks.
std::optional<std::vector<int>> parse_victims(const std::string& text, int ranks);

/// Parses an injection window "LO..HI" (durations, LO < HI).
std::optional<std::pair<SimTime, SimTime>> parse_window(const std::string& text);

/// Parses a time grid "N[:D]" — N >= 2 initial points, 0 <= D <= 20
/// refinement levels (default LatticeSpec::depth); returns {N, D}.
std::optional<std::pair<int, int>> parse_grid(const std::string& text);

/// Parses a scenario-evaluation budget (unsigned; 0 = unlimited).
std::optional<std::uint64_t> parse_budget(const std::string& text);

/// Parses a ';'-separated list of detector specs (';' because specs contain
/// ',' options), e.g. "paper-instant;timeout;heartbeat:period=auto,miss=3".
std::optional<std::vector<resilience::DetectorSpec>> parse_detector_list(
    const std::string& text);

/// Parses a ','-separated list of recovery policies, e.g. "pfs,partner".
std::optional<std::vector<ckpt::CkptMode>> parse_policy_list(const std::string& text);

}  // namespace exasim::mc
