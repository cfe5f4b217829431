#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace exasim {

/// Which window-scheduling policy the sharded engine runs (DESIGN.md §11).
enum class SchedulerKind : std::uint8_t {
  kFixed,     ///< Uniform conservative window: bound = global-min + lookahead.
  kAdaptive,  ///< Per-group windows widened inside the provably safe envelope.
};

/// Parsed `--scheduler` configuration. The canonical spec strings are
/// "fixed" and "adaptive"; the adaptive policy takes optional parameters
/// "adaptive:stretch=N,gpw=N" (maximum window stretch factor and LP groups
/// per worker thread).
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kFixed;
  /// Maximum window width in lookahead units a group may run ahead of its own
  /// pending minimum (adaptive only).
  int stretch_max = 64;
  /// LP groups per worker thread: > 1 oversubscribes groups so finished
  /// workers can steal ready groups. 0 = policy default (fixed 1, adaptive 4).
  int groups_per_worker = 0;

  friend bool operator==(const SchedulerSpec&, const SchedulerSpec&) = default;
};

/// Parses a scheduler spec string ("fixed[:gpw=N]", "adaptive",
/// "adaptive:stretch=N,gpw=N"); nullopt on malformed input.
std::optional<SchedulerSpec> parse_scheduler_spec(const std::string& text);

/// Canonical spec string for `spec` (round-trips through parse).
std::string to_string(const SchedulerSpec& spec);

/// Registered scheduler family names, registry order ("fixed", "adaptive") —
/// the values of exp::scheduler_axis().
const std::vector<std::string>& list_schedulers();

/// Environment variable consulted when no --scheduler flag is given.
inline constexpr const char* kSchedulerEnvVar = "EXASIM_SCHEDULER";

/// Resolves a configured spec string (e.g. core::SimConfig::scheduler) to a
/// SchedulerSpec: empty defers to EXASIM_SCHEDULER, unset environment means
/// "fixed". Throws std::invalid_argument on a malformed `configured` or
/// EXASIM_SCHEDULER.
SchedulerSpec resolve_scheduler_spec(const std::string& configured);

/// Environment variable consulted when SimConfig::speculate is negative.
inline constexpr const char* kSpeculateEnvVar = "EXASIM_SPECULATE";

/// Resolves a configured speculation depth: >= 0 is taken literally, < 0
/// defers to EXASIM_SPECULATE (unset = 0, speculation off; malformed throws
/// std::invalid_argument).
int resolve_speculation(int configured);

/// Per-cycle feedback the window synchronizer hands the policy. All vectors
/// are indexed by LP-group id.
struct SchedFeedback {
  /// Pending minimum of each group's event heap + speculation stage after the
  /// mailbox merge (kSimTimeNever when empty).
  const std::vector<SimTime>& mins;
  /// Events each group delivered in the previous window phase.
  const std::vector<std::uint64_t>& window_events;
  /// Total ns the worker threads spent waiting at barriers since the previous
  /// plan() call (one-cycle-lagged; a coarse contention signal).
  std::uint64_t idle_ns = 0;
};

/// Strategy deciding the per-group window bounds of the next cycle — the
/// policy half of the WindowSync split (the mechanism half keeps the barriers
/// and phase machine). Called once per cycle, single-threaded, from the
/// decide barrier's completion. Implementations MUST keep every bound inside
/// the safe envelope (see AdaptiveWindowPolicy) or byte-identity across
/// worker counts is lost.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual const char* name() const = 0;

  /// Fills bounds[g] (exclusive upper bound on event *time* group g may
  /// deliver next window) for every group; the caller guarantees at least one
  /// fb.mins entry is not kSimTimeNever. Returns the number of groups whose
  /// bound exceeds the uniform conservative bound (the window_widenings
  /// perf counter increment).
  virtual int plan(const SchedFeedback& fb, SimTime lookahead,
                   std::vector<SimTime>& bounds) = 0;
};

/// The pre-refactor behavior: every group processes strictly below
/// global-min + lookahead. Never widens.
class FixedWindowPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "fixed"; }
  int plan(const SchedFeedback& fb, SimTime lookahead,
           std::vector<SimTime>& bounds) override;
};

/// Widens each group's window inside the safe envelope
///
///   bound_g <= min_{i != g}(mins[i]) + lookahead
///
/// which preserves the delivered schedule exactly: any event another group i
/// sends to g during the cycle carries time >= mins[i] + lookahead >=
/// bound_g, i.e. it lands beyond g's window and is merged at the next
/// barrier exactly as under the fixed policy. Only the virtual-time
/// straggler (the argmin group) has headroom — the one group the fixed
/// policy forces everyone to wait for. Event-density / idle feedback
/// modulates a per-group stretch factor that caps how far a group may run
/// ahead of its own pending minimum, bounding outbox growth and stop
/// latency.
class AdaptiveWindowPolicy final : public SchedulerPolicy {
 public:
  explicit AdaptiveWindowPolicy(int stretch_max)
      : stretch_max_(stretch_max < 1 ? 1 : stretch_max) {}

  const char* name() const override { return "adaptive"; }
  int plan(const SchedFeedback& fb, SimTime lookahead,
           std::vector<SimTime>& bounds) override;

 private:
  int stretch_max_;
  std::vector<std::uint32_t> stretch_;  ///< Per-group widening factor, >= 1.
};

/// Policy instance for a spec (one per Engine::run, not shared).
std::unique_ptr<SchedulerPolicy> make_scheduler(const SchedulerSpec& spec);

/// Process-wide scheduler counters (metrics/perf surfaces them next to the
/// pool and fan-out counters). Relaxed statistics: `speculated` / `rollbacks`
/// are deterministic for a given (worker count, policy, workload); `steals`,
/// `window_widenings` and `barrier_idle_ns` depend on host timing — none of
/// them feed back into the simulated schedule.
struct SchedStats {
  std::uint64_t windows = 0;           ///< Window phases decided.
  std::uint64_t window_widenings = 0;  ///< Per-group bounds wider than fixed.
  std::uint64_t steals = 0;            ///< Groups run by a non-home worker.
  std::uint64_t speculated = 0;        ///< Events staged past a window bound.
  std::uint64_t rollbacks = 0;         ///< Staged events invalidated by a merge.
  std::uint64_t barrier_idle_ns = 0;   ///< Worker ns spent waiting at barriers.
};
SchedStats sched_stats();

/// Engine-internal accumulation hooks for the process-wide SchedStats.
void sched_note_window(std::uint64_t widenings);
void sched_note_run(std::uint64_t steals, std::uint64_t speculated,
                    std::uint64_t rollbacks, std::uint64_t barrier_idle_ns);

}  // namespace exasim
