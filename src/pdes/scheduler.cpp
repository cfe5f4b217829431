#include "pdes/scheduler.hpp"

#include <algorithm>
#include <atomic>

#include "util/parse.hpp"

namespace exasim {

namespace {

// Process-wide scheduler counters (relaxed: statistics, not synchronization),
// mirroring the fan-out counters in engine.cpp so metrics/perf can read them
// without a handle on the engine.
std::atomic<std::uint64_t> g_sched_windows{0};
std::atomic<std::uint64_t> g_sched_widenings{0};
std::atomic<std::uint64_t> g_sched_steals{0};
std::atomic<std::uint64_t> g_sched_speculated{0};
std::atomic<std::uint64_t> g_sched_rollbacks{0};
std::atomic<std::uint64_t> g_sched_idle_ns{0};

/// Feedback thresholds for the adaptive stretch controller: a group that
/// delivered fewer events than kSparseEvents in its last window is running
/// windows too fine (barrier overhead dominates) and may widen; one that
/// delivered more than kDenseEvents narrows back so no group runs unboundedly
/// far ahead of the merge point.
constexpr std::uint64_t kSparseEvents = 64;
constexpr std::uint64_t kDenseEvents = 8192;

}  // namespace

std::optional<SchedulerSpec> parse_scheduler_spec(const std::string& text) {
  const auto [head, body] = split_spec(text);
  SchedulerSpec spec;
  if (head == "adaptive") {
    spec.kind = SchedulerKind::kAdaptive;
  } else if (head != "fixed") {
    return std::nullopt;
  }
  auto field = [&spec](std::string_view key, std::string_view value) {
    const auto n = parse_int<int>(value, 1, 1 << 20);
    if (key == "stretch" && spec.kind == SchedulerKind::kAdaptive) {
      return set_from(n, spec.stretch_max);
    }
    return key == "gpw" && set_from(n, spec.groups_per_worker);
  };
  if (body && !parse_fields(*body, field)) return std::nullopt;
  return spec;
}

std::string to_string(const SchedulerSpec& spec) {
  if (spec.kind == SchedulerKind::kFixed) {
    std::string s = "fixed";
    if (spec.groups_per_worker > 0) s += ":gpw=" + std::to_string(spec.groups_per_worker);
    return s;
  }
  std::string s = "adaptive";
  const SchedulerSpec defaults;
  std::string opts;
  if (spec.stretch_max != defaults.stretch_max) {
    opts += "stretch=" + std::to_string(spec.stretch_max);
  }
  if (spec.groups_per_worker > 0) {
    if (!opts.empty()) opts += ",";
    opts += "gpw=" + std::to_string(spec.groups_per_worker);
  }
  if (!opts.empty()) s += ":" + opts;
  return s;
}

const std::vector<std::string>& list_schedulers() {
  static const std::vector<std::string> kNames = {"fixed", "adaptive"};
  return kNames;
}

SchedulerSpec resolve_scheduler_spec(const std::string& configured) {
  return resolve(configured, kSchedulerEnvVar, parse_scheduler_spec, SchedulerSpec{},
                 "scheduler spec");
}

int resolve_speculation(int configured) {
  if (configured >= 0) return configured;
  return resolve(std::string(), kSpeculateEnvVar,
                 [](std::string_view text) { return parse_int<int>(text, 0); }, 0,
                 "speculation depth");
}

int FixedWindowPolicy::plan(const SchedFeedback& fb, SimTime lookahead,
                            std::vector<SimTime>& bounds) {
  SimTime global_min = kSimTimeNever;
  for (SimTime t : fb.mins) global_min = std::min(global_min, t);
  const SimTime bound =
      global_min > kSimTimeNever - lookahead ? kSimTimeNever : global_min + lookahead;
  std::fill(bounds.begin(), bounds.end(), bound);
  return 0;
}

int AdaptiveWindowPolicy::plan(const SchedFeedback& fb, SimTime lookahead,
                               std::vector<SimTime>& bounds) {
  const std::size_t groups = fb.mins.size();
  if (stretch_.size() != groups) stretch_.assign(groups, 1);

  // Saturating t + n*lookahead.
  auto widen = [&](SimTime t, std::uint64_t n) {
    if (t == kSimTimeNever) return kSimTimeNever;
    const SimTime span = lookahead > kSimTimeNever / static_cast<SimTime>(n)
                             ? kSimTimeNever
                             : lookahead * static_cast<SimTime>(n);
    return t > kSimTimeNever - span ? kSimTimeNever : t + span;
  };

  // Two smallest pending minima: min over i != g is global_min unless g is
  // the unique argmin, in which case it is the second smallest.
  SimTime global_min = kSimTimeNever;
  SimTime second_min = kSimTimeNever;
  std::size_t min_count = 0;
  for (SimTime t : fb.mins) {
    if (t < global_min) {
      second_min = global_min;
      global_min = t;
      min_count = 1;
    } else if (t == global_min) {
      ++min_count;
    } else {
      second_min = std::min(second_min, t);
    }
  }
  const SimTime fixed_bound = widen(global_min, 1);

  // Stretch feedback: groups that delivered sparse windows (and workers did
  // idle at the barriers) widen; dense groups narrow back. The stretch only
  // caps the group's own headroom — safety comes from the envelope below.
  const bool idled = fb.idle_ns > 0;
  int widenings = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (fb.window_events[g] > kDenseEvents) {
      stretch_[g] = std::max<std::uint32_t>(1, stretch_[g] / 2);
    } else if (idled && fb.window_events[g] < kSparseEvents) {
      stretch_[g] = std::min<std::uint32_t>(static_cast<std::uint32_t>(stretch_max_),
                                            stretch_[g] * 2);
    }
    const SimTime others_min =
        (fb.mins[g] == global_min && min_count == 1) ? second_min : global_min;
    const SimTime envelope = widen(others_min, 1);
    const SimTime desired = widen(fb.mins[g], stretch_[g]);
    SimTime bound = std::min(envelope, desired);
    if (bound < fixed_bound) bound = fixed_bound;  // never narrower than fixed
    bounds[g] = bound;
    if (bound > fixed_bound) ++widenings;
  }
  return widenings;
}

std::unique_ptr<SchedulerPolicy> make_scheduler(const SchedulerSpec& spec) {
  if (spec.kind == SchedulerKind::kAdaptive) {
    return std::make_unique<AdaptiveWindowPolicy>(spec.stretch_max);
  }
  return std::make_unique<FixedWindowPolicy>();
}

SchedStats sched_stats() {
  SchedStats s;
  s.windows = g_sched_windows.load(std::memory_order_relaxed);
  s.window_widenings = g_sched_widenings.load(std::memory_order_relaxed);
  s.steals = g_sched_steals.load(std::memory_order_relaxed);
  s.speculated = g_sched_speculated.load(std::memory_order_relaxed);
  s.rollbacks = g_sched_rollbacks.load(std::memory_order_relaxed);
  s.barrier_idle_ns = g_sched_idle_ns.load(std::memory_order_relaxed);
  return s;
}

void sched_note_window(std::uint64_t widenings) {
  g_sched_windows.fetch_add(1, std::memory_order_relaxed);
  if (widenings != 0) g_sched_widenings.fetch_add(widenings, std::memory_order_relaxed);
}

void sched_note_run(std::uint64_t steals, std::uint64_t speculated,
                    std::uint64_t rollbacks, std::uint64_t barrier_idle_ns) {
  if (steals != 0) g_sched_steals.fetch_add(steals, std::memory_order_relaxed);
  if (speculated != 0) g_sched_speculated.fetch_add(speculated, std::memory_order_relaxed);
  if (rollbacks != 0) g_sched_rollbacks.fetch_add(rollbacks, std::memory_order_relaxed);
  if (barrier_idle_ns != 0) {
    g_sched_idle_ns.fetch_add(barrier_idle_ns, std::memory_order_relaxed);
  }
}

}  // namespace exasim
