#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "metrics/perf.hpp"

namespace exabench {

/// One timed interval around a call into a simulator layer. Times are host
/// seconds since the recorder was created; `perf` is the PerfSnapshot delta
/// over the interval, taken at the same two boundaries. `attrs` carries
/// values the layer's public API returned for this call (launch counts,
/// per-launch wall seconds, ...), by name.
struct Span {
  int id = 0;
  int parent = 0;  ///< 0 = root.
  std::string name;  ///< "<layer>.<call>", e.g. "core.ResilientRunner.run".
  double start_s = 0;
  double end_s = 0;
  exasim::PerfSnapshot perf;
  std::vector<std::pair<std::string, double>> attrs;
};

/// Keeps spans in memory until the run ends (to_json writes them out). A
/// disabled recorder ignores every call, so the untraced passes run the same
/// code with no span bookkeeping.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Host seconds since construction.
  double now() const;

  /// Opens a span as a child of the innermost open span; returns its id
  /// (0 when disabled).
  int open(std::string name);
  void close(int id);

  /// Records an already-measured interval (e.g. an mc::explore wave, timed
  /// between two progress callbacks) as a child of `parent`.
  int add(std::string name, int parent, double start_s, double end_s);

  /// Attaches a named value to span `id` (no-op for id 0).
  void attr(int id, std::string key, double value);

  /// Innermost open span (0 if none).
  int current() const { return stack_.empty() ? 0 : stack_.back(); }

  /// [{"id", "parent", "name", "start_s", "end_s", "perf": {...},
  ///   "attrs": {...}}, ...] — perf lists the non-zero counters only.
  std::string to_json() const;

 private:
  Span* find(int id);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<exasim::PerfSnapshot> open_perf_;
};

/// RAII span: opened in the constructor, closed in the destructor (so a
/// layer that throws still leaves a closed span behind).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name) : rec_(rec), id_(rec.open(std::move(name))) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void attr(std::string key, double value) { rec_.attr(id_, std::move(key), value); }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// JSON string literal (quoted, escaped).
std::string json_quote(const std::string& s);

/// Shortest round-trippable decimal form of a double ("null" for NaN/inf).
std::string json_number(double v);

}  // namespace exabench
