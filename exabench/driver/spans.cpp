#include "spans.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>

namespace exabench {

namespace {

std::vector<std::pair<const char*, std::uint64_t>> perf_fields(const exasim::PerfSnapshot& p) {
  return {
      {"pool_allocs", p.pool_allocs},
      {"pool_frees", p.pool_frees},
      {"pool_recycled", p.pool_recycled},
      {"pool_heap_allocs", p.pool_heap_allocs},
      {"pool_slab_bytes", p.pool_slab_bytes},
      {"stacks_mapped", p.stacks_mapped},
      {"stacks_reused", p.stacks_reused},
      {"stacks_high_water", p.stacks_high_water},
      {"fanout_notices", p.fanout_notices},
      {"fanout_relays", p.fanout_relays},
      {"fanout_dead_skips", p.fanout_dead_skips},
      {"sched_windows", p.sched_windows},
      {"sched_window_widenings", p.sched_window_widenings},
      {"sched_steals", p.sched_steals},
      {"sched_speculated", p.sched_speculated},
      {"sched_rollbacks", p.sched_rollbacks},
      {"sched_barrier_idle_ns", p.sched_barrier_idle_ns},
      {"fiber_resumes", p.fiber_resumes},
      {"wakeups_suppressed", p.wakeups_suppressed},
      {"queue_near_hits", p.queue_near_hits},
      {"bulk_merges", p.bulk_merges},
      {"ckpt_stages", p.ckpt_stages},
      {"ckpt_drains", p.ckpt_drains},
      {"ckpt_partner_copies", p.ckpt_partner_copies},
      {"ckpt_restore_tier", p.ckpt_restore_tier},
  };
}

}  // namespace

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int SpanRecorder::open(std::string name) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<int>(spans_.size()) + 1;
  s.parent = current();
  s.name = std::move(name);
  open_perf_.push_back(exasim::perf_snapshot());
  s.start_s = now();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(int id) {
  if (id == 0 || stack_.empty() || stack_.back() != id) return;
  Span* s = find(id);
  s->end_s = now();
  s->perf = exasim::perf_delta(open_perf_.back(), exasim::perf_snapshot());
  open_perf_.pop_back();
  stack_.pop_back();
}

int SpanRecorder::add(std::string name, int parent, double start_s, double end_s) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<int>(spans_.size()) + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::attr(int id, std::string key, double value) {
  if (Span* s = find(id)) s->attrs.emplace_back(std::move(key), value);
}

Span* SpanRecorder::find(int id) {
  if (id <= 0 || id > static_cast<int>(spans_.size())) return nullptr;
  return &spans_[static_cast<std::size_t>(id - 1)];
}

std::string SpanRecorder::to_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":" << json_quote(s.name) << ",\"start_s\":" << json_number(s.start_s)
       << ",\"end_s\":" << json_number(s.end_s) << ",\"perf\":{";
    bool first = true;
    for (const auto& [key, value] : perf_fields(s.perf)) {
      if (value == 0) continue;
      os << (first ? "" : ",") << json_quote(key) << ":" << value;
      first = false;
    }
    os << "},\"attrs\":{";
    for (std::size_t a = 0; a < s.attrs.size(); ++a) {
      os << (a == 0 ? "" : ",") << json_quote(s.attrs[a].first) << ":"
         << json_number(s.attrs[a].second);
    }
    os << "}}";
  }
  os << "]";
  return os.str();
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace exabench
