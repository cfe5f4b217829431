// exabench_driver — the measuring half of the exasim benchmark (run.py is the
// other half: it builds this binary, repeats set-up in fresh processes,
// checks digests and prints the metrics).
//
//   exabench_driver setup --workload W --seed N
//       One cold set-up (core::Machine constructor + run with a no-op app)
//       in this process; prints {"setup_s", "ctor_s", "run_s", "input_key"}.
//
//   exabench_driver run --workload W --seed N --seconds S [--trace-out PATH]
//       Closed loop of passes until S host seconds have elapsed (at least
//       one). Prints the generated inputs, one JSON line per pass as it
//       ends, and a summary line (pass count, peak RSS). With
//       --trace-out, passes alternate untraced/traced (an even count, at least
//       two), a set-up probe runs first and a vmpi probe (and, for the
//       lattice, direct scenario evaluations) last, and every span is
//       written to PATH when the run ends.
//
//   --sim-workers N (either mode) overrides the workload's engine worker
//   count; the simulated outputs, and so the digests, must not change.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using exabench::json_number;
using exabench::json_quote;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::string trace_out;
  int sim_workers = 0;  ///< 0 = the workload's own setting.
};

int usage(const std::string& msg) {
  std::fprintf(stderr,
               "exabench_driver: %s\n"
               "usage: exabench_driver setup --workload W --seed N\n"
               "       exabench_driver run --workload W --seed N --seconds S "
               "[--trace-out PATH]\n"
               "       (either mode: --sim-workers N overrides the engine worker count)\n",
               msg.c_str());
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv, std::string* error) {
  Args a;
  if (argc < 2) {
    *error = "missing mode";
    return std::nullopt;
  }
  a.mode = argv[1];
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0)) {
        *error = "--seconds wants a positive number";
        return std::nullopt;
      }
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--sim-workers") {
      const long n = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || n < 1 || n > 64) {
        *error = "--sim-workers wants 1..64";
        return std::nullopt;
      }
      a.sim_workers = static_cast<int>(n);
    } else {
      *error = "unknown option " + key;
      return std::nullopt;
    }
  }
  if (a.mode != "setup" && a.mode != "run") *error = "mode must be setup or run";
  if (a.workload.empty()) *error = "missing --workload";
  if (!have_seed) *error = "missing or malformed --seed";
  if (a.mode == "run" && a.seconds <= 0) *error = "run needs --seconds";
  if (!error->empty()) return std::nullopt;
  return a;
}

/// Workloads pin every simulator knob explicitly; clearing EXASIM_* also
/// keeps the env-only switches (pool, wakeup filter, failures) at defaults.
void clear_exasim_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("EXASIM_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += json_quote(items[i]);
  }
  return out + "]";
}

std::string pass_json(int index, bool traced, const exabench::PassResult& r) {
  return "{\"pass\":" + std::to_string(index) + ",\"traced\":" + (traced ? "true" : "false") +
         ",\"host_s\":" + json_number(r.host_s) + ",\"digest\":" + json_quote(r.digest) +
         ",\"violations\":" + json_list(r.violations) + "}";
}

std::string inputs_json(const exabench::Workload& w) {
  return "{\"inputs\":{\"input_key\":" + json_quote(w.input_key) + ",\"app\":" +
         json_quote(w.app) + ",\"app_params\":" + json_quote(w.app_params) +
         ",\"machine_args\":" + json_list(w.machine_args) + "}}";
}

int run_mode(const Args& args, const exabench::Workload& w) {
  std::printf("%s\n", inputs_json(w).c_str());
  std::fflush(stdout);
  const bool traced = !args.trace_out.empty();
  exabench::SpanRecorder rec(traced);
  if (traced) exabench::run_setup(w, rec);  // Cold: before any pass warms the pools.

  std::vector<std::string> pass_lines;
  std::optional<exasim::mc::McReport> last_report;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  int passes = 0;
  while (passes < (traced ? 2 : 1) || elapsed() < args.seconds || (traced && passes % 2 != 0)) {
    const bool traced_pass = traced && passes % 2 == 1;
    rec.set_enabled(traced_pass);
    exabench::PassResult r;
    const auto p0 = std::chrono::steady_clock::now();
    try {
      r = exabench::run_pass(w, rec);
    } catch (const std::exception& e) {
      r.host_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - p0).count();
      r.violations.push_back(std::string("exception: ") + e.what());
    }
    if (r.mc_report) last_report = std::move(r.mc_report);
    pass_lines.push_back(pass_json(passes, traced_pass, r));
    std::printf("%s\n", pass_lines.back().c_str());
    std::fflush(stdout);
    ++passes;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);  // Before the probes: the passes' high-water mark.
  const long peak_rss_kib = ru.ru_maxrss;

  if (traced) {
    rec.set_enabled(true);
    exabench::run_vmpi_probe(w, rec);
    if (last_report) exabench::run_mc_samples(w, *last_report, rec);
    std::ofstream out(args.trace_out);
    out << "{\"workload\":" << json_quote(w.name) << ",\"seed\":" << args.seed
        << ",\"input_key\":" << json_quote(w.input_key) << ",\"passes\":[";
    for (std::size_t i = 0; i < pass_lines.size(); ++i) out << (i ? ",\n" : "") << pass_lines[i];
    out << "],\n\"spans\":" << rec.to_json() << "}\n";
    if (!out) {
      std::fprintf(stderr, "exabench_driver: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"summary\":{\"passes\":%d,\"peak_rss_kib\":%ld}}\n", passes, peak_rss_kib);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = parse_args(argc, argv, &error);
  if (!args) return usage(error);
  clear_exasim_environment();
  try {
    exabench::Workload w = exabench::make_workload(args->workload, args->seed);
    if (args->sim_workers > 0) w.runner.base.sim_workers = args->sim_workers;
    if (args->mode == "setup") {
      exabench::SpanRecorder off(false);
      const auto t = exabench::run_setup(w, off);
      std::printf("{\"setup_s\":%s,\"ctor_s\":%s,\"run_s\":%s,\"input_key\":%s}\n",
                  json_number(t.ctor_s + t.run_s).c_str(), json_number(t.ctor_s).c_str(),
                  json_number(t.run_s).c_str(), json_quote(w.input_key).c_str());
      return 0;
    }
    return run_mode(*args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exabench_driver: %s\n", e.what());
    return 1;
  }
}
