#include "exp/executor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "util/parse.hpp"

namespace exasim::exp {

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

/// A job count: 0 = all hardware threads.
std::optional<int> parse_jobs(std::string_view text) {
  const auto jobs = parse_int<int>(text, 0, 1 << 20);
  if (jobs == 0) return hardware_jobs();
  return jobs;
}

}  // namespace

int default_jobs() { return resolve(std::string(), "EXASIM_JOBS", parse_jobs, 1, "job count"); }

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (requested == 0) return hardware_jobs();
  return default_jobs();
}

int compose_jobs(int requested_jobs, int sim_workers_per_run) {
  const int jobs = resolve_jobs(requested_jobs);
  const int per_run = std::max(sim_workers_per_run, 1);
  return std::max(1, (jobs + per_run - 1) / per_run);
}

int jobs_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::optional<int> jobs;
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = parse_jobs(arg.substr(7));
    } else if (arg == "--jobs") {
      if (i + 1 < argc) jobs = parse_jobs(argv[i + 1]);
    } else {
      continue;
    }
    if (!jobs) throw std::invalid_argument("bad --jobs");
    return *jobs;
  }
  return -1;
}

int jobs_or_exit(int argc, char** argv) {
  try {
    return resolve_jobs(jobs_from_cli(argc, argv));
  } catch (const std::invalid_argument& e) {
    const std::string_view program = argc > 0 ? argv[0] : "exasim";
    std::fprintf(stderr, "%s: %s\n",
                 std::string(program.substr(program.rfind('/') + 1)).c_str(), e.what());
    std::exit(2);
  }
}

namespace detail {

void run_indexed(std::size_t n, int jobs, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers =
      std::min(n, static_cast<std::size_t>(std::max(jobs, 1)));
  if (workers <= 1) {
    // Inline serial execution: exactly the old single-threaded bench loop.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace detail

}  // namespace exasim::exp
