#include "core/cli.hpp"

#include <stdexcept>

#include "ckpt/tiered.hpp"
#include "core/failure.hpp"
#include "iomodel/storage.hpp"
#include "netmodel/routing.hpp"
#include "pdes/scheduler.hpp"
#include "pdes/sim_workers.hpp"
#include "resilience/detector.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "util/pool.hpp"
#include "vmpi/process.hpp"

namespace exasim::core {
std::string cli_usage() {
  return
      "options:\n"
      "  --ranks=N --topology=SPEC --ranks-per-node=N\n"
      "  --link-latency=DUR --bandwidth=B/s --overhead=DUR\n"
      "  --eager-threshold=BYTES --failure-timeout=DUR\n"
      "  --routing=deterministic|adaptive[:spread=K]\n"
      "                   (route-variant policy over equal-cost minimal\n"
      "                    routes; adaptive spreads flows keyed by\n"
      "                    (src,dst,seq); or env EXASIM_ROUTING; default\n"
      "                    deterministic)\n"
      "  --link-timeouts=uniform[:LO..HI[,seed=N]]|hot:ID=DUR[;..]|plane:P=DUR[;..]\n"
      "                   (per-link failure-timeout overrides; pair timeout =\n"
      "                    max over the route's links; or env\n"
      "                    EXASIM_LINK_TIMEOUTS; default uniform)\n"
      "  --contention     (fold per-link occupancy waits into delivery times;\n"
      "                    needs --sim-workers=1, rejected with more workers)\n"
      "  --slowdown=X --ns-per-unit=X\n"
      "  --pfs-bandwidth=B/s --pfs-latency=DUR\n"
      "  --storage=pfs|hpc|mem[:k=v,..];bb[:..];pfs[:..]\n"
      "                   (storage hierarchy; tier keys bw, cbw, lat, cap,\n"
      "                    contend; '+' accepted for ';'; or env\n"
      "                    EXASIM_STORAGE; default single free PFS)\n"
      "  --ckpt-mode=pfs|partner|staged\n"
      "                   (checkpoint placement: direct PFS, diskless partner\n"
      "                    copy in node memory, or partner + background drain\n"
      "                    through bb to PFS; or env EXASIM_CKPT_MODE;\n"
      "                    default pfs)\n"
      "  --failures=R@T,R@T   (or env EXASIM_FAILURES)\n"
      "  --failure-detector=paper-instant|timeout|heartbeat[:period=DUR][,miss=N]\n"
      "                   |gossip[:period=DUR][,fanout=K][,seed=N]\n"
      "                   (or env EXASIM_FAILURE_DETECTOR; when survivors\n"
      "                    learn of a failure; default paper-instant)\n"
      "  --mttf=DUR --distribution=uniform2m|exponential|weibull\n"
      "  --seed=N --max-restarts=N --stack-bytes=N\n"
      "  --measured-compute --sim-time-file=PATH --verbose\n"
      "  --replicates=N   (repeat with seeds seed..seed+N-1, report stats)\n"
      "  --jobs=N         (worker threads for replicates; 0 = all cores,\n"
      "                    default from EXASIM_JOBS)\n"
      "  --sim-workers=N|auto\n"
      "                   (engine worker threads inside one simulation;\n"
      "                    1 = sequential, auto = usable CPUs (affinity/\n"
      "                    cgroup aware), default from EXASIM_SIM_WORKERS;\n"
      "                    identical results for any N)\n"
      "  --scheduler=fixed|adaptive[:stretch=N][,gpw=N]\n"
      "                   (window scheduling policy of the sharded engine;\n"
      "                    adaptive widens per-group windows inside the safe\n"
      "                    envelope and steals ready LP groups across\n"
      "                    workers; or env EXASIM_SCHEDULER; identical\n"
      "                    results for either policy)\n"
      "  --speculate=N    (stage up to N events per LP group past the\n"
      "                    conservative window, rolled back when invalidated;\n"
      "                    0 = off; or env EXASIM_SPECULATE; identical\n"
      "                    results at any depth)\n"
      "  --no-pool        (disable the hot-path memory pools — payloads and\n"
      "                    fiber stacks fall back to plain heap/mmap; also\n"
      "                    env EXASIM_NO_POOL=1; identical results either way)\n"
      "  A malformed value, flag or EXASIM_* variable is an error (exit 2).\n";
}

std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::string* error) {
  CliOptions opts;
  SimConfig& m = opts.machine;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  // Environment first; explicit flags override (command line wins over
  // environment, like xSim).
  {
    auto schedule = FailureSchedule::from_env();
    if (!schedule) return fail(std::string("malformed ") + kFailureScheduleEnvVar);
    m.failures = schedule->specs();
  }
  try {
    m.detector = resolve(std::string(), resilience::kDetectorEnvVar,
                         resilience::parse_detector_spec, m.detector, "detector spec");
    m.net.link_timeouts = resolve(std::string(), kLinkTimeoutsEnvVar, parse_link_timeout_spec,
                                  m.net.link_timeouts, "link-timeout spec");
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    // A valued option that fails to parse, or a switch given a value.
    bool ok = true;
    auto spec = [&](bool valid, std::string& out) {
      ok = valid;
      if (valid) out = value;
    };
    auto flag = [&](bool& out) {
      ok = eq == std::string::npos;
      out = true;
    };

    if (key == "ranks") {
      ok = set_from(parse_int<int>(value, 1), m.ranks);
    } else if (key == "topology") {
      spec(!value.empty(), m.topology);
    } else if (key == "ranks-per-node") {
      ok = set_from(parse_int<int>(value, 1), m.ranks_per_node);
    } else if (key == "link-latency") {
      ok = set_from(parse_duration(value), m.net.link_latency);
    } else if (key == "bandwidth") {
      ok = set_from(parse_double(value, kPositive), m.net.bandwidth_bytes_per_sec);
      m.net.injection_bandwidth_bytes_per_sec = m.net.bandwidth_bytes_per_sec;
    } else if (key == "overhead") {
      ok = set_from(parse_duration(value), m.net.per_message_overhead);
    } else if (key == "eager-threshold") {
      ok = set_from(parse_int<std::size_t>(value), m.net.eager_threshold);
    } else if (key == "failure-timeout") {
      ok = set_from(parse_duration(value), m.net.failure_timeout);
    } else if (key == "routing") {
      spec(parse_routing_spec(value).has_value(), m.routing);
    } else if (key == "link-timeouts") {
      ok = set_from(parse_link_timeout_spec(value), m.net.link_timeouts);
    } else if (key == "contention") {
      flag(m.net.contention);
    } else if (key == "slowdown") {
      ok = set_from(parse_double(value, kPositive), m.proc.slowdown);
    } else if (key == "ns-per-unit") {
      ok = set_from(parse_double(value, 0.0), m.proc.reference_ns_per_unit);
    } else if (key == "pfs-bandwidth") {
      ok = set_from(parse_double(value, 0.0), m.pfs.aggregate_bandwidth_bytes_per_sec);
    } else if (key == "pfs-latency") {
      ok = set_from(parse_duration(value), m.pfs.metadata_latency);
    } else if (key == "storage") {
      spec(parse_storage_spec(value).has_value(), m.storage);
    } else if (key == "ckpt-mode") {
      spec(ckpt::parse_ckpt_mode(value).has_value(), m.ckpt_mode);
    } else if (key == "failures") {
      const auto schedule = FailureSchedule::parse(value);
      ok = schedule.has_value();
      if (ok) m.failures = schedule->specs();
    } else if (key == "failure-detector") {
      ok = set_from(resilience::parse_detector_spec(value), m.detector);
    } else if (key == "mttf") {
      ok = set_from(parse_duration(value), opts.mttf);
    } else if (key == "distribution") {
      if (value == "uniform2m") {
        opts.distribution = FailureDistribution::kUniform2Mttf;
      } else if (value == "exponential") {
        opts.distribution = FailureDistribution::kExponential;
      } else if (value == "weibull") {
        opts.distribution = FailureDistribution::kWeibull;
      } else {
        ok = false;
      }
    } else if (key == "seed") {
      ok = set_from(parse_int<std::uint64_t>(value), opts.seed);
    } else if (key == "max-restarts") {
      ok = set_from(parse_int<int>(value, 0), opts.max_restarts);
    } else if (key == "replicates") {
      ok = set_from(parse_int<int>(value, 1), opts.replicates);
    } else if (key == "jobs") {
      ok = set_from(parse_int<int>(value, 0, 1 << 20), opts.jobs);
    } else if (key == "sim-workers") {
      ok = set_from(value == "auto" ? std::optional<int>(-1) : parse_int<int>(value, 1, 1 << 20),
                    m.sim_workers);
    } else if (key == "scheduler") {
      spec(parse_scheduler_spec(value).has_value(), m.scheduler);
    } else if (key == "speculate") {
      ok = set_from(parse_int<int>(value, 0), m.speculate);
    } else if (key == "stack-bytes") {
      ok = set_from(parse_int<std::size_t>(value, 0, std::size_t{1} << 30),
                    m.process.fiber_stack_bytes);
    } else if (key == "no-pool") {
      // Escape hatch for debugging/benchmarking: provenance headers let
      // blocks allocated before the flip still free correctly.
      flag(opts.no_pool);
      if (ok) util::set_pool_enabled(false);
    } else if (key == "measured-compute") {
      flag(m.process.measured_compute);
    } else if (key == "sim-time-file") {
      opts.sim_time_file = value;
    } else if (key == "verbose") {
      flag(opts.verbose);
      if (ok) Log::set_level(LogLevel::kInfo);
    } else {
      return fail("unknown option: " + arg);
    }
    if (!ok) return fail("bad --" + key);
  }

  // Unless a topology was given, default to a star big enough for the rank
  // count (the flat model every rank-pair is 2 hops away in).
  if (m.topology == SimConfig{}.topology) {
    const int nodes = (m.ranks - 1) / m.ranks_per_node + 1;
    m.topology = "star:" + std::to_string(nodes);
  }

  if (auto bad = FailureSchedule(m.failures).first_invalid_rank(m.ranks)) {
    return fail("failure schedule rank out of range: " + std::to_string(*bad));
  }

  // Resolve every setting that defers to the environment now, so a malformed
  // EXASIM_* value or a configuration outside the determinism contract fails
  // at parse time instead of inside a run.
  try {
    resolve_routing_spec(m.routing);
    resolve_scheduler_spec(m.scheduler);
    resolve_speculation(m.speculate);
    ckpt::resolve_ckpt_mode(m.ckpt_mode);
    util::pool_enabled_from_env();
    vmpi::eager_wakeup_from_env();
    check_contention(m.net.contention, resolve_storage_spec(m.storage).any_contended(),
                     resolve_sim_workers(m.sim_workers));
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  return opts;
}

RunnerConfig runner_config_from(const CliOptions& options) {
  RunnerConfig rc;
  rc.base = options.machine;
  rc.first_run_failures = options.machine.failures;
  rc.base.failures.clear();
  rc.system_mttf = options.mttf;
  rc.distribution = options.distribution;
  rc.seed = options.seed;
  rc.max_restarts = options.max_restarts;
  rc.sim_time_file = options.sim_time_file;
  return rc;
}

}  // namespace exasim::core
