#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "apps/registry.hpp"
#include "core/cli.hpp"
#include "netmodel/network.hpp"
#include "netmodel/routing.hpp"
#include "netmodel/topology.hpp"
#include "pdes/sim_workers.hpp"
#include "resilience/detector.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "vmpi/context.hpp"
#include "vmpi/fabric.hpp"
#include "vmpi/trace.hpp"

namespace exabench {

using namespace exasim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// The paper's Table II machine (EXPERIMENTS.md): 1 us links, 32 GB/s, 256 kB
// eager threshold, 100 ms failure timeout, nodes 1000x slower than the
// calibrated reference core, 64 KiB fiber stacks.
const std::vector<std::string> kPaperMachine = {
    "--link-latency=1us", "--bandwidth=32e9",  "--overhead=500ns",
    "--eager-threshold=262144", "--failure-timeout=100ms", "--slowdown=1000",
    "--ns-per-unit=1281", "--stack-bytes=65536",
};

// Every engine, routing, storage and detector knob is pinned, so no
// EXASIM_* environment default can change a workload.
const std::vector<std::string> kPinned = {
    "--sim-workers=1",   "--scheduler=fixed", "--speculate=0",
    "--routing=deterministic", "--storage=pfs", "--ckpt-mode=pfs",
    "--failure-detector=paper-instant",
};

// Later arguments override earlier ones in core::parse_cli, so a workload's
// own settings follow the pinned defaults.
core::CliOptions parse_machine(const std::string& app, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"exabench", app.c_str()};
  for (const auto& a : args) argv.push_back(a.c_str());
  std::string error;
  auto options = core::parse_cli(static_cast<int>(argv.size()), argv.data(), &error);
  if (!options) throw std::invalid_argument("workload machine arguments: " + error);
  return *options;
}

std::vector<std::string> concat(std::initializer_list<std::vector<std::string>> parts) {
  std::vector<std::string> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

vmpi::AppMain make_app(const Workload& w) {
  const auto params = ParamMap::parse(w.app_params);
  if (!params) throw std::invalid_argument("malformed app params: " + w.app_params);
  return apps::make_app(w.app, *params, w.runner.base.ranks);
}

/// Uniform double in [0, 1) from the top 53 bits.
double unit_interval(SplitMix64& sm) {
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 14695981039346656037ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// sim_result_json minus its host-time fields (wall_seconds, events_per_sec,
/// which the serializer always emits last).
std::string simulated_json(const core::SimResult& r) {
  std::string json = core::sim_result_json(r);
  const auto pos = json.find(",\"wall_seconds\":");
  if (pos != std::string::npos) json = json.substr(0, pos) + "}";
  return json;
}

/// The SimConfig of a workload's first launch: the runner's base plus the
/// first-launch failures, with the lattice's first detector and policy for
/// the model-checker workload.
core::SimConfig launch_config(const Workload& w, bool with_failures) {
  core::SimConfig cfg = w.runner.base;
  if (with_failures) cfg.failures = w.runner.first_run_failures;
  if (w.lattice) {
    cfg.detector = w.lattice->detectors.front();
    cfg.ckpt_mode = ckpt::to_string(w.lattice->policies.front());
  }
  return cfg;
}

Workload table2_halo() {
  Workload w;
  w.name = "table2_halo";
  w.app = "heat3d";
  // Table II's 512^3 grid over 32^3 ranks, cut from 1000 iterations (8 halo
  // phases) to 250 (2 phases) so a pass takes seconds; the per-phase work
  // and the 32,768-rank machine are unchanged.
  w.app_params = "nx=512,px=32,iters=250,interval=125";
  w.machine_args = concat({kPaperMachine, kPinned,
                           {"--ranks=32768", "--topology=torus:32x32x32"}});
  w.input_key = "fixed";
  return w;
}

Workload restart_4608() {
  Workload w;
  w.name = "restart_4608";
  w.app = "heat3d";
  // The smallest machine past 4096 ranks, where heat3d switches to modeled
  // (skeleton) compute; 16^3 points per rank as in Table II. The restart's
  // tiered restore plan grows with world^2, so this scale keeps a pass at a
  // few seconds while the restore still dominates it.
  w.app_params = "nx=256,ny=256,nz=288,px=16,py=16,pz=18,iters=300,interval=100";
  w.machine_args = concat({kPaperMachine, kPinned,
                           {"--ranks=4608", "--topology=torus:16x16x18", "--storage=hpc",
                            "--ckpt-mode=staged"}});
  w.expected_failures = 1;
  w.expect_restore = true;
  return w;
}

Workload allreduce_sharded() {
  Workload w;
  w.name = "allreduce_sharded";
  w.app = "cgproxy";
  w.app_params = "iters=20,interval=10";
  w.machine_args = concat({kPaperMachine, kPinned,
                           {"--ranks=8192", "--topology=dragonfly:8x16x64",
                            "--routing=adaptive", "--sim-workers=2", "--scheduler=adaptive"}});
  w.input_key = "fixed";
  return w;
}

Workload mc_lattice() {
  Workload w;
  w.name = "mc_lattice";
  w.app = "heat3d";
  // The CI mc-check lattice (heat3d on 64 ranks of torus:4x4x4, 200
  // iterations, checkpoint every 40) with the recovery axis widened to all
  // three policies on priced hpc storage. nx=16 at slowdown 8000 gives the
  // same simulated timeline as the CI's nx=32 at slowdown 1000 with an
  // eighth of the native stencil work, so host time goes to the simulator,
  // the runner, exp and mc rather than to the stencil.
  w.app_params = "nx=16,px=4,iters=200,interval=40";
  w.machine_args = concat({kPinned, {"--ranks=64", "--topology=torus:4x4x4", "--storage=hpc",
                                     "--slowdown=8000"}});
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "table2_halo") {
    w = table2_halo();
  } else if (name == "restart_4608") {
    w = restart_4608();
  } else if (name == "allreduce_sharded") {
    w = allreduce_sharded();
  } else if (name == "mc_lattice") {
    w = mc_lattice();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.runner = core::runner_config_from(parse_machine(w.app, w.machine_args));

  SplitMix64 sm(seed);
  const int ranks = w.runner.base.ranks;
  if (w.expected_failures > 0) {
    // One failure inside the second checkpoint interval: the first
    // checkpoint set exists, so the restart restores from a tier. Every
    // such failure costs the same number of halo/checkpoint phases (work
    // lost before the failure is redone after it), so passes stay
    // comparable across seeds.
    const auto params = ParamMap::parse(w.app_params);
    const double points = static_cast<double>(*params->get_int("nx") * *params->get_int("ny") *
                                              *params->get_int("nz")) /
                          ranks;
    const double iteration_s = points * w.runner.base.proc.reference_ns_per_unit * 1e-9 *
                               w.runner.base.proc.slowdown;
    const double interval_s = iteration_s * static_cast<double>(*params->get_int("interval"));
    const int victim = static_cast<int>(sm.next() % static_cast<std::uint64_t>(ranks));
    const double t = interval_s * (1.1 + 0.8 * unit_interval(sm));
    const SimTime fail_at = sim_ms(static_cast<std::int64_t>(t * 1e3));
    w.runner.first_run_failures = {FailureSpec{victim, fail_at}};
    w.input_key = "victim=" + std::to_string(victim) + ",fail_ns=" + std::to_string(fail_at);
  }
  if (w.name == "mc_lattice") {
    // One victim per block of kMcBlock consecutive ranks. A few ranks (rank 0
    // and some of its neighbours) have boundary-rich lattice rows that cost
    // up to 1.5x the evaluations of the rest; eight victims spread over the
    // machine keep the work of one answer within a few percent across seeds.
    constexpr int kMcBlock = 8;
    mc::LatticeSpec spec;
    for (int block = 0; block + kMcBlock <= ranks; block += kMcBlock) {
      spec.victims.push_back(block + static_cast<int>(sm.next() % kMcBlock));
    }
    spec.detectors = *mc::parse_detector_list("paper-instant;timeout;gossip");
    spec.policies = *mc::parse_policy_list("pfs,partner,staged");
    spec.grid = 9;
    spec.depth = 6;
    w.lattice = spec;
    w.jobs = std::min(4, resolve_sim_workers(-1));
    w.input_key = "victims=";
    for (std::size_t i = 0; i < spec.victims.size(); ++i) {
      if (i > 0) w.input_key += ",";
      w.input_key += std::to_string(spec.victims[i]);
    }
  }
  return w;
}

namespace {

PassResult runner_pass(const Workload& w, SpanRecorder& rec) {
  PassResult out;
  ScopedSpan pass(rec, "bench.pass");
  const auto t0 = Clock::now();
  vmpi::AppMain app;
  {
    ScopedSpan s(rec, "apps.make_app");
    app = make_app(w);
  }
  core::RunnerResult res;
  {
    ScopedSpan s(rec, "core.ResilientRunner.run");
    core::ResilientRunner runner(w.runner, app);
    res = runner.run();
    if (rec.enabled()) {
      std::uint64_t events = 0, causality = 0, notices = 0, restore_tier = 0;
      SimTime max_latency = 0;
      for (std::size_t i = 0; i < res.run_results.size(); ++i) {
        const auto& r = res.run_results[i];
        events += r.events_processed;
        causality += r.causality_violations;
        notices += r.failure_notices;
        restore_tier = std::max(restore_tier, r.perf.ckpt_restore_tier);
        max_latency = std::max(max_latency, r.max_detection_latency);
        s.attr("launch" + std::to_string(i) + "_wall_s", r.wall_seconds);
      }
      s.attr("launches", res.launches);
      s.attr("failures", res.failures);
      s.attr("events", static_cast<double>(events));
      s.attr("causality_violations", static_cast<double>(causality));
      s.attr("failure_notices", static_cast<double>(notices));
      s.attr("max_detection_latency_sim_s", to_seconds(max_latency));
      s.attr("restore_tier", static_cast<double>(restore_tier));
      s.attr("sim_workers", resolve_sim_workers(w.runner.base.sim_workers));
    }
  }
  out.host_s = seconds_since(t0);
  pass.attr("pool_slab_bytes", static_cast<double>(perf_snapshot().pool_slab_bytes));

  std::string text;
  std::uint64_t restore_tier = 0;
  for (const auto& r : res.run_results) {
    text += simulated_json(r) + "\n";
    restore_tier = std::max(restore_tier, r.perf.ckpt_restore_tier);
    if (r.outcome == core::SimResult::Outcome::kDeadlock || !r.deadlocked_ranks.empty()) {
      out.violations.push_back("launch deadlocked");
    }
    if (r.causality_violations != 0) {
      out.violations.push_back("causality violations: " + std::to_string(r.causality_violations));
    }
  }
  text += "E2=" + std::to_string(res.total_time) + " F=" + std::to_string(res.failures) +
          " launches=" + std::to_string(res.launches);
  out.digest = hex16(fnv1a(text));

  if (!res.completed) out.violations.push_back("experiment did not complete");
  if (res.launches != res.failures + 1) out.violations.push_back("launches != F + 1");
  if (res.failures != w.expected_failures) {
    out.violations.push_back("F = " + std::to_string(res.failures) + ", expected " +
                             std::to_string(w.expected_failures));
  }
  if (w.expect_restore && restore_tier == 0) {
    out.violations.push_back("restart did not restore from a checkpoint tier");
  }
  return out;
}

PassResult mc_pass(const Workload& w, SpanRecorder& rec) {
  PassResult out;
  ScopedSpan pass(rec, "bench.pass");
  const auto t0 = Clock::now();
  mc::ExplorerConfig cfg;
  cfg.lattice = *w.lattice;
  cfg.runner = w.runner;
  cfg.app_name = w.app;
  cfg.app_params = w.app_params;
  cfg.jobs = w.jobs;
  {
    ScopedSpan s(rec, "apps.make_app");
    cfg.app = make_app(w);
  }
  mc::McReport rep;
  {
    ScopedSpan s(rec, "mc.explore");
    double wave_start = rec.now();
    int waves = 0;
    // Waves are timed between progress callbacks; wave 0 also covers the
    // failure-free baseline probes that precede it.
    cfg.progress = [&](int wave, std::uint64_t explored, std::uint64_t) {
      const double t = rec.now();
      const int id = rec.add("mc.wave", s.id(), wave_start, t);
      rec.attr(id, "wave", wave);
      rec.attr(id, "explored", static_cast<double>(explored));
      wave_start = t;
      ++waves;
    };
    const double cpu0 = cpu_seconds();
    rep = mc::explore(cfg);
    s.attr("cpu_s", cpu_seconds() - cpu0);
    s.attr("raw", static_cast<double>(rep.raw_scenarios));
    s.attr("explored", static_cast<double>(rep.explored));
    s.attr("pruned", static_cast<double>(rep.pruned));
    s.attr("unknown", static_cast<double>(rep.unknown));
    s.attr("waves", waves);
    s.attr("jobs", w.jobs);
  }
  out.host_s = seconds_since(t0);
  pass.attr("pool_slab_bytes", static_cast<double>(perf_snapshot().pool_slab_bytes));
  out.digest = hex16(fnv1a(rep.to_json()));
  if (rep.explored + rep.pruned + rep.unknown != rep.raw_scenarios) {
    out.violations.push_back("explored + pruned + unknown != raw");
  }
  if (rep.eval_errors != 0) {
    out.violations.push_back(std::to_string(rep.eval_errors) + " scenario evaluations threw");
  }
  out.mc_report = std::move(rep);
  return out;
}

}  // namespace

PassResult run_pass(const Workload& w, SpanRecorder& rec) {
  return w.lattice ? mc_pass(w, rec) : runner_pass(w, rec);
}

SetupTimes run_setup(const Workload& w, SpanRecorder& rec) {
  const core::SimConfig cfg = launch_config(w, /*with_failures=*/false);
  ScopedSpan root(rec, "bench.setup_probe");
  if (rec.enabled()) {
    // The same builds the Machine constructor performs, timed one by one.
    std::shared_ptr<const NetworkModel> network;
    {
      ScopedSpan s(rec, "netmodel.make_topology");
      std::shared_ptr<const Topology> topo = make_topology(cfg.topology);
      network = std::make_shared<NetworkModel>(std::move(topo), cfg.net,
                                               resolve_routing_spec(cfg.routing));
    }
    std::unique_ptr<vmpi::Fabric> fabric;
    {
      ScopedSpan s(rec, "vmpi.Fabric");
      fabric = std::make_unique<vmpi::Fabric>(network, cfg.ranks_per_node);
    }
    {
      ScopedSpan s(rec, "resilience.make_detector");
      resilience::DetectorWiring wiring;
      const vmpi::Fabric* f = fabric.get();
      wiring.pair_timeout = [f](int observer, int failed) {
        return f->failure_timeout(observer, failed);
      };
      wiring.pair_latency = [f](int observer, int failed) {
        return f->delivery(observer, failed, 0);
      };
      wiring.default_period = network->max_failure_timeout();
      wiring.ranks = cfg.ranks;
      resilience::make_detector(cfg.detector, std::move(wiring));
    }
  }
  SetupTimes out;
  std::optional<core::Machine> machine;
  auto t0 = Clock::now();
  {
    ScopedSpan s(rec, "core.Machine.ctor");
    // MPI_Init + MPI_Finalize only (returning without finalize is a failure).
    machine.emplace(cfg, [](vmpi::Context& ctx) { ctx.finalize(); });
  }
  out.ctor_s = seconds_since(t0);
  t0 = Clock::now();
  core::SimResult r;
  {
    ScopedSpan s(rec, "core.Machine.run");
    r = machine->run();
    s.attr("ranks", cfg.ranks);
  }
  out.run_s = seconds_since(t0);
  if (r.outcome != core::SimResult::Outcome::kCompleted || r.finished_count != cfg.ranks) {
    throw std::runtime_error("no-op machine did not complete (" +
                             std::to_string(r.finished_count) + " of " +
                             std::to_string(cfg.ranks) + " ranks finished)");
  }
  return out;
}

void run_vmpi_probe(const Workload& w, SpanRecorder& rec) {
  ScopedSpan root(rec, "bench.vmpi_probe");
  core::SimConfig cfg = launch_config(w, /*with_failures=*/true);
  cfg.trace = true;
  const vmpi::AppMain app = make_app(w);
  ckpt::CheckpointStore store(cfg.ranks);
  std::optional<core::Machine> machine;
  {
    ScopedSpan s(rec, "core.Machine.ctor");
    machine.emplace(cfg, app);
  }
  machine->set_checkpoint_store(&store);
  core::SimResult r;
  {
    ScopedSpan s(rec, "core.Machine.run");
    r = machine->run();
  }
  std::uint64_t sends = 0, bytes = 0;
  SimTime recv_wait = 0;
  for (const auto& rec_op : machine->trace()->records()) {
    if (rec_op.op == vmpi::TraceRecord::Op::kSend) {
      ++sends;
      bytes += rec_op.bytes;
    } else if (rec_op.op == vmpi::TraceRecord::Op::kRecv) {
      recv_wait += rec_op.end - rec_op.start;
    }
  }
  const double busy = static_cast<double>(r.total_busy_time);
  const double comm = static_cast<double>(r.total_comm_time);
  root.attr("sends", static_cast<double>(sends));
  root.attr("bytes_sent", static_cast<double>(bytes));
  root.attr("recv_wait_sim_s", to_seconds(recv_wait));
  root.attr("comm_frac_sim", busy + comm > 0 ? comm / (busy + comm) : 0.0);
}

void run_mc_samples(const Workload& w, const mc::McReport& report, SpanRecorder& rec) {
  ScopedSpan root(rec, "bench.mc_samples");
  const mc::ScenarioLattice lattice(report.spec);
  const auto initial = lattice.initial_indices();
  const vmpi::AppMain app = make_app(w);
  for (std::size_t r = 0; r < lattice.rows().size(); ++r) {
    const SimTime t = lattice.time_of(initial[r % initial.size()]);
    ScopedSpan s(rec, "mc.evaluate_scenario");
    const auto outcome = mc::evaluate_scenario(w.runner, app, lattice.rows()[r], report.spec, t);
    if (!outcome.error.empty()) throw std::runtime_error("evaluate_scenario: " + outcome.error);
  }
}

}  // namespace exabench
