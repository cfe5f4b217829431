// Ablation of the failure-detection model (paper §IV-C): the simulated
// network communication timeout is configurable per network level; this
// bench sweeps it and reports (a) failure->abort detection latency and
// (b) its effect on E2 in a full checkpoint/restart experiment.
//
// Each timeout value is one independent work item (latency probe + E2
// campaign) on exp::ParallelExecutor — `--jobs N` / EXASIM_JOBS.

#include <cstdio>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

core::SimConfig machine(SimTime timeout) {
  core::SimConfig m;
  m.ranks = 512;
  m.topology = "torus:8x8x8";
  m.net.link_latency = sim_us(1);
  m.net.bandwidth_bytes_per_sec = 32e9;
  m.net.failure_timeout = timeout;
  m.proc.slowdown = 100.0;
  m.proc.reference_ns_per_unit = 100.0;
  return m;
}

apps::HeatParams heat() {
  apps::HeatParams h;
  h.nx = h.ny = h.nz = 64;  // 8^3 per rank.
  h.px = h.py = h.pz = 8;
  h.total_iterations = 1000;
  h.halo_interval = 100;
  h.checkpoint_interval = 100;
  h.real_compute = false;
  return h;
}

struct Row {
  double latency = 0;
  double e2_seconds = 0;
  int failures = 0;
  double mttf_a_seconds = 0;
};

Row evaluate(SimTime timeout) {
  Row row;
  // Deterministic single failure for the latency column.
  {
    core::SimConfig cfg = machine(timeout);
    cfg.failures = {FailureSpec{100, sim_sec(2)}};
    ckpt::CheckpointStore store(cfg.ranks);
    core::Machine m(cfg, apps::make_heat3d(heat()));
    m.set_checkpoint_store(&store);
    core::SimResult r = m.run();
    if (r.abort_time && !r.activated_failures.empty()) {
      row.latency = to_seconds(*r.abort_time) - to_seconds(r.activated_failures[0].time);
    }
  }
  // Random failures for the E2 column.
  core::RunnerConfig rc;
  rc.base = machine(timeout);
  rc.system_mttf = sim_sec(4);
  rc.seed = 99;
  core::RunnerResult res = core::ResilientRunner(rc, apps::make_heat3d(heat())).run();
  row.e2_seconds = to_seconds(res.total_time);
  row.failures = res.failures;
  row.mttf_a_seconds = res.app_mttf_seconds;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kWarn);
  std::printf("=== Failure-detection timeout sensitivity (paper 4.C) ===\n");
  std::printf("(512 ranks, heat3d, one deterministic mid-run failure / random failures)\n\n");

  const std::vector<SimTime> timeouts = {sim_us(100), sim_ms(1), sim_ms(10), sim_ms(100),
                                         sim_sec(1), sim_sec(10)};
  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.map(timeouts.size(), [&](std::size_t i) { return evaluate(timeouts[i]); });

  TablePrinter table({"timeout", "detect latency", "E2", "F", "MTTF_a"});
  for (std::size_t i = 0; i < timeouts.size(); ++i) {
    const Row& row = *outcomes[i];
    table.add_row({format_sim_time(timeouts[i]), TablePrinter::num(row.latency, 3) + " s",
                   TablePrinter::num(row.e2_seconds, 2) + " s",
                   TablePrinter::integer(row.failures),
                   TablePrinter::num(row.mttf_a_seconds, 2) + " s"});
  }
  table.print();
  std::printf(
      "\nDetection latency is bounded below by the time from the failure to the\n"
      "next communication phase (halo/barrier) plus the configured timeout; E2\n"
      "inflates once the timeout stops being negligible against the checkpoint\n"
      "interval — quantifying how much a fast failure detector is worth.\n");
  return 0;
}
