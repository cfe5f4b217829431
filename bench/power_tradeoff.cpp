// Extension bench (paper §VI future-work item 5, and the paper's stated goal
// of a performance/resilience/power co-design tool): energy consumed per
// *completed* application run as a function of the checkpoint interval and
// the system MTTF. Failures waste energy twice — lost compute is redone, and
// survivors burn communication-state power while blocked around the abort.
//
// The (MTTF pass) x (checkpoint interval) grid is an exp::ExperimentPlan on
// exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS).

#include <cstdio>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

core::SimConfig machine() {
  core::SimConfig m;
  m.ranks = 512;
  m.topology = "torus:8x8x8";
  m.net.link_latency = sim_us(1);
  m.net.bandwidth_bytes_per_sec = 32e9;
  m.proc.slowdown = 100.0;
  m.proc.reference_ns_per_unit = 200.0;
  PowerParams power;
  power.busy_watts = 100.0;   // Node computing.
  power.comm_watts = 60.0;    // Node blocked in MPI.
  power.idle_watts = 40.0;
  power.joules_per_byte = 1e-9;
  m.power = power;
  return m;
}

apps::HeatParams heat(int interval) {
  apps::HeatParams h;
  h.nx = h.ny = h.nz = 64;
  h.px = h.py = h.pz = 8;
  h.total_iterations = 1000;
  h.halo_interval = interval;
  h.checkpoint_interval = interval;
  h.real_compute = false;
  return h;
}

struct Row {
  double e2_seconds = 0;
  int failures = 0;
  double joules = 0;
};

Row evaluate(int pass, int c) {
  core::RunnerConfig rc;
  rc.base = machine();
  if (pass == 1) {
    rc.system_mttf = sim_sec(8);
    rc.seed = 4242;
  }
  core::RunnerResult res = core::ResilientRunner(rc, apps::make_heat3d(heat(c))).run();
  Row row;
  row.e2_seconds = to_seconds(res.total_time);
  row.failures = res.failures;
  for (const auto& run : res.run_results) row.joules += run.total_energy_joules;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kError);
  std::printf("=== Energy per completed run vs checkpoint interval and MTTF ===\n");
  std::printf("(512 nodes at 100 W busy / 60 W comm; energy summed over all\n"
              " launches including failed ones)\n\n");

  const std::vector<int> intervals = {500, 250, 125};
  const auto plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"MTTF", {"none", "8s"}}, exp::Axis{"C", {"500", "250", "125"}}});
  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem&) {
    return evaluate(static_cast<int>(p.at(0)), intervals[p.at(1)]);
  });

  // Baseline for the "vs no-failure" column: pass 0, C=500 (the first row).
  const double baseline_joules = outcomes[0]->joules;
  TablePrinter table({"MTTF_s", "C", "E2", "F", "energy", "vs no-failure"});
  for (std::size_t i = 0; i < plan.point_count(); ++i) {
    const exp::Point& p = plan.point(i);
    const Row& row = *outcomes[i];
    table.add_row({p.at(0) == 0 ? "-" : "8 s", TablePrinter::integer(intervals[p.at(1)]),
                   TablePrinter::num(row.e2_seconds, 2) + " s",
                   TablePrinter::integer(row.failures),
                   TablePrinter::num(row.joules / 1e6, 3) + " MJ",
                   TablePrinter::num(100.0 * row.joules / baseline_joules - 100.0, 1) + " %"});
  }
  table.print();
  std::printf(
      "\nEvery failure/restart cycle converts recomputed work into pure energy\n"
      "waste; a shorter checkpoint interval trades a little always-on overhead\n"
      "energy for much less recomputation energy under failures — the\n"
      "performance/resilience/power triangle the toolkit exists to explore.\n");
  return 0;
}
