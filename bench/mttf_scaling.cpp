// Application MTTF vs system MTTF (the paper cites Daly et al. [45]: "in
// this worst case scenario, the application MTTF can differ significantly
// from the system MTTF"). Sweeps the system MTTF for a fixed application and
// reports the experienced application MTTF_a = E2/(F+1), plus the efficiency
// E1/E2 — the metric a co-design study optimizes.
//
// The 6-point x 10-replicate campaign runs through exp::ParallelExecutor
// (`--jobs N` / EXASIM_JOBS); per-replicate seeds follow the original
// serial scheme (7000 + replicate), so the table is byte-identical to the
// old loop at any job count.

#include <cstdio>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/stats.hpp"
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
  return m;
}

apps::HeatParams heat() {
  apps::HeatParams h;
  h.nx = h.ny = h.nz = 64;
  h.px = h.py = h.pz = 8;
  h.total_iterations = 1000;
  h.halo_interval = 100;
  h.checkpoint_interval = 100;
  h.real_compute = false;
  return h;
}

struct Row {
  double e2_seconds = 0;
  int failures = 0;
  double mttf_a_seconds = 0;
};

Row evaluate(double mttf_s, std::uint64_t seed) {
  core::RunnerConfig rc;
  rc.base = machine();
  rc.system_mttf = sim_seconds(mttf_s);
  rc.seed = seed;
  core::RunnerResult res = core::ResilientRunner(rc, apps::make_heat3d(heat())).run();
  return Row{to_seconds(res.total_time), res.failures, res.app_mttf_seconds};
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kError);
  std::printf("=== Application MTTF vs system MTTF (worst-case schedule, [45]) ===\n");
  std::printf("(512 ranks, heat3d, checkpoint every 100 of 1,000 iterations,\n"
              " failures uniform within 2*MTTF per launch, 10 seeds per row)\n\n");

  const double e1 = to_seconds([&] {
    core::RunnerConfig rc;
    rc.base = machine();
    return core::ResilientRunner(rc, apps::make_heat3d(heat())).run().total_time;
  }());
  std::printf("failure-free baseline E1 = %.2f s\n\n", e1);

  const std::vector<double> mttfs = {64.0, 16.0, 8.0, 4.0, 2.0, 1.0};
  auto plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"MTTF_s", {"64", "16", "8", "4", "2", "1"}}}, /*replicates=*/10,
      /*base_seed=*/7000);
  plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);

  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem& item) {
    return evaluate(mttfs[p.at(0)], item.seed);
  });

  TablePrinter table(
      {"MTTF_s", "mean E2", "mean F", "mean MTTF_a", "MTTF_a/MTTF_s", "efficiency E1/E2"});
  for (std::size_t point = 0; point < plan.point_count(); ++point) {
    RunningStats e2, f, mttfa;
    for (int rep = 0; rep < plan.replicates(); ++rep) {
      const Row& row = *outcomes[point * 10 + static_cast<std::size_t>(rep)];
      e2.add(row.e2_seconds);
      f.add(row.failures);
      mttfa.add(row.mttf_a_seconds);
    }
    const double mttf_s = mttfs[point];
    table.add_row({TablePrinter::num(mttf_s, 0) + " s", TablePrinter::num(e2.mean(), 2) + " s",
                   TablePrinter::num(f.mean(), 1), TablePrinter::num(mttfa.mean(), 2) + " s",
                   TablePrinter::num(mttfa.mean() / mttf_s, 2),
                   TablePrinter::num(e1 / e2.mean(), 2)});
  }
  table.print();
  std::printf(
      "\nAs the system MTTF approaches the per-launch runtime, failures compound:\n"
      "E2 inflates, the experienced application MTTF diverges from the system\n"
      "MTTF, and machine efficiency collapses — the regime exascale resilience\n"
      "co-design has to engineer against.\n");
  return 0;
}
