// Extension bench (paper §VI future-work item 3): classic abort + full
// restart (the paper's Table II handling) vs ULFM shrink-and-continue
// recovery, on the allreduce-heavy CG proxy. Sweeps the failure time:
// abort/restart loses all progress since the last checkpoint (none here),
// while ULFM recovery loses only the interrupted iteration.
//
// Each failure point (classic + ULFM pair) is one work item on
// exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS).

#include <cstdio>
#include <vector>

#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"
#include "vmpi/context.hpp"

using namespace exasim;
using vmpi::Context;
using vmpi::Err;

namespace {

constexpr int kIterations = 200;

core::SimConfig machine() {
  core::SimConfig m;
  m.ranks = 128;
  m.topology = "torus:8x4x4";
  m.net.failure_timeout = sim_ms(10);
  m.proc.slowdown = 1.0;
  m.proc.reference_ns_per_unit = 1.0;
  return m;
}

/// ULFM-style solver: on MPI_ERR_PROC_FAILED / revoked, shrink and redo the
/// interrupted iteration on the survivors.
void ulfm_solver(Context& ctx) {
  ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
  vmpi::Comm* comm = &ctx.world();
  for (int it = 1; it <= kIterations; ++it) {
    ctx.compute(1e6);  // 1 ms/iteration.
    double mine = 1.0, sum = 0;
    Err e = ctx.allreduce(*comm, vmpi::ReduceOp::kSum, vmpi::Dtype::kF64, &mine, &sum, 1);
    if (e != Err::kSuccess) {
      ctx.comm_revoke(*comm);
      comm = ctx.comm_shrink(*comm);
      --it;
      continue;
    }
  }
  ctx.finalize();
}

/// Classic solver: default fatal handler; a failure aborts everything.
void classic_solver(Context& ctx) {
  for (int it = 1; it <= kIterations; ++it) {
    ctx.compute(1e6);
    double mine = 1.0, sum = 0;
    ctx.allreduce(ctx.world(), vmpi::ReduceOp::kSum, vmpi::Dtype::kF64, &mine, &sum, 1);
  }
  ctx.finalize();
}

struct Pair {
  double classic = 0;
  double ulfm = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kError);
  std::printf("=== Abort+restart (paper) vs ULFM shrink-and-continue (6, item 3) ===\n");
  std::printf("(128 ranks, 200 iterations of compute+allreduce, no checkpoints,\n"
              " one failure injected at varying points of the run)\n\n");

  // Failure-free baseline.
  double baseline;
  {
    core::RunnerConfig rc;
    rc.base = machine();
    baseline = to_seconds(core::ResilientRunner(rc, classic_solver).run().total_time);
  }
  std::printf("failure-free baseline: %.3f s\n\n", baseline);

  const std::vector<double> fracs = {0.1, 0.25, 0.5, 0.75, 0.9};
  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.map(fracs.size(), [&](std::size_t i) {
    const FailureSpec failure{37, sim_seconds(baseline * fracs[i])};
    Pair pair;

    core::RunnerConfig rc;
    rc.base = machine();
    rc.first_run_failures = {failure};
    pair.classic = to_seconds(core::ResilientRunner(rc, classic_solver).run().total_time);

    core::SimConfig ulfm_cfg = machine();
    ulfm_cfg.failures = {failure};
    core::Machine m(ulfm_cfg, ulfm_solver);
    pair.ulfm = to_seconds(m.run().max_end_time);
    return pair;
  });

  TablePrinter table({"failure at", "abort+restart E2", "ULFM E2", "ULFM saves"});
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    const Pair& pair = *outcomes[i];
    table.add_row({TablePrinter::num(100 * fracs[i], 0) + " %",
                   TablePrinter::num(pair.classic, 3) + " s",
                   TablePrinter::num(pair.ulfm, 3) + " s",
                   TablePrinter::num(100.0 * (pair.classic - pair.ulfm) / pair.classic, 1) +
                       " %"});
  }
  table.print();
  std::printf(
      "\nWithout checkpoints, abort+restart pays for every iteration before the\n"
      "failure a second time (cost grows with the failure time), while ULFM\n"
      "recovery pays one detection timeout + shrink regardless of when the\n"
      "failure lands — the later the failure, the bigger ULFM's win.\n");
  return 0;
}
