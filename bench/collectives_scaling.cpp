// Ablation of the collective-algorithm model (paper §V-C: "MPI collectives
// utilize linear algorithms"): cost of barrier / bcast / allreduce vs rank
// count. The linear barrier is what makes frequent checkpoint cycles visible
// in Table II's E1 column at 32,768 ranks.
//
// The ranks x measurement grid is an exp::ExperimentPlan evaluated on
// exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS).

#include <cstdio>
#include <vector>

#include "core/machine.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"
#include "vmpi/context.hpp"

using namespace exasim;

namespace {

enum class Coll { kBarrier, kBcast, kAllreduce };

double collective_seconds(int ranks, Coll which,
                          vmpi::CollectiveAlgo algo = vmpi::CollectiveAlgo::kLinear) {
  core::SimConfig cfg;
  cfg.ranks = ranks;
  cfg.topology = "star:" + std::to_string(ranks);
  cfg.net.link_latency = sim_us(1);
  cfg.net.bandwidth_bytes_per_sec = 32e9;
  cfg.proc.slowdown = 1.0;
  cfg.process.fiber_stack_bytes = 64 * 1024;
  cfg.process.collective_algo = algo;
  SimTime end = 0;
  core::Machine m(cfg, [&](vmpi::Context& ctx) {
    double in = 1.0, out = 0.0;
    switch (which) {
      case Coll::kBarrier: ctx.barrier(ctx.world()); break;
      case Coll::kBcast: ctx.bcast(ctx.world(), 0, &in, sizeof in); break;
      case Coll::kAllreduce:
        ctx.allreduce(ctx.world(), vmpi::ReduceOp::kSum, vmpi::Dtype::kF64, &in, &out, 1);
        break;
    }
    if (ctx.rank() == 0) end = ctx.now();
    ctx.finalize();
  });
  m.run();
  return to_seconds(end);
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kWarn);
  std::printf("=== Linear collective cost vs rank count (paper 5.C) ===\n\n");

  const std::vector<int> rank_counts = {64, 256, 1024, 4096, 16384, 32768};
  const auto plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"ranks", {"64", "256", "1024", "4096", "16384", "32768"}},
       exp::Axis{"measurement", {"barrier", "bcast", "allreduce", "tree barrier"}}});
  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem&) {
    const int ranks = rank_counts[p.at(0)];
    switch (p.at(1)) {
      case 0: return collective_seconds(ranks, Coll::kBarrier);
      case 1: return collective_seconds(ranks, Coll::kBcast);
      case 2: return collective_seconds(ranks, Coll::kAllreduce);
      default:
        return collective_seconds(ranks, Coll::kBarrier, vmpi::CollectiveAlgo::kBinomialTree);
    }
  });

  TablePrinter table({"ranks", "barrier", "bcast 8B", "allreduce 8B", "barrier/rank",
                      "tree barrier", "linear/tree"});
  for (std::size_t i = 0; i < rank_counts.size(); ++i) {
    const int ranks = rank_counts[i];
    const double barrier = *outcomes[i * 4 + 0];
    const double bcast = *outcomes[i * 4 + 1];
    const double allreduce = *outcomes[i * 4 + 2];
    const double tree = *outcomes[i * 4 + 3];
    table.add_row({TablePrinter::integer(ranks), TablePrinter::num(barrier * 1e3, 3) + " ms",
                   TablePrinter::num(bcast * 1e3, 3) + " ms",
                   TablePrinter::num(allreduce * 1e3, 3) + " ms",
                   TablePrinter::num(barrier / ranks * 1e6, 3) + " us",
                   TablePrinter::num(tree * 1e3, 3) + " ms",
                   TablePrinter::num(barrier / tree, 0) + "x"});
  }
  table.print();
  std::printf(
      "\nLinear algorithms cost O(ranks) (root serializes one message per member\n"
      "per phase): at 32,768 ranks every post-checkpoint barrier costs tens of\n"
      "milliseconds of simulated time — the E1 growth Table II shows when the\n"
      "checkpoint interval shrinks. A binomial-tree barrier costs O(log ranks)\n"
      "instead — the co-design fix the simulator quantifies.\n");
  return 0;
}
