// Ablation of the message-protocol model (paper §V-C: 256 kB eager
// threshold): one-way message time vs payload size under eager-always,
// rendezvous-always, and the paper's 256 kB threshold; shows the crossover
// and the rendezvous handshake penalty for small messages.
//
// The payload x protocol grid is an exp::ExperimentPlan evaluated on
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

/// One-way delivery time of a single message between torus neighbors.
double message_seconds(std::size_t bytes, std::size_t eager_threshold) {
  core::SimConfig cfg;
  cfg.ranks = 2;
  cfg.topology = "mesh:2x1x1";
  cfg.net.link_latency = sim_us(1);
  cfg.net.bandwidth_bytes_per_sec = 32e9;
  cfg.net.injection_bandwidth_bytes_per_sec = 32e9;
  cfg.net.eager_threshold = eager_threshold;
  cfg.proc.slowdown = 1.0;
  SimTime end = 0;
  core::Machine m(cfg, [&](vmpi::Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_modeled(ctx.world(), 1, 0, bytes);
    } else {
      ctx.recv_modeled(ctx.world(), 0, 0, bytes);
      end = ctx.now();
    }
    ctx.finalize();
  });
  m.run();
  return to_seconds(end);
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kWarn);
  std::printf("=== Eager vs rendezvous protocol cost (paper 5.C: 256 kB threshold) ===\n");
  std::printf("(one-way neighbor message, 1 us link, 32 GB/s)\n\n");

  const std::vector<std::size_t> sizes = {64,          1024,        16 * 1024,
                                          128 * 1024,  256 * 1024,  512 * 1024,
                                          1024 * 1024, 4096 * 1024, 16384 * 1024};
  const std::vector<std::size_t> thresholds = {SIZE_MAX, 0, 256 * 1024};

  const auto plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"payload",
                 {"64", "1K", "16K", "128K", "256K", "512K", "1M", "4M", "16M"}},
       exp::Axis{"protocol", {"eager", "rendezvous", "paper"}}});
  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem&) {
    return message_seconds(sizes[p.at(0)], thresholds[p.at(1)]);
  });

  TablePrinter table({"payload", "eager-always", "rendezvous-always", "paper 256 kB"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t bytes = sizes[i];
    const double eager = *outcomes[i * 3 + 0];
    const double rendezvous = *outcomes[i * 3 + 1];
    const double paper = *outcomes[i * 3 + 2];
    char label[32];
    if (bytes >= 1024 * 1024) {
      std::snprintf(label, sizeof label, "%zu MiB", bytes / (1024 * 1024));
    } else if (bytes >= 1024) {
      std::snprintf(label, sizeof label, "%zu KiB", bytes / 1024);
    } else {
      std::snprintf(label, sizeof label, "%zu B", bytes);
    }
    table.add_row({label, TablePrinter::num(eager * 1e6, 3) + " us",
                   TablePrinter::num(rendezvous * 1e6, 3) + " us",
                   TablePrinter::num(paper * 1e6, 3) + " us"});
  }
  table.print();
  std::printf(
      "\nThe rendezvous handshake adds a fixed RTS/CTS round trip (~2 hops each\n"
      "way): pure overhead for small messages, negligible once serialization\n"
      "dominates — which is why the model switches at a fixed threshold. In a\n"
      "real MPI the eager copy cost would eventually favor rendezvous; the\n"
      "model's sender-buffered eager path never pays that, so the threshold is\n"
      "a memory/copy bound, not a latency crossover.\n");
  return 0;
}
