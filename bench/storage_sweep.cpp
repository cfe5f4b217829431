// Tiered-checkpointing campaign (DESIGN.md §14): detector x checkpoint
// interval x checkpoint mode {pfs, partner, staged} time-to-solution under a
// short MTTF with a *priced* storage hierarchy — the paper's future-work
// item 4 (scalable checkpoint I/O) crossed with its detector models.
//
// With the paper's free PFS every mode costs the same; once the PFS tier has
// real metadata latency and shared bandwidth, writing every checkpoint
// through it taxes each cycle and each restart. Diskless partner copies pay
// only the node-memory write plus one neighbour transfer over the modeled
// network, and staged writes complete at memory speed while draining to the
// burst buffer and PFS in background sim-time — so partner/staged should
// beat pfs-only whenever failures are frequent enough that checkpoint
// frequency matters. The sweep demonstrates exactly that.
//
// Replicated cells on exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS);
// per-replicate seeds are sequential so output is byte-identical at any job
// count.

#include <cstdio>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "ckpt/tiered.hpp"
#include "core/runner.hpp"
#include "exp/axes.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

// Three-tier machine with a deliberately harsh PFS: 50 ms metadata latency
// and 10 MB/s per-client (200 MB/s aggregate) turns every PFS checkpoint of
// heat3d's ~4 KiB/rank state into a ~51 ms stall, while the node-memory and
// burst-buffer tiers stay microsecond-scale.
constexpr const char* kStorage =
    "mem:cbw=5e10,lat=1us,cap=4e9;"
    "bb:bw=2e10,cbw=2e9,lat=10us;"
    "pfs:bw=2e8,cbw=1e7,lat=50ms";

core::SimConfig machine(const resilience::DetectorSpec& detector, ckpt::CkptMode mode) {
  core::SimConfig m;
  m.ranks = 64;
  m.topology = "torus:4x4x4";
  m.net.link_latency = sim_us(1);
  m.net.bandwidth_bytes_per_sec = 32e9;
  m.net.failure_timeout = sim_ms(100);
  m.proc.slowdown = 100.0;
  m.proc.reference_ns_per_unit = 200.0;
  m.detector = detector;
  m.storage = kStorage;
  m.ckpt_mode = ckpt::to_string(mode);
  return m;
}

apps::HeatParams heat(int checkpoint_interval) {
  apps::HeatParams h;
  h.nx = h.ny = h.nz = 32;
  h.px = h.py = h.pz = 4;
  h.total_iterations = 400;
  h.halo_interval = 40;
  h.checkpoint_interval = checkpoint_interval;
  h.real_compute = false;
  return h;
}

struct Row {
  double e2_seconds = 0;
  int failures = 0;
};

Row evaluate(const resilience::DetectorSpec& detector, ckpt::CkptMode mode,
             int checkpoint_interval, std::uint64_t seed) {
  core::RunnerConfig rc;
  rc.base = machine(detector, mode);
  rc.system_mttf = sim_seconds(4.0);
  rc.seed = seed;
  core::RunnerResult res =
      core::ResilientRunner(rc, apps::make_heat3d(heat(checkpoint_interval))).run();
  Row row;
  row.e2_seconds = to_seconds(res.total_time);
  row.failures = res.failures;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kError);
  std::printf("=== Storage-hierarchy sweep: checkpoint mode x detector x interval ===\n");
  std::printf("(64 ranks, heat3d, MTTF 4 s, 3 seeds per cell, storage:\n %s)\n\n", kStorage);

  const exp::Axis detector_axis = exp::failure_detector_axis();
  const exp::Axis mode_axis = exp::ckpt_mode_axis();
  const std::vector<int> intervals = {20, 40, 80};
  auto plan = exp::ExperimentPlan::cross_product(
      {detector_axis, exp::Axis{"C", {"20", "40", "80"}}, mode_axis}, /*replicates=*/3,
      /*base_seed=*/11000);
  plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);

  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem& item) {
    return evaluate(exp::detector_spec_for(p.at(0)), exp::ckpt_mode_for(p.at(2)),
                    intervals[p.at(1)], item.seed);
  });

  // Aggregate replicate means per (detector, interval, mode) cell.
  const std::size_t n_modes = mode_axis.values.size();
  auto cell_mean = [&](std::size_t point) {
    RunningStats e2, f;
    for (int rep = 0; rep < plan.replicates(); ++rep) {
      const Row& row = *outcomes[point * static_cast<std::size_t>(plan.replicates()) +
                                 static_cast<std::size_t>(rep)];
      e2.add(row.e2_seconds);
      f.add(static_cast<double>(row.failures));
    }
    return std::pair<double, double>{e2.mean(), f.mean()};
  };

  TablePrinter table({"detector", "C (iters)", "E2 pfs", "E2 partner", "E2 staged",
                      "best mode", "saving vs pfs"});
  int cells = 0, partner_wins = 0, staged_wins = 0;
  for (std::size_t point = 0; point < plan.point_count(); point += n_modes) {
    const exp::Point& p = plan.point(point);
    std::vector<double> e2(n_modes);
    double mean_f = 0;
    for (std::size_t mode = 0; mode < n_modes; ++mode) {
      const auto [e2_mean, f_mean] = cell_mean(point + mode);
      e2[mode] = e2_mean;
      if (mode == 0) mean_f = f_mean;
    }
    std::size_t best = 0;
    for (std::size_t mode = 1; mode < n_modes; ++mode) {
      if (e2[mode] < e2[best]) best = mode;
    }
    ++cells;
    if (e2[1] < e2[0]) ++partner_wins;
    if (e2[2] < e2[0]) ++staged_wins;
    table.add_row({detector_axis.values[p.at(0)], TablePrinter::integer(intervals[p.at(1)]),
                   TablePrinter::num(e2[0], 3) + " s", TablePrinter::num(e2[1], 3) + " s",
                   TablePrinter::num(e2[2], 3) + " s", mode_axis.values[best],
                   TablePrinter::num(100.0 * (e2[0] - e2[best]) / e2[0], 1) + " %"});
    (void)mean_f;
  }
  table.print();

  std::printf(
      "\npartner beats pfs-only in %d/%d cells; staged beats pfs-only in %d/%d.\n"
      "Every pfs-mode cycle and every pfs-mode restart pays the PFS metadata\n"
      "latency and the 64-way shared-bandwidth squeeze; partner/staged pay the\n"
      "node-memory tier plus one neighbour copy, and staged drains to the burst\n"
      "buffer and PFS in background sim-time. At short MTTF that difference\n"
      "compounds per failure — the co-design trade a tiered checkpoint model\n"
      "exists to price (against the durability it gives up, §14).\n",
      partner_wins, cells, staged_wins, cells);
  return 0;
}
