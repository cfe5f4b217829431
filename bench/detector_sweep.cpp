// Failure-detector ablation: sweeps the detector model (paper-instant /
// timeout / heartbeat) against the system MTTF and reports the detection
// latency each model produces plus the resulting time-to-abort — how long a
// failed launch keeps burning simulated machine time between the failure and
// the MPI_Abort that ends it. The paper's simulator-internal broadcast
// (§IV-B) is the zero-latency baseline; timeout reflects §IV-C's per-network
// communication timeout; heartbeat models deployed period/miss-count
// detectors with a tunable latency floor.
//
// Campaigns: (1) detector x MTTF cross product; (2) detector x checkpoint
// interval at a fixed harsh MTTF, showing how detection latency leans the
// optimal interval shorter; (3) timeout detector with uniform vs hot-link
// per-link timeout overrides (NetworkParams::link_timeouts, DESIGN.md §12),
// showing how one degraded link stretches detection for every observer
// whose canonical route crosses it. Several seeds per cell, run on
// exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS); per-replicate seeds are
// sequential so output is byte-identical at any job count.

#include <cstdio>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/axes.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "netmodel/routing.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

core::SimConfig machine(const resilience::DetectorSpec& detector,
                        const LinkTimeoutSpec& link_timeouts = {}) {
  core::SimConfig m;
  m.ranks = 64;
  m.topology = "torus:4x4x4";
  m.net.link_latency = sim_us(1);
  m.net.bandwidth_bytes_per_sec = 32e9;
  m.net.failure_timeout = sim_ms(100);
  m.net.link_timeouts = link_timeouts;
  m.proc.slowdown = 100.0;
  m.proc.reference_ns_per_unit = 200.0;
  m.detector = detector;
  return m;
}

apps::HeatParams heat(int checkpoint_interval = 40) {
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
  RunningStats detect_mean_s;   ///< Per-launch mean detection latency.
  RunningStats detect_max_s;    ///< Per-launch max detection latency.
  RunningStats abort_lag_s;     ///< Per-aborted-launch abort_time - first failure.
};

Row evaluate(const resilience::DetectorSpec& detector, double mttf_s, std::uint64_t seed,
             int checkpoint_interval = 40, const LinkTimeoutSpec& link_timeouts = {}) {
  core::RunnerConfig rc;
  rc.base = machine(detector, link_timeouts);
  rc.system_mttf = sim_seconds(mttf_s);
  rc.seed = seed;
  core::RunnerResult res =
      core::ResilientRunner(rc, apps::make_heat3d(heat(checkpoint_interval))).run();
  Row row;
  row.e2_seconds = to_seconds(res.total_time);
  row.failures = res.failures;
  for (const core::SimResult& run : res.run_results) {
    if (run.failure_notices > 0) {
      row.detect_mean_s.add(run.mean_detection_latency_sec);
      row.detect_max_s.add(to_seconds(run.max_detection_latency));
    }
    if (run.abort_time.has_value() && !run.activated_failures.empty()) {
      row.abort_lag_s.add(to_seconds(*run.abort_time - run.activated_failures.front().time));
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kError);
  std::printf("=== Failure-detector sweep: detection latency and time-to-abort ===\n");
  std::printf("(64 ranks, heat3d, failures uniform within 2*MTTF per launch,\n"
              " failure timeout 100 ms, heartbeat period auto (=timeout), miss 3,\n"
              " 5 seeds per cell)\n\n");

  const exp::Axis detector_axis = exp::failure_detector_axis();
  const std::vector<double> mttfs = {16.0, 4.0, 1.0};
  auto plan = exp::ExperimentPlan::cross_product(
      {detector_axis, exp::Axis{"MTTF_s", {"16", "4", "1"}}}, /*replicates=*/5,
      /*base_seed=*/9000);
  plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);

  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem& item) {
    return evaluate(exp::detector_spec_for(p.at(0)), mttfs[p.at(1)], item.seed);
  });

  TablePrinter table({"detector", "MTTF_s", "mean E2", "mean F", "detect mean", "detect max",
                      "abort lag mean", "abort lag max"});
  for (std::size_t point = 0; point < plan.point_count(); ++point) {
    RunningStats e2, f, det_mean, det_max, lag_mean, lag_max;
    for (int rep = 0; rep < plan.replicates(); ++rep) {
      const Row& row =
          *outcomes[point * static_cast<std::size_t>(plan.replicates()) +
                    static_cast<std::size_t>(rep)];
      e2.add(row.e2_seconds);
      f.add(row.failures);
      if (row.detect_mean_s.count() > 0) {
        det_mean.add(row.detect_mean_s.mean());
        det_max.add(row.detect_max_s.max());
      }
      if (row.abort_lag_s.count() > 0) {
        lag_mean.add(row.abort_lag_s.mean());
        lag_max.add(row.abort_lag_s.max());
      }
    }
    const exp::Point& p = plan.point(point);
    auto s = [](const RunningStats& st, double v) {
      return st.count() > 0 ? TablePrinter::num(v, 4) + " s" : std::string("-");
    };
    table.add_row({detector_axis.values[p.at(0)], TablePrinter::num(mttfs[p.at(1)], 0) + " s",
                   TablePrinter::num(e2.mean(), 2) + " s", TablePrinter::num(f.mean(), 1),
                   s(det_mean, det_mean.mean()), s(det_max, det_max.max()),
                   s(lag_mean, lag_mean.mean()), s(lag_max, lag_max.max())});
  }
  table.print();
  std::printf(
      "\npaper-instant detects at the failure time itself; the abort lag it shows\n"
      "is pure §IV-C timeout release. timeout adds one network failure-detection\n"
      "timeout of latency; heartbeat adds up to miss x period. Slower detection\n"
      "stretches every failed launch, compounding as the MTTF shrinks — the\n"
      "trade a detector-aware co-design study quantifies.\n");

  // Second campaign: detector x checkpoint interval at a fixed harsh MTTF.
  // Detection latency is lost work appended to every failure, so slower
  // detectors raise E2 across the board and lean the optimum toward more
  // frequent checkpoints — the coupling bench/daly_optimum folds into the
  // analytic model, swept here empirically.
  std::printf("\n=== Detector x checkpoint interval (MTTF 4 s) ===\n\n");
  const std::vector<int> ckpt_intervals = {20, 40, 80, 160};
  auto ckpt_plan = exp::ExperimentPlan::cross_product(
      {detector_axis, exp::Axis{"C", {"20", "40", "80", "160"}}}, /*replicates=*/5,
      /*base_seed=*/9500);
  ckpt_plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);
  auto ckpt_outcomes =
      pool.run(ckpt_plan, [&](const exp::Point& p, const exp::WorkItem& item) {
        return evaluate(exp::detector_spec_for(p.at(0)), 4.0, item.seed,
                        ckpt_intervals[p.at(1)]);
      });

  TablePrinter ckpt_table({"detector", "C (iters)", "mean E2", "mean F", "detect mean"});
  for (std::size_t point = 0; point < ckpt_plan.point_count(); ++point) {
    RunningStats e2, f, det_mean;
    for (int rep = 0; rep < ckpt_plan.replicates(); ++rep) {
      const Row& row =
          *ckpt_outcomes[point * static_cast<std::size_t>(ckpt_plan.replicates()) +
                         static_cast<std::size_t>(rep)];
      e2.add(row.e2_seconds);
      f.add(row.failures);
      if (row.detect_mean_s.count() > 0) det_mean.add(row.detect_mean_s.mean());
    }
    const exp::Point& p = ckpt_plan.point(point);
    ckpt_table.add_row(
        {detector_axis.values[p.at(0)], TablePrinter::integer(ckpt_intervals[p.at(1)]),
         TablePrinter::num(e2.mean(), 2) + " s", TablePrinter::num(f.mean(), 1),
         det_mean.count() > 0 ? TablePrinter::num(det_mean.mean(), 4) + " s"
                              : std::string("-")});
  }
  ckpt_table.print();
  std::printf(
      "\nEach failure burns its detection latency on top of the rework the\n"
      "checkpoint interval controls: slower detectors shift every column up by\n"
      "roughly F x latency, the per-failure tax bench/daly_optimum folds into\n"
      "Daly's lost-work term.\n");

  // Third campaign: the timeout detector under heterogeneous per-link
  // failure timeouts. "hot" marks node 0's three +links (torus link ids
  // node*3+dim) as degraded — 500 ms instead of the uniform 100 ms — so any
  // observer whose canonical route to the failed rank crosses node 0 waits
  // the hot link's timeout (the per-pair timeout is the max over the
  // route's links), while the rest of the machine detects at the base rate.
  std::printf("\n=== Timeout detector: uniform vs hot-link per-link timeouts"
              " (MTTF 4 s) ===\n\n");
  const std::vector<std::string> timeout_specs = {"uniform",
                                                  "hot:0=500ms,1=500ms,2=500ms"};
  auto hot_plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"link_timeouts", timeout_specs}}, /*replicates=*/5,
      /*base_seed=*/9900);
  hot_plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);
  const resilience::DetectorSpec timeout_detector{resilience::DetectorKind::kTimeout};
  auto hot_outcomes =
      pool.run(hot_plan, [&](const exp::Point& p, const exp::WorkItem& item) {
        const auto spec = parse_link_timeout_spec(timeout_specs[p.at(0)]);
        return evaluate(timeout_detector, 4.0, item.seed, 40, *spec);
      });

  TablePrinter hot_table({"link timeouts", "mean E2", "mean F", "detect mean", "detect max",
                          "abort lag max"});
  for (std::size_t point = 0; point < hot_plan.point_count(); ++point) {
    RunningStats e2, f, det_mean, det_max, lag_max;
    for (int rep = 0; rep < hot_plan.replicates(); ++rep) {
      const Row& row =
          *hot_outcomes[point * static_cast<std::size_t>(hot_plan.replicates()) +
                        static_cast<std::size_t>(rep)];
      e2.add(row.e2_seconds);
      f.add(row.failures);
      if (row.detect_mean_s.count() > 0) {
        det_mean.add(row.detect_mean_s.mean());
        det_max.add(row.detect_max_s.max());
      }
      if (row.abort_lag_s.count() > 0) lag_max.add(row.abort_lag_s.max());
    }
    const exp::Point& p = hot_plan.point(point);
    auto s = [](const RunningStats& st, double v) {
      return st.count() > 0 ? TablePrinter::num(v, 4) + " s" : std::string("-");
    };
    hot_table.add_row({timeout_specs[p.at(0)], TablePrinter::num(e2.mean(), 2) + " s",
                       TablePrinter::num(f.mean(), 1), s(det_mean, det_mean.mean()),
                       s(det_max, det_max.max()), s(lag_max, lag_max.max())});
  }
  hot_table.print();
  std::printf(
      "\nThe hot links stretch only the observers routed across node 0: the\n"
      "mean detection latency rises a little while the max jumps to the hot\n"
      "links' 500 ms — exactly the per-link heterogeneity a uniform failure\n"
      "timeout cannot express, and what a co-design study of degraded-link\n"
      "operation needs the detector pipeline to see.\n");
  return 0;
}
