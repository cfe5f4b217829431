// Extension bench (paper §II-C, redMPI): cost and benefit of process-level
// redundancy.
//   (1) Overhead: runtime of a halo+allreduce workload under no / dual /
//       triple redundancy (replicas consume 2-3x the machine and add a
//       hash-comparison round per receive).
//   (2) SDC campaign: random memory bit flips injected into one replica's
//       state; dual redundancy detects, triple corrects — reproducing the
//       redMPI observation that "a single bit flip can corrupt all MPI
//       processes of an application within a short period of time, or may
//       be corrected".
//
// The six runs (three overhead modes + three SDC modes) are independent
// simulations on exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS).

#include <cstdio>
#include <vector>

#include "core/machine.hpp"
#include "exp/executor.hpp"
#include "metrics/table.hpp"
#include "redundancy/redundant.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "vmpi/context.hpp"

using namespace exasim;
using redundancy::RedundancyConfig;
using redundancy::RedundantContext;
using vmpi::Context;

namespace {

constexpr int kAppRanks = 16;
constexpr int kIterations = 50;

core::SimConfig machine(int replication) {
  core::SimConfig m;
  m.ranks = kAppRanks * replication;
  m.topology = "star:" + std::to_string(m.ranks);
  m.net.link_latency = sim_us(1);
  m.net.bandwidth_bytes_per_sec = 32e9;
  m.proc.slowdown = 1.0;
  m.proc.reference_ns_per_unit = 100.0;
  return m;
}

/// Ring + allreduce workload against the redundant context. Returns the
/// plane-0 result so corruption is observable.
void workload(RedundantContext& red, double* result_out, bool inject_sdc, Rng* rng) {
  const int next = (red.rank() + 1) % red.size();
  const int prev = (red.rank() + red.size() - 1) % red.size();
  double state = red.rank() + 1.0;
  for (int it = 0; it < kIterations; ++it) {
    red.compute(10000.0);
    // Corrupt one replica's state mid-run (the SDC).
    if (inject_sdc && it == kIterations / 2 && red.replica() == red.replication() - 1 &&
        red.rank() == 0) {
      auto bits = static_cast<std::uint64_t>(state);
      (void)bits;
      // Flip a mantissa bit via the soft-error surface.
      unsigned char* bytes = reinterpret_cast<unsigned char*>(&state);
      bytes[3] ^= 0x10;
      if (rng != nullptr) (void)rng->next_u64();
    }
    double out = state;
    if (red.rank() % 2 == 0) {
      red.send(next, 7, &out, sizeof out);
      red.recv(prev, 7, &state, sizeof state);
    } else {
      double in = 0;
      red.recv(prev, 7, &in, sizeof in);
      red.send(next, 7, &out, sizeof out);
      state = in;
    }
    double sum = 0;
    red.allreduce(vmpi::ReduceOp::kSum, vmpi::Dtype::kF64, &state, &sum, 1);
    state += 1e-6 * sum;
  }
  if (result_out != nullptr && red.rank() == 0) *result_out = state;
  red.finalize();
}

struct RunOutcome {
  double seconds = 0;
  double plane0_result = 0;
  double corrupted_plane_result = 0;
  std::uint64_t divergences = 0;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;
};

RunOutcome run(int replication, bool detect, bool correct, bool inject) {
  RunOutcome out;
  core::Machine m(machine(replication), [&](Context& ctx) {
    RedundancyConfig cfg;
    cfg.replication = replication;
    cfg.detect = detect;
    cfg.correct = correct;
    RedundantContext red(ctx, cfg);
    double result = 0;
    workload(red, &result, inject, nullptr);
    if (red.rank() == 0 && red.replica() == 0) out.plane0_result = result;
    if (red.rank() == 0 && red.replica() == replication - 1) {
      out.corrupted_plane_result = result;
    }
    // Aggregate across every simulated process: the detection/correction may
    // happen at any rank the corruption reaches.
    out.divergences += red.stats().divergences;
    out.corrected += red.stats().corrected;
    out.uncorrectable += red.stats().uncorrectable;
  });
  core::SimResult r = m.run();
  out.seconds = to_seconds(r.max_end_time);
  return out;
}

struct RunSpec {
  int replication;
  bool detect;
  bool correct;
  bool inject;
};

}  // namespace

int main(int argc, char** argv) {
  const int jobs = exp::jobs_or_exit(argc, argv);
  Log::set_level(LogLevel::kError);
  std::printf("=== Process-level redundancy (redMPI, paper 2.C): cost & benefit ===\n");
  std::printf("(%d app ranks, %d iterations of ring + allreduce)\n\n", kAppRanks, kIterations);

  const std::vector<RunSpec> specs = {
      {1, false, false, false},  // plain
      {2, true, false, false},   // dual, no injection
      {3, true, true, false},    // triple, no injection
      {2, false, false, true},   // isolated replicas + SDC
      {2, true, false, true},    // dual detect + SDC
      {3, true, true, true},     // triple correct + SDC
  };
  exp::ParallelExecutor pool(exp::ExecutorOptions{jobs, {}});
  auto outcomes = pool.map(specs.size(), [&](std::size_t i) {
    const RunSpec& s = specs[i];
    return run(s.replication, s.detect, s.correct, s.inject);
  });
  const RunOutcome& plain = *outcomes[0];
  const RunOutcome& dual = *outcomes[1];
  const RunOutcome& triple = *outcomes[2];
  const RunOutcome& isolated = *outcomes[3];
  const RunOutcome& detected = *outcomes[4];
  const RunOutcome& corrected = *outcomes[5];

  TablePrinter cost({"mode", "nodes used", "runtime", "overhead"});
  cost.add_row({"none", TablePrinter::integer(kAppRanks),
                TablePrinter::num(plain.seconds * 1e3, 3) + " ms", "-"});
  cost.add_row({"dual (detect)", TablePrinter::integer(2 * kAppRanks),
                TablePrinter::num(dual.seconds * 1e3, 3) + " ms",
                TablePrinter::num(100.0 * (dual.seconds / plain.seconds - 1.0), 1) + " %"});
  cost.add_row({"triple (correct)", TablePrinter::integer(3 * kAppRanks),
                TablePrinter::num(triple.seconds * 1e3, 3) + " ms",
                TablePrinter::num(100.0 * (triple.seconds / plain.seconds - 1.0), 1) + " %"});
  cost.print();

  std::printf("\nSDC injection (one bit flip in one replica's state, mid-run):\n\n");
  TablePrinter sdc({"mode", "divergences seen", "corrected", "uncorrectable",
                    "planes agree at end"});
  auto agree = [](const RunOutcome& o) {
    return o.plane0_result == o.corrupted_plane_result ? "yes" : "NO";
  };
  sdc.add_row({"isolated replicas", "0 (comparison off)", "0", "0", agree(isolated)});
  sdc.add_row({"dual (detect only)",
               TablePrinter::integer(static_cast<long long>(detected.divergences)), "0",
               TablePrinter::integer(static_cast<long long>(detected.uncorrectable)),
               agree(detected)});
  sdc.add_row({"triple (correct)",
               TablePrinter::integer(static_cast<long long>(corrected.divergences)),
               TablePrinter::integer(static_cast<long long>(corrected.corrected)),
               TablePrinter::integer(static_cast<long long>(corrected.uncorrectable)),
               agree(corrected)});
  sdc.print();
  std::printf(
      "\nIsolated replicas let the flipped bit spread through the corrupted\n"
      "plane's ring/allreduce within one iteration (propagation tracking);\n"
      "dual redundancy flags every contaminated message; triple redundancy\n"
      "repairs the diverged replica on first contact and the planes converge.\n");
  return 0;
}
