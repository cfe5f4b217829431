#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "mc/explorer.hpp"
#include "spans.hpp"

namespace exabench {

/// One benchmark workload, fully generated from (name, seed). The simulator
/// receives only these inputs; the seed itself never reaches it.
struct Workload {
  std::string name;
  std::string app;         ///< Built-in application ("heat3d", "cgproxy").
  std::string app_params;  ///< Its --app-params text.
  /// exasim_run arguments the machine was parsed from (reproduction echo).
  std::vector<std::string> machine_args;
  /// Machine configuration and the seed-derived failure injection.
  exasim::core::RunnerConfig runner;
  /// Failure-restart cycles every pass must show (the invariant F).
  int expected_failures = 0;
  /// The restart must restore from a surviving checkpoint tier.
  bool expect_restore = false;
  /// Set for the model-checker workload: its pass is one mc::explore.
  std::optional<exasim::mc::LatticeSpec> lattice;
  int jobs = 1;  ///< mc::explore campaign jobs.
  /// Canonical text of the seed-derived inputs; two seeds with the same key
  /// feed the simulator identical inputs and must produce identical outputs.
  std::string input_key;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Outcome of one pass: host time, the digest of its simulated outputs, and
/// any broken invariant (a non-empty list fails the pass).
struct PassResult {
  double host_s = 0;
  std::string digest;  ///< 16 hex digits (FNV-1a 64).
  std::vector<std::string> violations;
  std::optional<exasim::mc::McReport> mc_report;
};

/// One complete experiment (ResilientRunner::run) or, for the lattice
/// workload, one complete mc::explore answer. With `rec` enabled, spans are
/// recorded around apps::make_app, ResilientRunner::run, mc::explore and
/// each explore wave.
PassResult run_pass(const Workload& w, SpanRecorder& rec);

/// Builds a core::Machine with the workload's first-launch SimConfig and runs
/// it with a no-op application: topology, network, fabric, detector,
/// storage, and every rank with its fiber stack. Returns host seconds of the
/// constructor and of run(). With `rec` enabled, also times make_topology +
/// NetworkModel, the Fabric and make_detector on their own.
struct SetupTimes {
  double ctor_s = 0;
  double run_s = 0;
};
SetupTimes run_setup(const Workload& w, SpanRecorder& rec);

/// Traced run only: the workload's first launch with SimConfig::trace on;
/// records vmpi send/receive totals as attrs of a "bench.vmpi_probe" span.
void run_vmpi_probe(const Workload& w, SpanRecorder& rec);

/// Traced run only (lattice workload): direct mc::evaluate_scenario calls on
/// one coarse-grid point of every lattice row (points every explore
/// evaluates in wave 0), each in its own span.
void run_mc_samples(const Workload& w, const exasim::mc::McReport& report, SpanRecorder& rec);

}  // namespace exabench
