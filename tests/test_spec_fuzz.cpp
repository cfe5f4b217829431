// Seeded in-tree mutation fuzzer over every spec parser (README "Spec
// grammar"). Seeds are the registries, the storage presets and the spellings
// the tests, goldens and scripts use; each mutant goes through every parser.
// The only allowed outcomes are a value, nullopt, or std::invalid_argument —
// anything else (a crash, another exception type) fails the test — and every
// accepted value must round-trip: parse(to_string(v)) == v. Runs in the ASan
// leg of scripts/tier1.sh; the seed and iteration count are fixed, so every
// run sees the same inputs.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/tiered.hpp"
#include "core/cli.hpp"
#include "iomodel/storage.hpp"
#include "mc/lattice.hpp"
#include "netmodel/routing.hpp"
#include "netmodel/topology.hpp"
#include "pdes/scheduler.hpp"
#include "resilience/detector.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace exasim {
namespace {

constexpr std::uint64_t kSeed = 20130901;
constexpr int kIterations = 20000;
constexpr std::string_view kAlphabet = ":;,=.+-x0123456789abcdefghijklmnopqrstuvwxyz";

std::vector<std::string> seed_corpus() {
  std::vector<std::string> seeds = {
      // Spellings from the tests, goldens, scripts and README.
      "adaptive:spread=8", "adaptive:stretch=16,gpw=2", "fixed:gpw=2", "hot:0=500ms,3=2s",
      "uniform:50ms..200ms,seed=7", "plane:0=300ms;2=1s", "uniform",
      "mem:cbw=5e10,cap=4e9;bb:lat=10us;pfs:bw=1e11,lat=1ms", "bb:lat=10us,contend=1+pfs:bw=1e11",
      "heartbeat:period=auto,miss=3", "heartbeat:period=100ms,miss=3",
      "gossip:period=1ms,fanout=2,seed=9", "12@3000s,77@1.5s", "3@250ms; 0@1ms", "0,21,42",
      "stride:3", "all", "9:6", "1ms..5ms", "nx=32,px=4,iters=200,interval=40",
      "torus:32x32x32", "fattree:16x8", "dragonfly:8x16x64", "mesh:4x4x4", "star:64", "100ms",
      "1.5s", "32e9", "262144", "65536", "1000", "auto", "0", "1"};
  for (const auto& name : list_routings()) seeds.push_back(name);
  for (const auto& name : list_schedulers()) seeds.push_back(name);
  for (const auto& name : ckpt::list_ckpt_modes()) seeds.push_back(name);
  for (const auto& preset : list_storage()) {
    seeds.push_back(preset.name);
    seeds.push_back(preset.spec);
  }
  for (const auto& topo : list_topologies()) seeds.push_back(topo.format);
  for (const auto& det : resilience::list_detectors()) seeds.push_back(det.name);
  return seeds;
}

std::string mutate(const std::vector<std::string>& seeds, Rng& rng) {
  std::string s = seeds[rng.next_below(seeds.size())];
  const int rounds = 1 + static_cast<int>(rng.next_below(4));
  for (int r = 0; r < rounds; ++r) {
    const std::size_t at = s.empty() ? 0 : rng.next_below(s.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // Byte flip.
        if (!s.empty()) s[at % s.size()] ^= static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:  // Insert from the grammar's alphabet.
        s.insert(at, 1, kAlphabet[rng.next_below(kAlphabet.size())]);
        break;
      case 2:  // Delete.
        if (!s.empty()) s.erase(at % s.size(), 1);
        break;
      default: {  // Splice: this prefix, another seed's suffix.
        const std::string& other = seeds[rng.next_below(seeds.size())];
        s = s.substr(0, at) + other.substr(rng.next_below(other.size() + 1));
        break;
      }
    }
  }
  return s;
}

/// Parses `text`, and re-parses the canonical spelling of any value it accepts.
template <class Parse, class Format>
void check_round_trip(const std::string& text, Parse parse, Format format) {
  const auto value = parse(text);
  if (!value) return;
  const std::string canonical = format(*value);
  const auto again = parse(canonical);
  ASSERT_TRUE(again.has_value()) << '"' << text << "\" -> \"" << canonical << '"';
  EXPECT_TRUE(*again == *value) << '"' << text << "\" -> \"" << canonical << '"';
}

void fuzz_one(const std::string& text) {
  check_round_trip(text, parse_routing_spec, [](const auto& v) { return to_string(v); });
  check_round_trip(text, parse_link_timeout_spec, [](const auto& v) { return to_string(v); });
  check_round_trip(text, parse_storage_spec, [](const auto& v) { return to_string(v); });
  check_round_trip(text, parse_scheduler_spec, [](const auto& v) { return to_string(v); });
  check_round_trip(text, resilience::parse_detector_spec,
                   [](const auto& v) { return resilience::to_string(v); });
  check_round_trip(text, ckpt::parse_ckpt_mode,
                   [](ckpt::CkptMode v) { return std::string(ckpt::to_string(v)); });
  check_round_trip(
      text, [](const std::string& t) { return parse_failure_schedule(t); },
      [](const auto& v) { return format_failure_schedule(v); });
  check_round_trip(
      text, [](const std::string& t) { return parse_duration(t); },
      [](SimTime t) { return format_duration(t); });

  if (auto params = ParamMap::parse(text)) {
    for (const char* key : {"nx", "px", "iters", "interval", "a"}) {
      (void)params->get_int(key);
      (void)params->get_double(key);
      (void)params->get_duration(key);
    }
  }
  (void)mc::parse_victims(text, 64);
  (void)mc::parse_window(text);
  (void)mc::parse_grid(text);
  (void)mc::parse_budget(text);
  (void)mc::parse_detector_list(text);
  (void)mc::parse_policy_list(text);
  try {
    (void)make_topology(text);
  } catch (const std::invalid_argument&) {
  }
  try {
    (void)resolve_routing_spec(text);
    (void)resolve_storage_spec(text);
    (void)resolve_scheduler_spec(text);
    (void)ckpt::resolve_ckpt_mode(text);
  } catch (const std::invalid_argument&) {
  }

  // Every valued parse_cli option. --no-pool and --verbose are left out:
  // they flip process globals.
  for (const char* key :
       {"ranks", "topology", "ranks-per-node", "link-latency", "bandwidth", "overhead",
        "eager-threshold", "failure-timeout", "routing", "link-timeouts", "slowdown",
        "ns-per-unit", "pfs-bandwidth", "pfs-latency", "storage", "ckpt-mode", "failures",
        "failure-detector", "mttf", "distribution", "seed", "max-restarts", "replicates",
        "jobs", "sim-workers", "scheduler", "speculate", "stack-bytes", "sim-time-file"}) {
    const std::string arg = std::string("--") + key + "=" + text;
    const char* argv[] = {"exasim_run", "--ranks=64", arg.c_str()};
    std::string error;
    const auto opts = core::parse_cli(3, argv, &error);
    EXPECT_TRUE(opts.has_value() || !error.empty()) << arg;
  }
}

TEST(SpecFuzz, EveryParserReturnsAValueNulloptOrInvalidArgument) {
  for (const char* var :
       {"EXASIM_FAILURES", "EXASIM_FAILURE_DETECTOR", "EXASIM_LINK_TIMEOUTS", "EXASIM_ROUTING",
        "EXASIM_STORAGE", "EXASIM_CKPT_MODE", "EXASIM_SCHEDULER", "EXASIM_SPECULATE",
        "EXASIM_SIM_WORKERS"}) {
    ::unsetenv(var);
  }
  const std::vector<std::string> seeds = seed_corpus();
  for (const auto& seed : seeds) fuzz_one(seed);
  Rng rng(kSeed);
  for (int i = 0; i < kIterations && !HasFailure(); ++i) fuzz_one(mutate(seeds, rng));
}

}  // namespace
}  // namespace exasim
