#pragma once

namespace exasim {

/// Number of CPUs this process may actually use, never less than 1: hardware
/// threads, capped by the process CPU affinity mask (sched_getaffinity — a
/// `taskset`/container restriction) and by the cgroup CPU quota (v2 cpu.max
/// or v1 cfs_quota/cfs_period, rounded up). Plain hardware_concurrency()
/// oversubscribes restricted environments and the extra workers only add
/// window-barrier idle time.
int hardware_sim_workers();

/// Worker count implied by the environment: EXASIM_SIM_WORKERS set to a
/// positive integer wins, "auto" means hardware_sim_workers(), unset or empty
/// means 1 — the sequential engine. Anything else throws
/// std::invalid_argument.
int default_sim_workers();

/// Resolves a configured worker count (e.g. SimConfig::sim_workers) to the
/// count the engine should use: a positive request is taken literally, 0
/// defers to the environment via default_sim_workers(), and a negative value
/// means "auto" (one worker per hardware thread).
int resolve_sim_workers(int requested);

}  // namespace exasim
