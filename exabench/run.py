#!/usr/bin/env python3
"""exasim benchmark: one workload, one seed, one run.

    python3 exabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the driver (exabench/
CMakeLists.txt, which compiles ../src) into .bench_build on first use, then:

  --trace 0  measures the end-to-end metrics: set-up repeated in fresh driver
             processes, then a closed loop of untraced passes for S seconds.
  --trace 1  measures the per-layer metrics: passes alternate untraced and
             traced (spans around each layer call), bracketed by a set-up
             probe and a vmpi probe; the spans are written to
             exabench/out/trace-<workload>-<seed>.json.

Every pass is checked (see check_passes). Human-readable lines come first;
the last stdout line is one JSON object with keys correct, attempted, failed
and metrics. Metric names and units come from exabench/metrics.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BENCH_DIR / "out"
DRIVER = BUILD_DIR / "exabench_driver"
WORKLOADS = tuple(w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])

# Wall budget for everything after the build (the run must end within 180 s).
RUN_BUDGET_S = 170.0
# Set-up repetitions: at least SETUP_MIN_REPS fresh processes, more until
# SETUP_MIN_TOTAL_S of set-up time is collected, at most SETUP_MAX_REPS.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 25
SETUP_MIN_TOTAL_S = 1.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_metrics():
    with open(BENCH_DIR / "metrics.json") as f:
        return json.load(f)


def load_digests():
    with open(BENCH_DIR / "digests.json") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Build


def build():
    """Configures (once) and builds the driver; raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources at {ROOT / 'src'}: run from a source checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "exabench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_driver(args, timeout):
    """Runs the driver; returns (JSON objects of its stdout lines, error or None)."""
    try:
        proc = subprocess.run([str(DRIVER)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
        out, error = proc.stdout, None
        if proc.returncode != 0:
            error = f"driver exited with {proc.returncode}"
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        error = f"driver timed out after {timeout:.0f} s"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return lines, error


# --------------------------------------------------------------------------
# Statistics


def median(values):
    return statistics.median(values) if values else float("nan")


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # k-th smallest has exactly ten samples above it.
    return 100.0 * k / n, sorted(values)[k - 1]


def percentile(values, p):
    """Linear-interpolated percentile p in [0, 100]."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# --------------------------------------------------------------------------
# Correctness gate


def check_passes(passes, reference):
    """Returns the number of failed passes.

    A pass fails if it broke an invariant, or its digest differs from
    `reference` (the committed digest, when this seed must reproduce it) or
    from the run's first pass (every pass is the same experiment)."""
    failed = 0
    first = passes[0]["digest"] if passes else None
    for p in passes:
        if reference is not None and p["digest"] != reference:
            p["violations"].append(f"digest {p['digest']} != committed {reference}")
        elif p["digest"] != first:
            p["violations"].append(f"digest {p['digest']} != first pass {first}")
        if p["violations"]:
            failed += 1
            log(f"pass {p['pass']} FAILED: {'; '.join(p['violations'])}")
    return failed


# --------------------------------------------------------------------------
# Per-layer metrics from a trace file


def duration(span):
    return span["end_s"] - span["start_s"]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans, roots):
    """Per-layer self time (span minus the part its children cover), summed
    over `roots` and their descendants. A span's layer is its name up to the
    first '.'."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = defaultdict(float)
    stack = list(roots)
    while stack:
        s = stack.pop()
        kids = children[s["id"]]
        clipped = [(max(k["start_s"], s["start_s"]), min(k["end_s"], s["end_s"])) for k in kids]
        out[s["name"].split(".")[0]] += duration(s) - covered([c for c in clipped if c[1] > c[0]])
        stack.extend(kids)
    return out


def per_layer_metrics(trace, names):
    """Computes every per-layer metric in `names` from one trace file."""
    spans = trace["spans"]

    def kids(span, name):
        return [s for s in spans if s["parent"] == span["id"] and s["name"] == name]

    def root(name):
        found = [s for s in spans if s["parent"] == 0 and s["name"] == name]
        return found[0] if found else None

    m = {}
    setup = root("bench.setup_probe")
    ctor, mrun = kids(setup, "core.Machine.ctor")[0], kids(setup, "core.Machine.run")[0]
    m["core.machine_ctor_s"] = duration(ctor)
    m["core.ranks_built_per_s"] = mrun["attrs"]["ranks"] / duration(mrun)
    m["fiber.stacks_mapped"] = mrun["perf"].get("stacks_mapped", 0)
    m["fiber.stacks_high_water"] = mrun["perf"].get("stacks_high_water", 0)
    m["netmodel.build_s"] = duration(kids(setup, "netmodel.make_topology")[0])
    m["resilience.detector_build_s"] = duration(kids(setup, "resilience.make_detector")[0])

    passes = [s for s in spans if s["parent"] == 0 and s["name"] == "bench.pass"]
    work = []  # The pass's runner or explore span.
    for p in passes:
        work += kids(p, "core.ResilientRunner.run") + kids(p, "mc.explore")
    first = work[0]
    perf, attrs = first["perf"], first["attrs"]

    def launch_walls(span):
        return [v for k, v in span["attrs"].items() if k.startswith("launch") and k.endswith("_wall_s")]

    def per_pass_median(fn):
        return median([fn(w) for w in work])

    def ratio(a, b):
        return a / b if b else 0.0

    events = attrs.get("events", 0)
    m["pdes.events"] = events
    m["pdes.events_per_s"] = per_pass_median(
        lambda w: ratio(w["attrs"].get("events", 0), sum(launch_walls(w))))
    m["pdes.queue_near_frac"] = ratio(perf.get("queue_near_hits", 0), events)
    m["pdes.bulk_merges"] = perf.get("bulk_merges", 0)
    m["pdes.causality_violations"] = attrs.get("causality_violations", 0)
    resumes, suppressed = perf.get("fiber_resumes", 0), perf.get("wakeups_suppressed", 0)
    m["fiber.resumes"] = resumes
    m["vmpi.wakeups_suppressed_frac"] = ratio(suppressed, resumes + suppressed)
    m["util.pool_allocs"] = perf.get("pool_allocs", 0)
    m["util.pool_recycled_frac"] = ratio(perf.get("pool_recycled", 0), perf.get("pool_allocs", 0))
    m["util.pool_heap_allocs"] = perf.get("pool_heap_allocs", 0)
    m["util.slab_kib"] = passes[-1]["attrs"].get("pool_slab_bytes", 0) / 1024.0

    m["core.first_launch_s"] = per_pass_median(lambda w: (launch_walls(w) or [0.0])[0])
    m["core.relaunch_s"] = per_pass_median(lambda w: sum(launch_walls(w)[1:]))
    m["core.runner_self_s"] = per_pass_median(
        lambda w: duration(w) - sum(launch_walls(w)) if launch_walls(w) else 0.0)
    m["core.launches"] = attrs.get("launches", 0)
    m["ckpt.stages"] = perf.get("ckpt_stages", 0)
    m["ckpt.drains"] = perf.get("ckpt_drains", 0)
    m["ckpt.partner_copies"] = perf.get("ckpt_partner_copies", 0)
    m["ckpt.restore_tier"] = attrs.get("restore_tier", perf.get("ckpt_restore_tier", 0))
    m["resilience.failure_notices"] = attrs.get("failure_notices", 0)
    m["resilience.max_detect_latency_sim_s"] = attrs.get("max_detection_latency_sim_s", 0)

    windows = perf.get("sched_windows", 0)
    speculated = perf.get("sched_speculated", 0)
    m["pdes.sched_windows"] = windows
    m["pdes.sched_widened_frac"] = ratio(perf.get("sched_window_widenings", 0), windows)
    m["pdes.steals"] = perf.get("sched_steals", 0)
    m["pdes.speculated"] = speculated
    m["pdes.rollback_frac"] = ratio(perf.get("sched_rollbacks", 0), speculated)
    m["pdes.barrier_idle_frac"] = per_pass_median(lambda w: ratio(
        w["perf"].get("sched_barrier_idle_ns", 0) * 1e-9,
        w["attrs"].get("sim_workers", 1) * sum(launch_walls(w))))
    m["pdes.fanout_relays"] = perf.get("fanout_relays", 0)

    probe = root("bench.vmpi_probe")["attrs"]
    m["vmpi.sends"] = probe["sends"]
    m["vmpi.bytes_sent"] = probe["bytes_sent"]
    m["vmpi.recv_wait_sim_s"] = probe["recv_wait_sim_s"]
    m["vmpi.comm_frac_sim"] = probe["comm_frac_sim"]

    explores = [w for w in work if w["name"] == "mc.explore"]
    samples = [duration(s) * 1e3 for s in spans if s["name"] == "mc.evaluate_scenario"]
    if explores:
        ea = explores[0]["attrs"]
        m["mc.raw"] = ea["raw"]
        m["mc.evaluated"] = ea["explored"]
        m["mc.pruned_frac"] = ratio(ea["pruned"], ea["raw"])
        m["mc.waves"] = ea["waves"]
        m["mc.wave_max_s"] = median([max(duration(s) for s in kids(e, "mc.wave"))
                                     for e in explores])
        m["exp.jobs"] = ea["jobs"]
        m["exp.busy_frac"] = median([ratio(e["attrs"]["cpu_s"], e["attrs"]["jobs"] * duration(e))
                                     for e in explores])
    else:
        for k in ("mc.raw", "mc.evaluated", "mc.pruned_frac", "mc.waves", "mc.wave_max_s",
                  "exp.jobs", "exp.busy_frac"):
            m[k] = 0
    m["mc.scenario_p50_ms"] = percentile(samples, 50)
    m["mc.scenario_p90_ms"] = percentile(samples, 90)

    selfs = self_times(spans, passes)
    for layer in ("bench", "apps", "core", "mc"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0) / len(passes)

    host = defaultdict(list)
    for p in trace["passes"]:
        host[p["traced"]].append(p["host_s"])
    m["trace_overhead_frac"] = median(host[True]) / median(host[False]) - 1.0

    missing = [n for n in names if n not in m]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {n: float(m[n]) for n in names}


# --------------------------------------------------------------------------
# Main


def measure_setup(workload, seed, deadline):
    samples, errors = [], []
    while (len(samples) < SETUP_MIN_REPS or sum(samples) < SETUP_MIN_TOTAL_S) \
            and len(samples) + len(errors) < SETUP_MAX_REPS and time.monotonic() < deadline:
        lines, error = run_driver(["setup", "--workload", workload, "--seed", str(seed)],
                                  deadline - time.monotonic())
        if error or not lines:
            errors.append(error or "no output")
            if len(errors) >= SETUP_MIN_REPS:
                break
            continue
        samples.append(lines[-1]["setup_s"])
    return samples, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    metrics = load_metrics()
    digests = load_digests()
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S

    setup_samples, setup_errors = [], []
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        run_args += ["--trace-out", str(trace_path)]
    else:
        setup_samples, setup_errors = measure_setup(args.workload, args.seed, deadline)
        for e in setup_errors:
            log(f"set-up FAILED: {e}")

    lines, error = run_driver(run_args, deadline - time.monotonic())
    inputs = next((l["inputs"] for l in lines if "inputs" in l), None)
    passes = [l for l in lines if "pass" in l]
    summary = next((l["summary"] for l in lines if "summary" in l), None)
    if inputs is None or not passes or (not args.trace and not setup_samples):
        log(f"run.py: nothing measured ({error or 'no passes'})")
        return 1
    input_key = inputs["input_key"]
    # The committed seed must reproduce the committed digest; so must any
    # seed that generates the same inputs.
    ref = digests["workloads"].get(args.workload)
    reference = None
    if ref and (args.seed == digests["seed"] or ref["input_key"] == input_key):
        reference = ref["digest"]
    failed = check_passes(passes, reference)
    attempted = len(passes)
    if error or summary is None:
        log(f"run FAILED: {error or 'no summary'}")
        attempted += 1  # The pass in flight when the driver died or timed out.
        failed += 1
    attempted += len(setup_errors)
    failed += len(setup_errors)
    # Without a summary, the largest RSS of any finished child: the pass
    # process outgrows every set-up process.
    peak_rss_kib = (summary["peak_rss_kib"] if summary
                    else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    name = args.workload
    print(f"workload {name}, seed {args.seed}, inputs: {input_key}")
    print(f"  reproduce: exasim_run {inputs['app']} {' '.join(inputs['machine_args'])} "
          f"--app-params={inputs['app_params']}")
    print(f"  error_rate   {failed / attempted:.4g} ({failed} failed / {attempted} attempted)")

    if args.trace:
        try:
            with open(trace_path) as f:
                trace = json.load(f)
            values = per_layer_metrics(trace, list(metrics["per_layer"]))
        except (OSError, ValueError, KeyError, IndexError, RuntimeError) as e:
            log(f"run.py: cannot compute per-layer metrics: {e}")
            return 1
        for k, v in values.items():
            print(f"  {k:40s} {v:.6g} {metrics['per_layer'][k]['unit']}")
        print(f"  trace: {trace_path.relative_to(ROOT)}")
        units = {k: metrics["per_layer"][k]["unit"] for k in values}
    else:
        run_times = [p["host_s"] for p in passes]
        values = {
            "run_s": median(run_times),
            "setup_s": median(setup_samples),
            "peak_rss_mib": peak_rss_kib / 1024.0,
        }
        tail = tail_percentile(run_times)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"  run_s        median {values['run_s']:.4f} s over {len(run_times)} passes; "
              f"{tail_text}")
        print(f"  setup_s      median {values['setup_s']:.4f} s over {len(setup_samples)} "
              f"fresh processes")
        print(f"  peak_rss_mib {values['peak_rss_mib']:.1f} MiB (high-water of the pass process)")
        units = {k: metrics["end_to_end"][k]["unit"] for k in values}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
