#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s exabench -p 'test_*.py'

Run from the repository root. The metric, statistics and trace tests are pure
Python; the digest tests run the driver and are skipped until run.py has
built it (.bench_build/exabench_driver).
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricNamingTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.metrics = run.load_metrics()

    def test_benchmark_lists_the_defined_metrics(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(set(e2e), set(self.metrics["end_to_end"]))
        for name, m in e2e.items():
            d = self.metrics["end_to_end"][name]
            self.assertEqual((m["unit"], m["better"], m["bound"]),
                             (d["unit"], d["better"], d["bound"]))
        layer = [(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]]
        self.assertEqual(layer, [(k, v["unit"], v["better"])
                                 for k, v in self.metrics["per_layer"].items()])

    def test_names_units_and_bounds_are_well_formed(self):
        names = [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_every_workload_has_a_committed_digest(self):
        self.assertEqual(set(run.load_digests()["workloads"]), set(run.WORKLOADS))

    def test_every_layer_metric_maps_to_an_end_to_end_metric(self):
        for name, m in self.metrics["per_layer"].items():
            moved = [s.strip() for s in m["moves"].split(",")]
            self.assertTrue(set(moved) <= set(self.metrics["end_to_end"]), name)
            self.assertTrue(set(m["on"]) <= set(run.WORKLOADS), name)
            # Host timings end in _s, simulated ones in _sim_s.
            if m["unit"] == "s" and "sim" in name:
                self.assertTrue(name.endswith("_sim_s"), name)


class StatisticsTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        p, v = run.tail_percentile(list(range(1, 21)))
        self.assertEqual((p, v), (50.0, 10))
        self.assertEqual(sum(x > v for x in range(1, 21)), 10)

    def test_check_passes_counts_digest_mismatches(self):
        def passes(*digests):
            return [{"pass": i, "digest": d, "violations": []} for i, d in enumerate(digests)]

        self.assertEqual(run.check_passes(passes("a", "a"), None), 0)
        self.assertEqual(run.check_passes(passes("a", "b", "a"), None), 1)
        self.assertEqual(run.check_passes(passes("a", "a"), "b"), 2)
        broken = passes("a")
        broken[0]["violations"].append("launches != F + 1")
        self.assertEqual(run.check_passes(broken, "a"), 1)


class TraceTest(unittest.TestCase):
    @staticmethod
    def span(id_, parent, name, start, end, **attrs):
        return {"id": id_, "parent": parent, "name": name, "start_s": start, "end_s": end,
                "perf": {}, "attrs": attrs}

    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            self.span(1, 0, "bench.pass", 0.0, 10.0),
            self.span(2, 1, "apps.make_app", 0.0, 1.0),
            self.span(3, 1, "mc.explore", 2.0, 9.0),
            self.span(4, 3, "mc.wave", 2.0, 5.0),
            self.span(5, 3, "mc.wave", 4.0, 6.0),  # Overlap counts once.
        ]
        selfs = run.self_times(spans, [spans[0]])
        self.assertAlmostEqual(selfs["bench"], 2.0)
        self.assertAlmostEqual(selfs["apps"], 1.0)
        self.assertAlmostEqual(selfs["mc"], (7.0 - 4.0) + 3.0 + 2.0)

    def test_per_layer_metrics_from_a_runner_trace(self):
        s = self.span
        runner = s(8, 7, "core.ResilientRunner.run", 1.0, 4.0, launch0_wall_s=1.0,
                   launch1_wall_s=1.5, launches=2, events=1000, sim_workers=2)
        runner["perf"] = {"queue_near_hits": 250, "fiber_resumes": 90, "wakeups_suppressed": 10,
                          "sched_barrier_idle_ns": 1e9}
        trace = {
            "passes": [{"traced": False, "host_s": 4.0}, {"traced": True, "host_s": 4.4}],
            "spans": [
                s(1, 0, "bench.setup_probe", 0.0, 1.0),
                s(2, 1, "netmodel.make_topology", 0.0, 0.1),
                s(3, 1, "vmpi.Fabric", 0.1, 0.2),
                s(4, 1, "resilience.make_detector", 0.2, 0.3),
                s(5, 1, "core.Machine.ctor", 0.3, 0.5),
                s(6, 1, "core.Machine.run", 0.5, 1.0, ranks=100),
                s(7, 0, "bench.pass", 1.0, 4.5, pool_slab_bytes=2048),
                runner,
                s(9, 0, "bench.vmpi_probe", 5.0, 6.0, sends=7, bytes_sent=70,
                  recv_wait_sim_s=0.5, comm_frac_sim=0.25),
            ],
        }
        names = list(run.load_metrics()["per_layer"])
        m = run.per_layer_metrics(trace, names)
        self.assertEqual(list(m), names)
        self.assertAlmostEqual(m["core.ranks_built_per_s"], 200.0)
        self.assertAlmostEqual(m["pdes.events_per_s"], 400.0)
        self.assertAlmostEqual(m["pdes.queue_near_frac"], 0.25)
        self.assertAlmostEqual(m["vmpi.wakeups_suppressed_frac"], 0.1)
        self.assertAlmostEqual(m["core.first_launch_s"], 1.0)
        self.assertAlmostEqual(m["core.relaunch_s"], 1.5)
        self.assertAlmostEqual(m["core.runner_self_s"], 0.5)
        self.assertAlmostEqual(m["pdes.barrier_idle_frac"], 0.2)
        self.assertAlmostEqual(m["util.slab_kib"], 2.0)
        self.assertAlmostEqual(m["bench.self_s"], 0.5)
        self.assertAlmostEqual(m["core.self_s"], 3.0)
        self.assertAlmostEqual(m["trace_overhead_frac"], 0.1)


@unittest.skipUnless(run.DRIVER.exists(), "driver not built yet (run exabench/run.py once)")
class DigestTest(unittest.TestCase):
    def driver(self, *args):
        proc = subprocess.run([str(run.DRIVER), "run", "--seconds", "0.001", *args],
                              stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        return [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]

    def test_digest_is_stable_across_passes_and_tracing(self):
        with tempfile.TemporaryDirectory() as tmp:
            lines = self.driver("--workload", "table2_halo", "--seed", "1",
                                "--trace-out", str(Path(tmp) / "trace.json"))
        passes = [l for l in lines if "pass" in l]
        self.assertEqual([p["traced"] for p in passes], [False, True])
        committed = run.load_digests()["workloads"]["table2_halo"]["digest"]
        self.assertEqual([p["digest"] for p in passes], [committed, committed])
        self.assertEqual([p["violations"] for p in passes], [[], []])

    def test_sharded_workload_matches_one_worker(self):
        digests = []
        for workers in ("1", "2"):
            lines = self.driver("--workload", "allreduce_sharded", "--seed", "3",
                                "--sim-workers", workers)
            digests.append(next(l["digest"] for l in lines if "pass" in l))
        self.assertEqual(digests[0], digests[1])
        self.assertEqual(digests[0], run.load_digests()["workloads"]["allreduce_sharded"]["digest"])

    def test_seed_derives_the_inputs(self):
        for workload in ("restart_4608", "mc_lattice"):
            keys = []
            for seed in ("1", "2", "1"):
                proc = subprocess.run([str(run.DRIVER), "setup", "--workload", workload,
                                       "--seed", seed], stdout=subprocess.PIPE, text=True,
                                      check=True, timeout=170)
                keys.append(json.loads(proc.stdout)["input_key"])
            self.assertEqual(keys[0], keys[2])  # Same seed, same inputs.
            self.assertNotEqual(keys[0], keys[1])
            self.assertEqual(keys[0], run.load_digests()["workloads"][workload]["input_key"])


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "exabench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "exabench/run.py", "--workload", "table2_halo",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
