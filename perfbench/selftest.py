"""Self-test of the benchmark at tiny sizes (about 20 s):

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the metrics run.py prints,
with their units, that the fast jobs match their goldens, that a traced pass
accounts for its time and leaves no wrapper behind, and that run.py
refuses to run without the rgdkit sources.  It asserts no per-layer count:
later changes to rgdkit exist to move them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import tracing

FAST_JOBS = ("g2_weyl_mutated", "b2_cb1_mutated", "b2_cb2_mutated",
             "m6lr/residue1", "m6rl/residue2", "m6lr/appendix", "m6rl/group")


def setUpModule():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))


def fast_jobs(seed: int = 0) -> list[run.Job]:
    jobs = []
    for name in ("validate-rank3-moufang", "rank2-hexagon"):
        jobs += [job for job in run.prepare(name, seed)[0] if job.id in FAST_JOBS]
    return jobs


def run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate-universal3",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class BenchmarkSelfTest(unittest.TestCase):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_spec_matches_run_py(self):
        e2e = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        self.assertEqual(e2e, {name: (unit, "lower") for name, unit in run.END_TO_END})
        layer = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        expected = {name: (unit, better) for name, unit, better in tracing.LAYER_METRICS}
        expected.update({name: (unit, better) for name, unit, better in run.RUN_METRICS})
        self.assertEqual(layer, expected)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_fast_jobs_match_goldens(self):
        jobs = fast_jobs()
        self.assertEqual(len(jobs), len(FAST_JOBS))
        _, _, outcomes = run.run_pass(jobs)
        failures, checks = run.check(jobs, outcomes, json.loads(run.GOLDENS.read_text()))
        self.assertEqual(failures, [])
        self.assertGreater(checks, 0)

    def test_generator_moves_dir6_with_the_permutation(self):
        from rgdkit import cli
        perm = (3, 1, 2)  # moves the 6-edge {1,2} to {1,3}
        good = run.rank3_text(6, perm, flip=False)
        naive = good.replace("dir6 1 3", "dir6 2 1")
        self.assertNotEqual(good, naive)
        for text, want in ((good, 0), (naive, 2)):
            path = run.WORK / "inputs" / "selftest.bp"
            path.write_text(text)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(["--blueprint", str(path), "--radius", "2", "validate"])
            self.assertEqual(rc, want, text)

    def test_traced_pass_accounts_for_time_and_restores(self):
        import rgdkit.blueprints
        import rgdkit.galleries
        original = rgdkit.galleries.min_gal
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(rgdkit.blueprints.min_gal, original)  # a re-bound name
            self.assertTrue(tracing.leftover_wrappers())
            wall, _, outcomes = run.run_pass(fast_jobs())
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertIs(rgdkit.blueprints.min_gal, original)
        metrics = tracer.layer_metrics()
        self.assertEqual(set(metrics), {name for name, _, _ in tracing.LAYER_METRICS})
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        main_s = tracer.spans[("cli", "main")][1]
        self.assertAlmostEqual(self_sum, main_s, delta=1e-6 * len(tracer.spans) + 1e-3)
        self.assertLessEqual(main_s, wall)

    def test_speed_probe_rescales_and_restores(self):
        import signal
        import time
        before = signal.getsignal(signal.SIGALRM)
        with run.SpeedProbe() as probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
            t1 = time.perf_counter()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        inside = [(a, b) for a, b in probe.runs if a >= t0 and b <= t1]
        self.assertGreaterEqual(len(inside), 2)             # ticks while the work ran
        self.assertEqual(len(probe.runs), len(inside) + 2)  # and once on each side
        own = t1 - t0 - sum(b - a for a, b in inside)
        mean = sum(b - a for a, b in probe.runs) / len(probe.runs)
        self.assertAlmostEqual(probe.seconds(t0, t1), own * run.CAL_REF_S / mean)

    def test_run_prints_every_metric_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(run.ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stdout)
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)
            for name in want:
                self.assertIn(f"metric {name} = ", proc.stdout)

    def test_refuses_without_sources(self):
        bare = run.ROOT / run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        try:
            proc = run_benchmark(bare, 0)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
