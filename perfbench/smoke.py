"""Smoke test of the benchmark itself: one small job per workload.

    python3 perfbench/smoke.py

The jobs go through the same runner and output checks as the benchmark, and
once more under the tracer, which must report every per-layer metric that
BENCHMARK.json names.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import avw.windows  # noqa: E402
from avw.cli import build_parser, config_from_args  # noqa: E402

import run  # noqa: E402
from checks import check, load_expected  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, command_line, jobs_for  # noqa: E402

# the smallest inputs of each workload's commands
SMOKE_JOBS = {
    "hw_probe": ("singular", "--lamd=1/2", "--mu=1", "--c=2", "--depth=3"),
    "hw_scan": ("witness", "--lamd=1/2", "--mu=1", "--c=2", "--depth=2", "--charge=3"),
    "catalog_sweep": ("match", "--module=loop:lambda=0,a=1/2,b=1/3", "--scramble-seed=3"),
}


def _runner(jobs):
    parser = build_parser()
    configs = [config_from_args(parser.parse_args(list(job))) for job in jobs]
    return run.Runner(jobs, configs, load_expected(), RefClock())


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.expected = load_expected()
        with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            self.bench = json.load(fh)

    def test_smoke_jobs_pass_their_checks(self):
        jobs = list(SMOKE_JOBS.values())
        runner = _runner(jobs)
        run.timed_run(runner, 0)
        metrics, _ = run.end_to_end(runner, run.measure_setup(runner.clock))
        self.assertEqual(runner.failed, 0, runner.job_runs)
        self.assertEqual(len(runner.job_runs), len(jobs))
        for job in jobs:
            self.assertIn(command_line(job), self.expected)
        names = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(names, set(metrics))
        self.assertTrue(all(value > 0 for value, _ in metrics.values()), metrics)

    def test_checks_reject_wrong_outputs(self):
        job = SMOKE_JOBS["catalog_sweep"]
        config = config_from_args(build_parser().parse_args(list(job)))
        rc, report, _, _ = run.run_job(config)
        self.assertIsNone(check(job, rc, report, self.expected))
        self.assertIsNotNone(check(job, 1, report, self.expected))
        self.assertIsNotNone(check(job, rc, report + b" ", self.expected))
        wrong = job[:1] + ("--module=loop:lambda=0,a=1/2,b=1/5",) + job[2:]
        self.assertIsNotNone(check(wrong, rc, report, {}))

    def test_default_seed_jobs_are_pinned(self):
        for workload in WORKLOADS:
            jobs = jobs_for(workload, 0)
            self.assertEqual(jobs, jobs_for(workload, 0))
            self.assertNotEqual(jobs, jobs_for(workload, 1))
            for job in jobs:
                self.assertIn(command_line(job), self.expected)

    def test_tracer_reports_every_per_layer_metric(self):
        original = avw.windows.nullspace
        runner = _runner(list(SMOKE_JOBS.values()))
        tracer = Tracer()
        with tracer.installed():
            self.assertIsNot(avw.windows.nullspace, original)
            runner.run_pass(tracer=tracer)
        self.assertIs(avw.windows.nullspace, original)
        self.assertEqual(runner.failed, 0, runner.job_runs)
        values = tracer.metrics(1, 0.0)
        self.assertEqual({m["name"] for m in self.bench["per_layer"]},
                         {name for name, _, _ in PER_LAYER})
        self.assertEqual(set(values), {name for name, _, _ in PER_LAYER})
        self.assertGreater(values["verma.pbw_straighten.calls"], 0)
        self.assertGreater(values["linalg.nullspace.calls"], 0)
        self.assertGreater(values["windows.catalog_match.s"], 0)
        self.assertTrue(0 < values["windows.column_read_ratio"] <= 1)


if __name__ == "__main__":
    unittest.main()
