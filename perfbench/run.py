#!/usr/bin/env python3
"""The avw benchmark: seeded workloads of real ``avw`` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hw_probe --seed 1 --seconds 40 --trace 0

One client runs the workload's job list over and over, each job one
``avw.cli.execute(RunConfig)`` call, the next job starting when the last one
returns (a closed loop).  New jobs start until ``--seconds`` have passed;
the first pass always completes.  Every job's exit code and report are
checked (see checks.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, in
reference seconds (see refclock.py).  With ``--trace 1`` untraced and traced
passes alternate, and the last line carries the per-layer metrics of the
traced passes, in wall seconds, and the tracing overhead.  Either way a
record of the run (Python version, nproc, commit, seed, job list,
``src/avw`` line count, raw per-job times) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check, load_expected
from refclock import RefClock
from workloads import WORKLOADS, command_line, jobs_for

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# set-up is measured this many times before the passes and again after
# them, so that its median spans the run
SETUP_SPAWNS = 8
# what every avw invocation pays before any work: a fresh interpreter's
# `import avw` plus building the argument parser
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import avw
from avw.cli import build_parser
build_parser()
print(time.perf_counter() - t0)
"""


def measure_setup(clock: RefClock) -> list:
    """Set-up times of SETUP_SPAWNS fresh interpreters, in reference seconds."""
    clock.calibrate()
    start, raw = time.perf_counter(), []
    for _ in range(SETUP_SPAWNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        raw.append(float(done.stdout))
    end = time.perf_counter()
    clock.calibrate()
    return [t * clock.scale(start, end) for t in raw]


def run_job(config):
    """Run one job; returns (exit code, report bytes, seconds, stderr)."""
    import avw.cli  # importable once main() has put src/ on the path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = avw.cli.execute(config)
        seconds = time.perf_counter() - t0
    return rc, out.getvalue().encode("utf-8"), seconds, err.getvalue()


class Runner:
    """Runs passes over one job list and keeps the per-job outcomes."""

    def __init__(self, jobs, configs, expected, clock):
        self.jobs, self.configs, self.expected = jobs, configs, expected
        self.clock = clock
        self.job_runs = []  # [pass, job index, exit code, start, wall seconds, error]
        self.failed = 0
        self.passes = 0  # complete passes

    def run_pass(self, deadline=None, tracer=None):
        """Run the job list once; stops early (returning None) when the
        deadline passes before the list is done, else returns the pass time,
        the sum of its job times in wall seconds."""
        total = 0.0
        for idx, (job, config) in enumerate(zip(self.jobs, self.configs)):
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            self.clock.tick()
            if tracer is not None:
                tracer.begin_job(idx)
            start = time.perf_counter()
            try:
                rc, report, seconds, stderr = run_job(config)
                error = check(job, rc, report, self.expected)
                if error and stderr:
                    error += f"; stderr: {stderr.strip()}"
            except Exception:  # a crashing job is a failed job; keep measuring
                rc, seconds, error = None, 0.0, traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.end_job()
            if error:
                self.failed += 1
                print(f"FAILED {command_line(job)}: {error}", file=sys.stderr)
            self.job_runs.append([self.passes, idx, rc, start, seconds, error])
            total += seconds
        self.passes += 1
        return total


def tail(samples):
    """Value at the highest percentile with at least 10 samples beyond it,
    but never below the lower median (so with fewer than 21 samples it is
    the lower median), its percentile, and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n, n


def timed_run(runner, seconds):
    """Run passes for ``seconds``; returns the wall times of complete passes."""
    deadline = time.perf_counter() + seconds
    passes = [runner.run_pass()]
    while (pass_s := runner.run_pass(deadline)) is not None:
        passes.append(pass_s)
    return passes


def end_to_end(runner, setup_s):
    """End-to-end metrics; call once the clock has calibrated after the
    last job, so that every job has a calibration on each side."""
    per_job, job_s = {}, []
    for pass_no, idx, rc, start, seconds, _ in runner.job_runs:
        if rc is not None:
            ref_s = seconds * runner.clock.scale(start, start + seconds)
            per_job.setdefault(idx, []).append(ref_s)
            # latency percentiles count complete passes only, so that the
            # mix of jobs is the workload's and not tilted to the list's head
            if pass_no < runner.passes:
                job_s.append(ref_s)
    tail_s, tail_pct, n = tail(job_s)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        # the sum of each job's median time: one pass's time, estimated from
        # every job run, the partial last pass included
        "pass_s": (sum(statistics.median(ts) for ts in per_job.values()), "s"),
        "job_s_p50": (statistics.median(job_s), "s"),
        "job_s_tail": (tail_s, "s"),
        "ok_frac": ((len(runner.job_runs) - runner.failed) / len(runner.job_runs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": tail_pct, "job_samples": n}


def traced_run(runner, seconds, workload, seed):
    from tracer import PER_LAYER, Tracer
    tracer = Tracer()
    passes = {False: [], True: []}  # untraced, traced pass times
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            with tracer.installed():
                passes[True].append(runner.run_pass(tracer=tracer))
        else:
            passes[False].append(runner.run_pass())
        traced = not traced
        # whole passes only: stop before a pass that would end past the deadline
        if passes[traced] and time.perf_counter() + passes[traced][-1] > deadline:
            break
    plain, traced_s = passes[False], passes[True]
    overhead = statistics.median(traced_s) - statistics.median(plain)
    values = tracer.metrics(len(traced_s), overhead)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": [command_line(j) for j in runner.jobs],
                   "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "job"],
                   "spans": tracer.spans, "totals": tracer.totals()}, fh)
    notes = {"untraced_passes_s": plain, "traced_passes_s": traced_s,
             "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, notes


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "avw").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "avw" / "__init__.py").is_file():
        print(f"error: no avw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from avw.cli import build_parser, config_from_args

    clock = RefClock()
    setup_s = measure_setup(clock)
    jobs = jobs_for(args.workload, args.seed)
    avw_parser = build_parser()
    configs = [config_from_args(avw_parser.parse_args(list(job))) for job in jobs]
    runner = Runner(jobs, configs, load_expected(), clock)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, notes = traced_run(runner, args.seconds, args.workload, args.seed)
        setup_s += measure_setup(clock)
    else:
        passes = timed_run(runner, args.seconds)
        setup_s += measure_setup(clock)
        metrics, notes = end_to_end(runner, setup_s)
        notes["passes_wall_s"] = passes
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.job_runs),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "src_avw_lines": src_lines(), "setup_ref_s": setup_s,
        "calibrations": clock.marks,
        "jobs": [command_line(job) for job in jobs],
        "job_run_fields": ["pass", "job", "exit", "start", "wall_s", "error"],
        "job_runs": runner.job_runs, **notes, "result": result,
    }
    record_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = f"{args.workload} seed={args.seed}: {len(runner.job_runs)} jobs, " \
              f"{runner.failed} failed"
    if "tail_percentile" in notes:
        summary += f"; job_s_tail is p{notes['tail_percentile']:.0f} of " \
                   f"{notes['job_samples']} jobs"
    print(f"{summary}; record in {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
