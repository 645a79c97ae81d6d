"""The benchmark's workloads, replayed against their committed digests.

Every job of one seed-0 pass of each workload in ``perfbench/workloads.py``
runs through ``avw.cli.execute`` and must pass ``perfbench/checks.check``:
its exit code and the sha256 of its report as in ``perfbench/expected.json``,
and the workload's invariants.  So a change to a report byte of these
passes fails here, not only in the benchmark.  The seed 1 and 2 passes are
pinned by one digest over their exit codes, stdout and stderr.  The
benchmark's own smoke test runs too, so a renamed or reshaped function that
its tracer wraps fails here.  Nothing under ``perfbench/`` is written.
"""

import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from avw.cli import build_parser, config_from_args, execute

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))
# import the bench modules without writing their bytecode under perfbench/
dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from checks import check, load_expected  # noqa: E402
from workloads import WORKLOADS, command_line, jobs_for  # noqa: E402
sys.dont_write_bytecode = dont_write

JOBS = {workload: jobs_for(workload, 0) for workload in WORKLOADS}
HW_JOBS = [(workload, n, job) for workload in WORKLOADS if workload != "catalog_sweep"
           for n, job in enumerate(JOBS[workload])]


@pytest.fixture(scope="module")
def expected():
    return load_expected()


def run_job(job):
    """Exit code, stdout and stderr of one job run in process."""
    config = config_from_args(build_parser().parse_args(list(job)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = execute(config)
    return rc, out.getvalue(), err.getvalue()


def replay(job, expected):
    rc, out, err = run_job(job)
    assert command_line(job) in expected
    assert check(job, rc, out.encode("utf-8"), expected) is None, err


@pytest.mark.parametrize("job", JOBS["catalog_sweep"],
                         ids=[f"{n}-{job[0]}" for n, job in enumerate(JOBS["catalog_sweep"])])
def test_catalog_sweep_job_matches_expected(job, expected):
    replay(job, expected)


@pytest.mark.parametrize("job", [job for _, _, job in HW_JOBS],
                         ids=[f"{workload}-{n}-{job[0]}" for workload, n, job in HW_JOBS])
def test_highest_weight_job_matches_expected(job, expected):
    replay(job, expected)


def test_seed_1_and_2_passes_are_pinned():
    # one sha256 over the command line, exit code, stdout and stderr of each
    # of the 70 jobs, computed while avw.verma and avw.windows still wrote
    # report JSON
    digest, count = hashlib.sha256(), 0
    for seed in (1, 2):
        for workload in WORKLOADS:
            for job in jobs_for(workload, seed):
                rc, out, err = run_job(job)
                digest.update(f"{command_line(job)}\n{rc}\n{out}\n{err}\n".encode())
                count += 1
    assert count == 70
    assert digest.hexdigest() == (
        "ef8133724488a559f9c850532217ab09b39e98a7335a8ab8e6c585e990d543c2")


def test_bench_smoke_test_passes():
    # -B: the smoke test's imports write no bytecode under perfbench/
    done = subprocess.run([sys.executable, "-B", str(BENCH_DIR / "smoke.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
