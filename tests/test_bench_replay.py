"""The benchmark's catalog workload, replayed against its committed digests.

Every job of one seed-0 ``catalog_sweep`` pass (``perfbench/workloads.py``)
runs through ``avw.cli.execute`` and must pass ``perfbench/checks.check``:
its exit code and the sha256 of its report as in ``perfbench/expected.json``,
and the workload's invariants.  So a change to a report byte of these
sweeps fails here, not only in the benchmark.  Nothing under ``perfbench/``
is written.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from avw.cli import build_parser, config_from_args, execute

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import check, load_expected  # noqa: E402
from workloads import command_line, jobs_for  # noqa: E402

JOBS = jobs_for("catalog_sweep", 0)


@pytest.fixture(scope="module")
def expected():
    return load_expected()


@pytest.mark.parametrize("job", JOBS, ids=[f"{n}-{job[0]}" for n, job in enumerate(JOBS)])
def test_catalog_sweep_job_matches_expected(job, expected):
    config = config_from_args(build_parser().parse_args(list(job)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = execute(config)
    assert command_line(job) in expected
    assert check(job, rc, out.getvalue().encode("utf-8"), expected) is None, err.getvalue()
