"""Rewrite expected.json: the exit code and report sha256 of every job in
one pass of each workload at the default seed, and of the smoke jobs.

    python3 perfbench/record_expected.py

Reports must stay byte-identical across performance work, so run this only
for a change that is meant to alter report bytes, and say so in its review.
"""

from __future__ import annotations

import json
import sys

from run import SRC

sys.path.insert(0, str(SRC))

from avw.cli import build_parser, config_from_args  # noqa: E402

from checks import EXPECTED_PATH, digest  # noqa: E402
from run import run_job  # noqa: E402
from smoke import SMOKE_JOBS  # noqa: E402
from workloads import WORKLOADS, command_line, jobs_for  # noqa: E402


def main() -> None:
    parser = build_parser()
    jobs = [job for w in WORKLOADS for job in jobs_for(w, 0)] + list(SMOKE_JOBS.values())
    table = {}
    for job in jobs:
        rc, report, seconds, _ = run_job(config_from_args(parser.parse_args(list(job))))
        table[command_line(job)] = [rc, digest(report)]
        print(f"{seconds:7.3f}s exit {rc}  {command_line(job)}", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
