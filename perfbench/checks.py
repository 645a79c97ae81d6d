"""Output checks for benchmark jobs.

Two kinds of check run on every job:

- byte identity: when the job's command line is in ``expected.json`` (the
  default seed's jobs and the smoke jobs), its exit code and the sha256 of
  its report must match the committed values exactly;
- invariants that hold for any seed: the exit code, ``match`` recovering the
  generating spec, zero defects from ``jacobi`` and from ``module-check`` on
  valid kinds (and a defect from ``T2corrupt``), the highest-weight line and
  the Kac-Kazhdan singular vectors in ``singular``, and the kernels that the
  theory fixes for the stacked injectivity map.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

from workloads import Job, command_line

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> Dict[str, Tuple[int, str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return {line: (rc, digest) for line, (rc, digest) in json.load(fh).items()}


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def _flags(job: Job) -> Dict[str, str]:
    out = {}
    for tok in job[1:]:
        key, _, value = tok.partition("=")
        out[key] = value
    return out


def expected_exit(job: Job) -> int:
    """1 for the T2corrupt negative control, whose module check must fail."""
    corrupt = _flags(job).get("--module", "").startswith("T2corrupt:")
    return 1 if job[0] == "module-check" and corrupt else 0


def _check_report(job: Job, report: dict) -> Optional[str]:
    cmd, flags = job[0], _flags(job)
    module = flags.get("--module", "")
    if report.get("command") != cmd:
        return f"report command {report.get('command')!r} != {cmd!r}"
    if cmd == "jacobi":
        bad = {k: report[k] for k in ("antisymmetry_defects", "grading_defects",
                                      "closure_defects", "jacobi_defects") if report[k]}
        return f"algebra defects {bad}" if bad else None
    if cmd == "module-check":
        corrupt = module.startswith("T2corrupt:")
        if corrupt != (report["defects"] > 0):
            return f"{report['defects']} module-axiom defects"
        return None
    if cmd == "match":
        ok = report["spec"] == module
        return None if ok else f"matched {report['spec']!r}, generated {module!r}"
    if cmd == "catalog":
        defects = report["bracket_consistency_defects"]
        return f"{len(defects)} bracket-consistency defects" if defects else None
    if cmd == "singular":
        cells = [(sv["depth"], sv["charge"]) for sv in report["singular_vectors"]]
        top = [sv for sv in report["singular_vectors"] if (sv["depth"], sv["charge"]) == (0, 0)]
        if not (top and top[0]["basis"] == ["1"] and top[0]["coefficients"] == ["1"]):
            return "highest-weight line missing from the singular vectors"
        mu, c = Fraction(flags["--mu"]), Fraction(flags["--c"])
        if mu.denominator == 1 and mu >= 0 and c.denominator == 1 and c >= mu:
            want = [(0, int(mu) + 1), (int(c - mu) + 1, -int(c - mu) - 1)]
            missing = [cell for cell in want if cell not in cells
                       and cell[0] <= report["max_depth"]]
            if missing:
                return f"Kac-Kazhdan singular vectors missing at cells {missing}"
        return None
    if cmd == "injectivity":
        if module.startswith("loop:") and not module.startswith("loop:lambda=0,"):
            # e_i and f_i have no common kernel on an sl2 irrep of dim >= 2
            want = 0
        elif not module:
            # above the highest weight the targets are empty: the top slice
            # of a highest-weight export maps to zero
            want = report["dimV_k"]
        else:
            return None
        if report["kernel_dim"] != want:
            return f"kernel_dim {report['kernel_dim']}, expected {want}"
        return None
    if cmd == "witness" and module.startswith("A:") and module.endswith(",b=0"):
        n = int(module[len("A:a="):-len(",b=0")])
        names = [name for w in report["witnesses"] for name in w["vector"]]
        return None if f"v_{-n}" in names else f"trivial line v_{-n} not witnessed"
    return None


def check(job: Job, rc: int, report: bytes,
          expected: Dict[str, Tuple[int, str]]) -> Optional[str]:
    """None when the job's outputs are right, else what is wrong."""
    if rc != expected_exit(job):
        return f"exit code {rc}, expected {expected_exit(job)}"
    want = expected.get(command_line(job))
    if want is not None and (rc, digest(report)) != want:
        return "report bytes differ from expected.json"
    try:
        parsed = json.loads(report)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    return _check_report(job, parsed)
