"""The benchmark tracer wraps names of this tree and gives them back.

``perfbench/tracer.py`` rebinds module and class attributes of ``avw`` by
name.  A rename or deletion in ``src/`` that drops one of them makes
``Tracer().installed()`` fail on entry, so this test fails with it.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import avw.algebra
import avw.catalog
import avw.cli
import avw.linalg
import avw.verma
import avw.windows

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
OWNERS = (avw.algebra, avw.catalog, avw.cli, avw.linalg, avw.verma, avw.windows,
          avw.verma.TruncatedModule, avw.windows.WindowedModule)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("avw_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped(before, during):
    return {(owner.__name__, name) for owner, old, new in zip(OWNERS, before, during)
            for name in old if new[name] is not old[name]}


def test_tracer_wraps_names_that_exist_and_restores_them(tmp_path):
    tracer = _load_tracer().Tracer()
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracer.installed():
        during = [dict(vars(owner)) for owner in OWNERS]
        # a catalog check runs through the wrapped names and is counted
        assert avw.cli.main(["catalog", "--module=loop:lambda=1,a=1/2,b=1/3",
                             "--window=-1..1", f"--out={tmp_path / 'r.json'}"]) == 0
    after = [dict(vars(owner)) for owner in OWNERS]
    assert [set(d) for d in during] == [set(d) for d in before]  # nothing added
    assert after == before
    wrapped = _wrapped(before, during)
    for name in [("avw.catalog", "module_defect"), ("avw.windows", "bracket_consistency_defects"),
                 ("avw.catalog", "bracket_gens"), ("avw.windows", "bracket_gens"),
                 ("avw.catalog", "act_basis"), ("avw.windows", "act_basis"),
                 ("avw.windows", "stacked_shift_injectivity"), ("WindowedModule", "block")]:
        assert name in wrapped, name
    assert tracer.calls["windows.bracket_consistency_defects"] == 1
    assert tracer.calls["algebra.bracket_gens"] > 0


def test_traced_injectivity_at_a_huge_shift_finishes():
    # the tracer counts every column of each highest-weight export; the
    # injectivity export holds only the blocks of degrees i and i + 1, so a
    # 10^9 shift still finishes at once under the tracer
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('avw_bench_tracer', sys.argv[1])\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "from avw.cli import main\n"
            "with tracer.Tracer().installed():\n"
            "    code = main(sys.argv[2:])\n"
            "sys.exit(code)\n")
    src = str(Path(avw.windows.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, str(TRACER_PATH), "injectivity", "--lamd=1/2", "--mu=0",
         "--c=0", "--depth=2", "--k=0", "--i=1000000000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


def test_bench_smoke_passes():
    # the smoke test runs one small job per workload under the tracer and
    # asserts that it counts nullspace and pbw_straighten calls, which a
    # catalog command alone never reaches
    done = subprocess.run(
        [sys.executable, str(TRACER_PATH.parent / "smoke.py")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
