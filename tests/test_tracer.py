"""The benchmark tracer wraps names of this tree and gives them back.

``perfbench/tracer.py`` rebinds module and class attributes of ``avw`` by
name.  A rename or deletion in ``src/`` that drops one of them makes
``Tracer().installed()`` fail on entry, so this test fails with it.
"""

import importlib.util
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
