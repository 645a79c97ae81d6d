import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import avw
import avw.algebra
import avw.catalog
import avw.verma
import avw.windows
from avw.algebra import C, bracket, e, element_str, h
from avw.catalog import KINDS, HVirABC, IntA, IntAB, IntB, LoopMod, T2Corrupt, T2Mod, spec_keys
from avw.cli import (_COMMANDS, RunConfig, _merge_dash_values, build_parser, config_from_args,
                     execute, main, parse_spec)
from avw.errors import (AvwError, InternalError, MissingParameter, SpecParseError, UnknownKind,
                        UnwritablePath)
from avw.linalg import Vec
from avw.windows import DEFAULT_MAX_SWEEP, MAX_SWEEP_ENV


def test_parse_spec_examples():
    assert parse_spec("A:a=1/2,b=1/3") == IntAB(F(1, 2), F(1, 3))
    assert parse_spec("loop:lambda=2,a=0,b=0") == LoopMod(2, F(0), F(0))
    assert parse_spec("A2:a=3") == IntA(F(3))
    assert parse_spec("B:a=0") == IntB(F(0))
    assert parse_spec("H:a=0,b=0,c=5") == HVirABC(F(0), F(0), F(5))
    assert parse_spec("T2:a=0,b=0,c=5") == T2Mod(F(0), F(0), F(5))
    assert parse_spec("T2corrupt:a=0,b=0,c=1") == T2Corrupt(F(0), F(0), F(1))
    assert parse_spec("A:a=-3/2,b=2") == IntAB(F(-3, 2), F(2))


def test_parse_spec_round_trips_canonical_text():
    from avw.catalog import spec_text
    for text in ("A:a=1/2,b=1/3", "A2:a=3", "B:a=0", "H:a=0,b=0,c=5",
                 "T2:a=0,b=0,c=5", "T2corrupt:a=0,b=0,c=1",
                 "loop:lambda=1,a=1/2,b=1/3"):
        assert spec_text(parse_spec(text)) == text


def test_parse_spec_errors():
    with pytest.raises(SpecParseError) as err:
        parse_spec("A:a=1/0")
    assert "denominator" in str(err.value)
    assert err.value.position is not None
    with pytest.raises(UnknownKind):
        parse_spec("Q:a=1")
    with pytest.raises(MissingParameter):
        parse_spec("A:a=1")
    with pytest.raises(MissingParameter):
        parse_spec("A:")
    with pytest.raises(SpecParseError):
        parse_spec("A")
    with pytest.raises(SpecParseError):
        parse_spec("A:a=1,a=2,b=0")
    with pytest.raises(SpecParseError):
        parse_spec("A:a=1,z=2")
    with pytest.raises(SpecParseError):
        parse_spec("A:a=x,b=0")
    with pytest.raises(SpecParseError):
        parse_spec("loop:lambda=-1,a=0,b=0")
    with pytest.raises(SpecParseError):
        parse_spec("loop:lambda=1/2,a=0,b=0")


KINDS_TEXT = "('A', 'A2', 'B', 'H', 'T2', 'T2corrupt', 'loop')"


@pytest.mark.parametrize("text, exc, message, position", [
    ("A", SpecParseError, "missing ':' after the kind", 1),
    ("Q:a=1", UnknownKind, f"unknown kind 'Q'; expected one of {KINDS_TEXT}", 0),
    ("A:", MissingParameter, "kind 'A' needs parameters ('a', 'b')", 2),
    ("A2:", MissingParameter, "kind 'A2' needs parameters ('a',)", 3),
    ("loop:", MissingParameter, "kind 'loop' needs parameters ('lambda', 'a', 'b')", 5),
    ("A:a", SpecParseError, "expected key=value, got 'a'", 2),
    ("T2corrupt:c=1,,", SpecParseError, "expected key=value, got ''", 14),
    ("A:a=1,z=2", SpecParseError, "unknown parameter 'z' for kind 'A'", 6),
    ("loop:lam=1", SpecParseError, "unknown parameter 'lam' for kind 'loop'", 5),
    ("A:a=1,a=2,b=0", SpecParseError, "duplicate parameter 'a'", 6),
    ("A:a=1/0", SpecParseError, "zero denominator", 4),
    ("A:a=x,b=0", SpecParseError, "expected a rational like 7/6 or -2, got 'x'", 4),
    ("A:a=1", MissingParameter, "missing parameter 'b' for kind 'A'", 5),
    ("H:a=0,b=0", MissingParameter, "missing parameter 'c' for kind 'H'", 9),
    ("loop:lambda=1,a=0", MissingParameter, "missing parameter 'b' for kind 'loop'", 17),
    ("loop:lambda=-1,a=0,b=0", SpecParseError, "lambda must be a nonnegative integer", 5),
    ("loop:lambda=1/2,a=0,b=0", SpecParseError, "lambda must be a nonnegative integer", 5),
])
def test_parse_spec_error_messages_and_positions(text, exc, message, position):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert type(err.value) is exc
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def run(args):
    return main(args)


def test_jacobi_command_and_negative_range(capsys):
    assert run(["jacobi", "--algebra", "T2", "--range", "-2..2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jacobi_defects"] == 0
    assert payload["antisymmetry_defects"] == 0
    assert payload["range"] == [-2, 2]


def test_module_check_command(capsys):
    assert run(["module-check", "--module", "A:a=1/2,b=1/3",
                "--deg-range", "-2..2", "--label-range", "-2..2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"] == 0


def test_module_check_corrupt_exits_1(capsys):
    assert run(["module-check", "--module", "T2corrupt:a=0,b=0,c=1",
                "--deg-range", "-1..1", "--label-range", "-1..1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"] > 0
    assert payload["defect_samples"]


def test_jacobi_reads_live_defining_relations(monkeypatch, capsys):
    # negative control for the memoized sweep: drop the Virasoro central
    # term of [d_i, d_-i] for i > 0 only.  (Dropped in both orders, the
    # bracket would be the Witt algebra's, and Jacobi would still hold.)
    real = avw.algebra.bracket_gens

    def broken(x, y):
        out = real(x, y)
        if x.family == y.family == "d" and x.degree > 0 and x.degree + y.degree == 0:
            return Vec({g: c for g, c in out if g != C})
        return out

    monkeypatch.setattr(avw.algebra, "bracket_gens", broken)
    assert run(["jacobi", "--range=-3..3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["jacobi_defects"] > 0
    # the pair checks read avw.cli.bracket_gens, which is untouched
    assert payload["antisymmetry_defects"] == 0


def _drop_central(real):
    # the patch above: [d_i, d_-i] loses its central term for i > 0 only
    def broken(x, y):
        out = real(x, y)
        if x.family == y.family == "d" and x.degree > 0 and x.degree + y.degree == 0:
            return Vec({g: c for g, c in out if g != C})
        return out
    return broken


def _break_antisymmetry(real):
    # [e_i, e_j] gains 1/3 h_{i+j} for i > j while [e_j, e_i] stays 0
    def broken(x, y):
        out = real(x, y)
        if x.family == y.family == "e" and x.degree > y.degree:
            return out + Vec({h(x.degree + y.degree): F(1, 3)})
        return out
    return broken


@pytest.mark.parametrize("patch", [_drop_central, _break_antisymmetry])
@pytest.mark.parametrize("lo, hi", [(-2, 2), (-3, 2)])
def test_jacobi_orbit_sweep_matches_all_triples_oracle(patch, lo, hi, monkeypatch, capsys):
    # the command computes one Jacobi sum per cyclic orbit; the oracle sums
    # [x,[y,z]] + [y,[z,x]] + [z,[x,y]] through avw.algebra.bracket on every
    # triple, so a broken bracket must give the same count and samples
    broken = patch(avw.algebra.bracket_gens)
    monkeypatch.setattr(avw.algebra, "bracket_gens", broken)
    gens = list(avw.algebra.FULL.generators(lo, hi))
    # neither patched bracket is antisymmetric
    assert any(broken(x, y) + broken(y, x) for x in gens for y in gens)
    jac, samples = 0, []
    for x in gens:
        for y in gens:
            for z in gens:
                dft = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                       + bracket(z, bracket(x, y)))
                if dft:
                    jac += 1
                    if len(samples) < 10:
                        samples.append({"triple": [str(x), str(y), str(z)],
                                        "defect": element_str(dft)})
    assert jac > 0
    assert run(["jacobi", f"--range={lo}..{hi}"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["jacobi_defects"] == jac
    assert payload["defects"] == samples


def test_jacobi_defect_runs_once_per_cyclic_orbit(monkeypatch, capsys):
    calls = []
    real = avw.cli.jacobi_defect
    monkeypatch.setattr(avw.cli, "jacobi_defect", lambda *a: calls.append(a[:3]) or real(*a))
    assert run(["jacobi", "--range=-2..2"]) == 0
    n = json.loads(capsys.readouterr().out)["generators"]
    # n^3 triples: n fixed by rotation, the others in orbits of three
    assert len(calls) == len(set(calls)) == (n ** 3 + 2 * n) // 3
    orbits = {min((x, y, z), (y, z, x), (z, x, y)) for x, y, z in calls}
    assert len(orbits) == len(calls)


def _off_degree(real):
    # [x, y] gains d_{deg x + deg y + 1}, one degree too high, when x has degree 1
    def broken(x, y):
        out = real(x, y)
        if x.degree == 1:
            return out + Vec({avw.algebra.d(x.degree + y.degree + 1): 1})
        return out
    return broken


def _adds_e(real):
    # [d_i, d_j] gains e_{i+j} for i < j, a term outside the Virasoro algebra
    def broken(x, y):
        out = real(x, y)
        if x.family == y.family == "d" and x.degree < y.degree:
            return out + Vec({e(x.degree + y.degree): 1})
        return out
    return broken


@pytest.mark.parametrize("patch, algebra", [(_off_degree, "L"), (_adds_e, "Vir")])
def test_jacobi_pair_counters_match_all_pairs_oracle(patch, algebra, monkeypatch, capsys):
    # negative control for the pair checks, which read avw.cli.bracket_gens:
    # the grading count is one per term of the wrong degree, the closure
    # count one per pair with a term outside the algebra
    broken = patch(avw.cli.bracket_gens)
    monkeypatch.setattr(avw.cli, "bracket_gens", broken)
    alg = avw.algebra.ALGEBRAS[algebra]
    gens = list(alg.generators(-2, 2))
    grading = closure = 0
    for x in gens:
        for y in gens:
            terms = [g for g, _ in broken(x, y)]
            grading += sum(g.degree != x.degree + y.degree for g in terms)
            closure += not all(alg.contains(g) for g in terms)
    assert (grading > 0) == (patch is _off_degree) and (closure > 0) == (patch is _adds_e)
    assert run(["jacobi", f"--algebra={algebra}", "--range=-2..2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["grading_defects"], payload["closure_defects"]) == (grading, closure)
    # the Jacobi sums read avw.algebra.bracket_gens, which is untouched
    assert payload["jacobi_defects"] == 0


def test_module_check_matches_all_triples_oracle_on_a_defective_spec(capsys):
    # the command sums each basis vector over one per-run memo; the oracle
    # builds one Vec per action on every triple, in the report's order
    from test_catalog import oracle_module_defect
    spec = T2Corrupt(F(1, 3), F(2, 5), F(1, 7))
    labels = range(-1, 3)
    count, samples = 0, []
    for x in avw.algebra.T2.generators(-2, 1):
        for y in avw.algebra.T2.generators(-2, 1):
            for lab in labels:
                dft = oracle_module_defect(spec, x, y, Vec.basis(lab))
                if dft:
                    count += 1
                    if len(samples) < 10:
                        samples.append({"x": str(x), "y": str(y), "vector": f"v_{lab}",
                                        "defect": {f"v_{k}": str(c) for k, c in sorted(
                                            dft.terms.items(), key=lambda kv: f"v_{kv[0]}")}})
    assert count > 10
    assert run(["module-check", f"--module={avw.catalog.spec_text(spec)}",
                "--deg-range=-2..1", "--label-range=-1..2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"] == count
    assert payload["defect_samples"] == samples


def _pinned_sweeps():
    for algebra in sorted(avw.algebra.ALGEBRAS):
        for lo_hi in ("-3..3", "1..4", "-4..-1", "0..0"):
            yield ["jacobi", f"--algebra={algebra}", f"--range={lo_hi}"]
    for spec in ("A:a=1/3,b=-2/5", "A2:a=-1/3", "B:a=4/3", "H:a=-1/3,b=3/5,c=2/7",
                 "T2:a=5/3,b=1/5,c=-4/7", "T2corrupt:a=1/3,b=2/5,c=1/7",
                 "loop:lambda=1,a=-1/3,b=3/5"):
        yield ["module-check", f"--module={spec}", "--deg-range=-2..3", "--label-range=-3..1"]
    for spec in ("loop:lambda=0,a=1/3,b=2/5", "loop:lambda=1,a=1/3,b=2/5",
                 "loop:lambda=2,a=-2/3,b=1/5", "A:a=1/2,b=1/3", "H:a=1/3,b=2/5,c=1/7",
                 "T2:a=-1/3,b=1/5,c=2/7"):
        yield ["catalog", f"--module={spec}", "--window=-2..2", "--matrices"]


def test_sweep_reports_are_pinned(capsys):
    # one sha256 over the exit code, stdout and stderr of each sweep, computed
    # before the sweeps read their memos by subscript and walked only the
    # least rotation of each cyclic orbit
    digest = hashlib.sha256()
    for args in _pinned_sweeps():
        code = run(args)
        out, err = capsys.readouterr()
        digest.update(f"{args}\n{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
    assert digest.hexdigest() == (
        "ead86735fd0cdbb7f679b050f644ee3ba1497bd1980b4397921641a48ddc9343")


def _classification_grid():
    """simple and structure on every kind over a grid of parameters (378
    specs), plus the sl2 printout of catalog on the loop specs with a = 1/2."""
    values = {"a": ("0", "1", "-3", "7", "1/2", "-3/2", "2/3"), "b": ("0", "1", "2", "1/3"),
              "c": ("0", "5", "1/7"), "lambda": ("0", "1", "2")}
    for kind, cls in avw.catalog.KINDS.items():
        keys = avw.catalog.spec_keys(cls)
        for combo in product(*(values[key] for key in keys)):
            spec = f"{kind}:" + ",".join(f"{key}={v}" for key, v in zip(keys, combo))
            for command in ("simple", "structure"):
                yield [command, f"--module={spec}"]
    for lam, b in product(values["lambda"], values["b"]):
        yield ["catalog", f"--module=loop:lambda={lam},a=1/2,b={b}", "--window=-1..1"]


def test_classification_reports_are_pinned(capsys):
    # one sha256 over the exit code, stdout and stderr of each of the 768
    # commands, computed before is_simple and structure_report shared one
    # classification and the sl2 action was written in closed form
    digest, count = hashlib.sha256(), 0
    for args in _classification_grid():
        code = run(args)
        out, err = capsys.readouterr()
        digest.update(f"{args}\n{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
        count += 1
    assert count == 768
    assert digest.hexdigest() == (
        "d4065505b7ea7c2a24bb97c84f1132169a3ab799e03e9248d1df72859da05a6c")


def _calls_per_run(monkeypatch, owner, name, args, keep=lambda call: True):
    """The recorded calls of owner.name in each of two runs of args."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    runs = []
    for _ in range(2):
        run(args)
        runs.append([call for call in calls if keep(call)])
        calls.clear()
    return runs


def _assert_memo_scoped_to_one_run(runs):
    first, second = runs
    # the second run recomputes everything: no entry survived the first
    assert len(second) == len(first) > 0
    # and within one run the memo computes each argument tuple about once
    assert len(first) <= 2 * len(set(first))


def test_jacobi_memo_lives_for_one_execute(monkeypatch, capsys):
    # the pair checks read avw.cli.bracket_gens, and only on the window's
    # generators; a pair with a degree outside -2..2 comes from the memo of
    # jacobi_defect
    runs = _calls_per_run(monkeypatch, avw.algebra, "bracket_gens", ["jacobi", "--range=-2..2"],
                          keep=lambda pair: max(abs(g.degree) for g in pair) > 2)
    capsys.readouterr()
    _assert_memo_scoped_to_one_run(runs)


@pytest.mark.parametrize("spec", ["loop:lambda=1,a=1/3,b=2/5", "T2corrupt:a=1/3,b=2/5,c=1/7"])
@pytest.mark.parametrize("name", ["act_basis", "bracket_gens"])
def test_module_check_memo_lives_for_one_execute(spec, name, monkeypatch, capsys):
    args = ["module-check", f"--module={spec}", "--deg-range=-2..2", "--label-range=-2..2"]
    runs = _calls_per_run(monkeypatch, avw.catalog, name, args)
    capsys.readouterr()
    _assert_memo_scoped_to_one_run(runs)


def test_catalog_command(capsys):
    assert run(["catalog", "--module", "loop:lambda=1,a=0,b=0",
                "--window", "-2..2", "--matrices"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bracket_consistency_defects"] == []
    assert payload["sl2_irrep"]["h"] == [["1", "0"], ["0", "-1"]]
    assert payload["dims"] == {str(k): 2 for k in range(-2, 3)}


def test_simple_and_structure_commands(capsys):
    assert run(["simple", "--module", "H:a=0,b=0,c=5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["simple"] is True
    assert run(["structure", "--module", "B:a=7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["line_role"] == "submodule"


def test_loop_dims_command(capsys):
    assert run(["loop-dims", "--module", "loop:lambda=3,a=1/2,b=1/3",
                "--window", "-4..4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_dim"] == 4
    assert all(row["dim"] == 4 for row in payload["rows"])
    assert run(["loop-dims", "--module", "A:a=0,b=0"]) == 2


def test_verma_command_emits_csv_and_singular(tmp_path, capsys):
    csv_path = tmp_path / "dims.csv"
    assert run(["verma", "--lamd", "1/2", "--mu", "2", "--c", "0",
                "--depth", "4", "--emit", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "depth,charge,dim"
    assert "1,0,3" in lines
    cells = {(sv["depth"], sv["charge"]) for sv in payload["singular_vectors"]}
    assert (0, 3) in cells
    assert payload["cartan_diagonal"]["failures"] == []


def test_singular_command(capsys):
    assert run(["singular", "--lamd", "1/2", "--mu", "1/3", "--c", "2/7",
                "--depth", "2", "--max-depth", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(sv["depth"], sv["charge"]) for sv in payload["singular_vectors"]] == [(0, 0)]


def test_injectivity_command(capsys):
    assert run(["injectivity", "--module", "loop:lambda=1,a=1/2,b=1/3",
                "--k", "0", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dim"] == 0
    assert payload["dimV_k"] == 2


def test_injectivity_on_verma_top(capsys):
    assert run(["injectivity", "--lamd", "1/2", "--mu", "2", "--c", "0",
                "--depth", "2", "--k", "0", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dim"] == payload["dimV_k"] > 0


def test_injectivity_zero_shift_usage_error(capsys):
    assert run(["injectivity", "--module", "loop:lambda=1,a=0,b=0",
                "--k", "0", "--i", "0"]) == 2


def test_witness_command(capsys):
    assert run(["witness", "--module", "A:a=0,b=0", "--window", "-3..3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"][0]["vector"] == {"v_0": "1"}
    # the trivial line is extremal in both directions
    assert payload["extremal_vectors"]["highest"] == [
        {"offset": 0, "vector": {"v_0": "1"}}]
    assert payload["extremal_vectors"]["lowest"] == [
        {"offset": 0, "vector": {"v_0": "1"}}]


def test_catalog_witness_keeps_its_trivial_line(capsys):
    # a catalog window is not marked free over the lowering operators, so
    # the witness search still finds A(2, 0)'s trivial line at offset -2
    assert run(["witness", "--module=A:a=2,b=0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(w["offset"], w["vector"]) for w in payload["witnesses"]] == [(-2, {"v_-2": "1"})]
    assert payload["verdict"] == "1 finitely-supported submodule witness(es) in window"
    assert payload["extremal_vectors"]["highest"] == [{"offset": -2, "vector": {"v_-2": "1"}}]


@pytest.mark.parametrize("command", ["injectivity", "witness", "match", "support"])
@pytest.mark.parametrize("args, message", [
    (["--lamd=1/2", "--mu=2", "--c=0", "--depth=2", "--window=5..9"],
     "--window applies to --module only; a highest-weight window follows from --depth"),
    (["--mu=2", "--window=-3..3"],
     "--window applies to --module only; a highest-weight window follows from --depth"),
    (["--module=A:a=2,b=0", "--lamd=1/2", "--mu=2", "--c=0"],
     "--module and --lamd/--mu/--c name two modules; give one"),
    (["--module=A:a=2,b=0", "--c=0", "--window=-1..1"],
     "--module and --lamd/--mu/--c name two modules; give one"),
    (["--module=A:a=2,b=0", "--depth=9", "--charge=3"],
     "--depth and --charge apply to --lamd/--mu/--c only; a catalog window follows from --window"),
    (["--module=A:a=2,b=0", "--depth=4"],
     "--depth and --charge apply to --lamd/--mu/--c only; a catalog window follows from --window"),
    (["--module=A:a=2,b=0", "--charge=3", "--window=-1..1"],
     "--depth and --charge apply to --lamd/--mu/--c only; a catalog window follows from --window"),
], ids=["hw-window", "partial-hw-default-window", "module-hw", "module-c-window",
        "module-depth-charge", "module-default-depth", "module-charge-window"])
def test_mixed_analysis_inputs_exit_2(command, args, message, capsys):
    # each input path ignores the other's options, so a mix is refused
    # rather than answered for one of them
    assert main([command, *args]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_window_defaults_apply_without_a_window(capsys):
    for command, window in (("support", [-3, 3]), ("loop-dims", [-4, 4]), ("catalog", [-3, 3])):
        assert main([command, "--module=loop:lambda=0,a=0,b=0"]) == 0
        assert json.loads(capsys.readouterr().out)["window"] == window
    # offset -4 lies in injectivity's default window only
    assert main(["injectivity", "--module=loop:lambda=0,a=0,b=0", "--k=-4"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == -4
    # a config built without the parser takes its command's default too
    assert RunConfig("catalog", module="A:a=0,b=0").window is None
    assert execute(RunConfig("catalog", module="A:a=0,b=0")) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [-3, 3]


def test_witness_command_without_loop_families(capsys):
    assert run(["witness", "--module", "H:a=0,b=0,c=5", "--window", "-3..3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"] == []
    assert "not_searchable" in payload["extremal_vectors"]["highest"]


def test_match_command_scrambled(capsys):
    assert run(["match", "--module", "loop:lambda=2,a=1/2,b=1/3",
                "--scramble-seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"] == "loop:lambda=2,a=1/2,b=1/3"


def test_support_command(capsys):
    assert run(["support", "--module", "loop:lambda=1,a=0,b=0",
                "--window", "0..0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [["0", "-1"], ["0", "1"]]


def test_bad_spec_exits_2(capsys):
    assert run(["simple", "--module", "A:a=1/0"]) == 2
    assert "denominator" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("1/-2", "expected a rational like 7/6 or -2, got '1/-2'"),
    ("7" * 5000, "numerals are limited to 4300 digits"),
], ids=["negative-denominator", "5000-digits"])
def test_bad_rational_is_a_typed_spec_error(value, message, capsys):
    with pytest.raises(SpecParseError, match=message) as err:
        parse_spec(f"A:a={value},b=0")
    assert err.value.position == 4
    assert run(["simple", "--module", f"A:a={value},b=0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err.value}\n" and captured.out == ""
    # the same value as a highest-weight flag is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        run(["singular", f"--lamd={value}", "--mu=1", "--c=0", "--depth=2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simple", "--module", "A:a=1/2,b=1/3", "--out"],
    ["verma", "--lamd", "1/2", "--mu", "1", "--c", "0", "--depth", "1", "--emit"],
], ids=["out", "emit"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, args):
    path = tmp_path / "no-such-dir" / "report"
    assert run(args + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {str(path)!r}: No such file or directory\n"
    assert captured.out == "" and not path.parent.exists()
    assert run(args + [str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {str(tmp_path)!r}: Is a directory\n"
    assert issubclass(UnwritablePath, AvwError) and issubclass(UnwritablePath, OSError)


@pytest.mark.parametrize("depth, max_depth, message", [
    (1, -1, "max_depth must be >= 0"),
    (1, 5, "max_depth 5 exceeds the depth bound 1"),
    (0, 0, None),  # answered: a search may reach the depth bound itself
])
def test_verma_checks_an_explicit_singular_depth_below_depth_2(depth, max_depth, message,
                                                               capsys):
    hw = ["--lamd=1/2", "--mu=2", "--c=0", f"--depth={depth}"]
    for args in (["verma", *hw, f"--singular-depth={max_depth}"],
                 ["singular", *hw, f"--max-depth={max_depth}"]):
        if message is None:
            assert run(args) == 0
            found = json.loads(capsys.readouterr().out)["singular_vectors"]
            assert found[0] == {"depth": 0, "charge": 0, "coefficients": ["1"], "basis": ["1"]}
        else:
            assert run(args) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
    # without the flag a truncation this shallow has no singular search
    assert run(["verma", *hw]) == 0
    assert json.loads(capsys.readouterr().out)["singular_vectors"] == []


@pytest.mark.parametrize("depth, digest", [
    (0, "fd78d71d5c6e1c13fb2c987ecf8bb9aa46f43381c3dc76fcb16a89e8b6f192bf"),
    (1, "b35535ab2c550dc9b1a1d43a1d8c243ab5b3268ed9511133eaec75ea55077ead"),
    (3, "6398181b7d0809f5e76bce77880f748d347e588ebf1cd7f9722fa42f0ff133f7"),
    (4, "e69dc24adbe067cc83970987c1a9482a5347b366a1d8828963d7bf35c295cca0"),
])
def test_verma_emit_is_pinned(tmp_path, monkeypatch, capsys, depth, digest):
    # one sha256 over the exit code, stdout, stderr and the CSV's bytes,
    # computed while avw.verma still wrote the CSV; the relative path keeps
    # the report's dims_csv the same in every run
    monkeypatch.chdir(tmp_path)
    code = main(["verma", "--lamd=1/2", "--mu=2", "--c=0", f"--depth={depth}", "--emit=dims.csv"])
    out, err = capsys.readouterr()
    csv = (tmp_path / "dims.csv").read_bytes()
    assert hashlib.sha256(f"{code}\n{out}\n{err}\n".encode() + csv).hexdigest() == digest


def test_negative_depth_exits_2(capsys):
    assert run(["verma", "--lamd", "1/2", "--mu", "1", "--c", "0",
                "--depth", "-1"]) == 2
    assert capsys.readouterr().err == "error: depth bound must be >= 0\n"


@pytest.mark.parametrize("args", [
    ["singular", "--max-depth=-1"],
    ["verma", "--singular-depth=-1"],
], ids=["singular", "verma"])
def test_negative_singular_depth_exits_2(capsys, args):
    # the highest-weight line is singular at depth 0, so a search that stops
    # above it is a usage error, not an empty list
    assert run(args + ["--lamd=1/2", "--mu=1", "--c=0", "--depth=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_depth must be >= 0\n"


@pytest.mark.parametrize("args, message", [
    (["witness", "--module=T2corrupt:a=0,b=0,c=1"],
     "T2Corrupt violates the module axiom; it has no consistent window"),
    (["simple", "--module=T2corrupt:a=0,b=0,c=1"],
     "T2Corrupt is not a module; simplicity is undefined"),
])
def test_corrupt_module_rejection_exits_2(capsys, args, message):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_match_with_huge_rational_b_is_fast(capsys):
    # the gcd constraint's constant term has ~40 digits: trial division over
    # its divisors never finished, the closed-form root is immediate
    start = time.perf_counter()
    assert run(["match", "--module",
                "loop:lambda=0,a=1/2,b=123456789012345678901/98765432109876543",
                "--scramble-seed", "3"]) == 0
    assert time.perf_counter() - start < 5
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"] == "loop:lambda=0,a=1/2,b=11223344455667788991/8978675646352413"
    assert F(payload["spec"].rsplit("=", 1)[1]) == F(123456789012345678901, 98765432109876543)


@pytest.mark.parametrize("raw", ["many", "-3"])
def test_bad_max_basis_env_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("AVW_MAX_BASIS", raw)
    assert run(["singular", "--lamd", "1/2", "--mu", "1", "--c", "0",
                "--depth", "2"]) == 2
    assert "AVW_MAX_BASIS" in capsys.readouterr().err


@pytest.mark.parametrize("args, count", [
    (["jacobi", "--range=-100..100"], 805 ** 3),
    (["module-check", "--module=loop:lambda=2,a=0,b=0", "--deg-range=-50..50",
      "--label-range=-100..100"], 405 ** 2 * 201 * 3),
    # a range this wide would not even fit its generator list in memory
    (["jacobi", "--range=-1000000000000..1000000000000"], (4 * (2 * 10 ** 12 + 1) + 1) ** 3),
])
def test_sweep_over_the_cap_exits_2_before_it_starts(args, count, capsys):
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"the sweep has {count} " in err
    assert f"over the cap {DEFAULT_MAX_SWEEP}" in err and MAX_SWEEP_ENV in err


def test_sweep_cap_admits_the_documented_sweeps():
    # jacobi --range=-20..20 on L, and the widest bench and README sweeps
    assert avw.algebra.FULL.generator_count(-20, 20) ** 3 <= DEFAULT_MAX_SWEEP
    assert avw.algebra.FULL.generator_count(-3, 3) ** 2 * 7 * 2 <= DEFAULT_MAX_SWEEP


def test_sweep_cap_reads_its_environment_override(monkeypatch, capsys):
    args = ["module-check", "--module=A:a=1/2,b=1/3", "--deg-range=-1..1",
            "--label-range=-1..1"]
    monkeypatch.setenv(MAX_SWEEP_ENV, "48")  # 4 generators, 3 labels
    assert run(args) == 0
    monkeypatch.setenv(MAX_SWEEP_ENV, "47")
    assert run(args) == 2
    assert "the sweep has 48 checks, over the cap 47" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["many", "-3", "1e9"])
@pytest.mark.parametrize("args", [["jacobi", "--range=0..1"],
                                  ["module-check", "--module=B:a=0"]])
def test_bad_sweep_cap_env_exits_2(monkeypatch, capsys, raw, args):
    monkeypatch.setenv(MAX_SWEEP_ENV, raw)
    assert run(args) == 2
    assert f"{MAX_SWEEP_ENV} must be a nonnegative integer, got {raw!r}" \
        in capsys.readouterr().err


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_execute_refuses_an_unknown_command(capsys):
    assert execute(RunConfig("no-such-command")) == 2
    assert capsys.readouterr().err == "unknown command 'no-such-command'\n"


@pytest.mark.parametrize("args, message", [
    (["jacobi", "--range=2..0"], "empty --range 2..0"),
    (["module-check", "--module=B:a=0", "--deg-range=1..0"], "empty --deg-range 1..0"),
    (["module-check", "--module=B:a=0", "--label-range=0..-1"], "empty --label-range 0..-1"),
    (["support", "--module=A:a=0,b=0", "--window=1..0"], "empty window (1, 0)"),
])
def test_an_empty_range_exits_2_with_an_error_line(capsys, args, message):
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_empty_range_from_the_library_entry_exits_2(capsys):
    assert execute(RunConfig("jacobi", deg_range=(2, 0))) == 2
    assert capsys.readouterr() == ("", "error: empty --range 2..0\n")


# the options each command's parser requires; every other one is left out
_REQUIRED = {command: {"module": "B:a=0"}
             for command in ("module-check", "catalog", "simple", "structure", "loop-dims")}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_an_omitted_option_takes_its_run_config_default(command):
    required = _REQUIRED.get(command, {})
    args = build_parser().parse_args([command] + [f"--{k}={v}" for k, v in required.items()])
    assert config_from_args(args) == RunConfig(command, **required)


def test_determinism_byte_identical_files(tmp_path):
    out, csv = tmp_path / "report.json", tmp_path / "dims.csv"
    args = ["verma", "--lamd", "1/2", "--mu", "2", "--c", "0", "--depth", "3",
            "--emit", str(csv), "--out", str(out)]
    assert run(args) == 0
    first = (out.read_bytes(), csv.read_bytes())
    assert run(args) == 0
    assert (out.read_bytes(), csv.read_bytes()) == first
    mout = tmp_path / "match.json"
    margs = ["match", "--module", "loop:lambda=1,a=1/2,b=1/3",
             "--scramble-seed", "3", "--out", str(mout)]
    assert run(margs) == 0
    mfirst = mout.read_bytes()
    assert run(margs) == 0
    assert mout.read_bytes() == mfirst


def test_run_config_round_trip():
    parser = build_parser()
    args = parser.parse_args(["match", "--module", "loop:lambda=1,a=0,b=0",
                              "--window=-3..3", "--scramble-seed", "9"])
    config = config_from_args(args)
    assert config == RunConfig(command="match", module="loop:lambda=1,a=0,b=0",
                               window=(-3, 3), scramble_seed=9)
    assert execute(config) == 0


def test_witness_report_at_depth_4_is_pinned(tmp_path):
    # north-star size (1476 monomials, default charge): tall, very sparse
    # kernel stacks; the sha256 is that of the report before the stacks
    # became sparse rows eliminated sparsest first
    out = tmp_path / "witness.json"
    assert main(["witness", "--lamd=1/2", "--mu=2", "--c=0", "--depth=4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3da5c14121019268b5352292386b18a633711731eac40cda2fbfa5a95d11859d")


@pytest.mark.parametrize("args, digest", [
    # both computed before kill-set operators were read one at a time with a
    # full-rank certificate mod p; the singular report has four singular
    # vectors, so cells the certificate cannot settle take the exact path
    (["witness", "--lamd=1/2", "--mu=2", "--c=0", "--depth=5"],
     "17ad2ebaaa1f3d154b6c159d348e767531a0adde03fb6239bda73297f901dfc6"),
    (["singular", "--lamd=1/2", "--mu=1", "--c=2", "--depth=5"],
     "a4d74ab2b6faf3114c1d45717f0dde385e4e3abceb64a3789a68021812d96764"),
], ids=["witness-depth-5", "singular-depth-5"])
def test_reports_across_the_certified_early_exit_are_pinned(tmp_path, args, digest):
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    report = out.read_bytes()
    if args[0] == "singular":
        assert len(json.loads(report)["singular_vectors"]) == 4
    assert hashlib.sha256(report).hexdigest() == digest


def test_injectivity_at_a_huge_shift_stays_small():
    # the export is as wide as the shift; building only what the query
    # reads keeps a 10^9 shift within 512 MB of address space and 30 s
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))

    src = str(Path(avw.__file__).resolve().parent.parent)
    code = "import sys; from avw.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "injectivity", "--lamd=1/2", "--mu=0", "--c=0",
         "--depth=2", "--k=0", "--i=1000000000"],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
        capture_output=True, text=True, timeout=30)
    assert done.returncode in (0, 2), done.stderr
    assert "Traceback" not in done.stderr
    if done.returncode == 0:
        report = json.loads(done.stdout)
        assert (report["i"], report["dimV_k"]) == (10 ** 9, 6)


@pytest.mark.parametrize("args", [
    ["witness", "--module=A:a=1/2,b=1/3"],
    ["injectivity", "--module=loop:lambda=2,a=1/2,b=1/3", "--k=0", "--i=1"],
], ids=["witness", "injectivity"])
def test_wide_catalog_windows_build_only_the_blocks_they_read(args):
    # a catalog window makes a block when a query first reads it, so at
    # half-width 200 these read a few blocks per offset and stay under
    # 200 MB; the O(W^2) list of block keys (about 90 MB here) remains
    src = str(Path(avw.__file__).resolve().parent.parent)
    code = ("import resource, sys; from avw.cli import main; status = main(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
            "sys.exit(status)")
    done = subprocess.run(
        [sys.executable, "-c", code, *args, "--window=-200..200"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == args[0]
    assert int(done.stderr) < 200 * 1024  # ru_maxrss is in KiB on Linux


def test_catalog_window_over_the_sweep_cap_exits_2_before_listing_blocks():
    # 4 families x 200001^2 block keys: counted, not listed, so the window
    # exits 2 within 1 GiB of address space instead of exhausting memory
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    src = str(Path(avw.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != MAX_SWEEP_ENV}
    code = "import sys; from avw.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "witness", "--module=A:a=1/2,b=1/3",
         "--window=-100000..100000"],
        env={**env, "PYTHONPATH": src}, preexec_fn=limit,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{4 * 200001 ** 2} window blocks, over the cap {DEFAULT_MAX_SWEEP}" in done.stderr
    assert MAX_SWEEP_ENV in done.stderr


def _run_limited(args, address_space, timeout=60):
    """Run the CLI on args in a child limited to address_space bytes, with
    the default sweep cap."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(avw.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != MAX_SWEEP_ENV}
    code = "import sys; from avw.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], env={**env, "PYTHONPATH": src},
                          preexec_fn=limit, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("args", [
    ["module-check", "--module=loop:lambda=1000000000,a=0,b=0", "--deg-range=0..0",
     "--label-range=0..0"],
    ["support", "--module=loop:lambda=100000000,a=0,b=0", "--window=0..0"],
    ["loop-dims", "--module=loop:lambda=100000000,a=0,b=0", "--window=0..0"],
    ["catalog", "--module=loop:lambda=1500,a=0,b=0", "--window=0..0"],
], ids=["module-check", "support", "loop-dims", "catalog"])
def test_huge_loop_lambda_is_counted_not_listed(args):
    # the labels per offset (catalog.offset_dim), a window's basis and the
    # dense sl2 printout are counted against the sweep cap before any is
    # listed, so each exits 2 within 1 GiB of address space
    done = _run_limited(args, 2 ** 30)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert MAX_SWEEP_ENV in done.stderr


@pytest.mark.parametrize("args", [
    ["witness", "--module=loop:lambda=10000,a=0,b=0", "--window=0..0"],
    ["module-check", "--module=loop:lambda=3000,a=0,b=0", "--deg-range=0..0",
     "--label-range=0..0"],
], ids=["witness", "module-check"])
def test_loop_action_holds_no_dense_sl2_matrices(args):
    # act_basis reads each sl2 coefficient in closed form, so a large lambda
    # costs O(lambda) state, not three (lambda+1)^2 matrices, within 256 MB
    done = _run_limited(args, 256 * 2 ** 20)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == args[0]


@pytest.mark.parametrize("args", [
    ["verma", "--lamd=0", "--mu=0", "--c=0", "--depth=1000000"],
    ["singular", "--lamd=0", "--mu=0", "--c=0", "--depth=2", "--charge=1000000000"],
], ids=["depth", "charge"])
def test_huge_depth_or_charge_meets_the_factor_cap_at_once(args):
    # cells are counted only up to the first one over the factor cap, so a
    # huge bound exits 2 within 512 MB of address space and 30 s
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))

    src = str(Path(avw.__file__).resolve().parent.parent)
    code = "import sys; from avw.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
        capture_output=True, text=True, timeout=30)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ("error: monomial exceeds the factor cap 24; "
                           "raise max_factors to build this cell\n")


@pytest.mark.parametrize("args, digest", [
    # the singular search stacked dense cell matrices before its stacks
    # became sparse rows built from pair columns
    (["singular", "--lamd=1/2", "--mu=2", "--c=0", "--depth=6"],
     "31f2ee0aea4806a6c1675468c55726d8b6aa10fd81797e2331d0376280e1a634"),
    # the printed blocks were the stored dense columns before columns became
    # (row, coeff) pairs
    (["catalog", "--module=loop:lambda=2,a=1/2,b=1/3", "--window=-2..2", "--matrices"],
     "52d9ced763ac050e55e05baa37a966db04987ee995a44261b9fd0c402bcf8332"),
    # match built a reference window per candidate and paired its basis
    # with the observed one before it checked candidates against the action
    (["match", "--module=loop:lambda=0,a=1/3,b=6/5", "--window=-12..12", "--scramble-seed=3"],
     "41e59fcf15081031c5234a195252a7453c61ba04d8ae9738ddf942ef5c18f761"),
    (["match", "--module=loop:lambda=2,a=1/2,b=1/3", "--window=-10..10", "--scramble-seed=3"],
     "fe3c7f6f558cb115d9acdd278fd8ee173880e1348d2e28f87ec4868ae01fa67f"),
    (["match", "--module=loop:lambda=0,a=0,b=0", "--window=-5..5"],
     "cdc2e30dc03c041bb31dd9c1f4daebc21c585f9282c44d3855585be689db6b32"),
    (["match", "--module=loop:lambda=0,a=0,b=1", "--window=-5..5"],
     "e1f3892a35db4d86d9552fd3243449db23536104de5ceebc0834073cb2de7061"),
    (["match", "--module=loop:lambda=0,a=1/2,b=0", "--window=-5..5"],
     "7e0786e6555a8e6a359db9c1d884506c3ae733c7870b41ec828fb4dd01bde21a"),
    (["match", "--module=loop:lambda=0,a=1/2,b=1", "--window=-5..5", "--scramble-seed=2"],
     "f10c79b13ea787c1362d89ece534dbf6e6dbff4958243a926988c226629ff058"),
    (["match", "--module=A:a=0,b=0", "--scramble-seed=5"],
     "b7d2148bce1df5b482956b426e00cb3a327b31f5715ed634868e697a04f56d10"),
    (["match", "--module=B:a=3", "--window=-4..4"],
     "b9dd31eb3be2eb72ad96a70ae5e3125137f96d313410416de34d9602930a8086"),
], ids=["singular-depth-6", "catalog-matrices", "match-lambda-0-wide", "match-lambda-2-wide",
        "match-b-0", "match-b-1", "match-several-verify", "match-several-verify-scrambled",
        "match-vir-only", "match-no-match"])
def test_reports_across_the_column_shape_change_are_pinned(tmp_path, args, digest):
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_highest_weight_exports_are_pinned(capsys):
    # one sha256 over the exit code, stdout and stderr of each command,
    # computed when every highest-weight export held all degrees up to its
    # window top rather than only the degrees its command reads
    hw = ["--lamd=1/2", "--mu=2", "--c=0", "--depth=3"]
    commands = [["injectivity", *hw, f"--k={k}", f"--i={i}"]
                for k in range(-3, 1) for i in range(-4, 5)]
    commands += [["witness", *hw], ["support", *hw], ["match", *hw, "--scramble-seed=5"]]
    digest = hashlib.sha256()
    for args in commands:
        code = main(args)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}\n{captured.err}\n".encode())
    assert digest.hexdigest() == (
        "5833f7c824536a81f2f72c2706eeb0bc5e440469922dbe4318946a1cdb876f96")


CATALOG_SWEEP_SPECS = (
    "A:a=1/2,b=1/3", "A:a=0,b=1", "A2:a=1/2", "A2:a=0", "B:a=2/3", "B:a=-1",
    "H:a=1/3,b=1/2,c=2", "H:a=0,b=0,c=0", "T2:a=1/2,b=2/3,c=1", "T2:a=0,b=1,c=0",
    "T2corrupt:a=1/2,b=1/3,c=1", "loop:lambda=0,a=1/3,b=6/5",
    "loop:lambda=1,a=0,b=0", "loop:lambda=2,a=1/2,b=1/3")


def test_catalog_windows_are_pinned(capsys):
    # one sha256 over the exit code, stdout and stderr of 140 catalog-window
    # commands, every kind through every window command; computed while the
    # window families were still a second table keyed by the algebra's name
    # and witnesses were a result type of their own
    commands = []
    for spec in CATALOG_SWEEP_SPECS:
        m = f"--module={spec}"
        commands += [["catalog", m], ["catalog", m, "--matrices"], ["witness", m],
                     ["support", m], ["loop-dims", m], ["injectivity", m],
                     ["injectivity", m, "--k=1", "--i=-2"], ["match", m],
                     ["match", m, "--scramble-seed=5"], ["module-check", m]]
    assert len(commands) == 140
    digest = hashlib.sha256()
    for args in commands:
        code = main(args)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}\n{captured.err}\n".encode())
    assert digest.hexdigest() == (
        "c23ed0a9015d0d609670c261c6804113a410a5cb7c6e8c8294a801233679dc79")


def _fuzz_command(rng):
    """A random command line of one catalog-window command; its window's
    width q - p + 1 runs from -1 to 8, so some windows are empty."""
    tag = rng.choice(sorted(KINDS))
    values = ",".join(
        f"{key}={rng.randint(-1, 3) if key == 'lambda' else F(rng.randint(-4, 4), rng.randint(1, 3))}"
        for key in spec_keys(KINDS[tag]))
    cmd = rng.choice(("match", "witness", "support", "injectivity", "catalog", "loop-dims"))
    width, p = rng.randint(-1, 8), rng.randint(-4, 4)
    args = [cmd, f"--module={tag}:{values}", f"--window={p}..{p + width - 1}"]
    if cmd == "match" and rng.random() < 0.5:
        args.append(f"--scramble-seed={rng.randint(0, 99)}")
    if cmd == "injectivity":
        args += [f"--k={rng.randint(-5, 5)}", f"--i={rng.randint(-3, 3)}"]
    if cmd == "catalog" and rng.random() < 0.5:
        args.append("--matrices")
    return args


def test_catalog_window_commands_survive_a_seeded_fuzz(capsys):
    # random specs of every kind, windows, scramble seeds and (k, i): each
    # command exits 0, 1 or 2 with no exception, and exit 2 says why on
    # stderr in an error line, an empty window too
    rng = random.Random(0)
    for _ in range(300):
        args = _fuzz_command(rng)
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (args, err)
        if code == 2:
            assert err.startswith("error: "), (args, err)


def test_internal_defect_exits_3_and_usage_error_still_exits_2(monkeypatch, capsys):
    # plant a defect in the action: e_0 no longer kills the highest-weight
    # vector, so the image lands in the weight-empty cell (0, -1)
    real = avw.verma.TruncatedModule.apply_gen

    def apply_gen(module, g, mono):
        return {(): 1} if (g, mono) == (e(0), ()) else real(module, g, mono)

    monkeypatch.setattr(avw.verma.TruncatedModule, "apply_gen", apply_gen)
    args = ["singular", "--lamd=1/2", "--mu=2", "--c=0", "--depth=2"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: nonzero image of e_0 from cell (0, 0) "
                            "in the weight-empty cell (0, -1)\n")
    # a defect inside a search the witness report would otherwise mark as
    # not searchable
    def planted(wm, direction="highest"):
        raise InternalError("planted defect")

    monkeypatch.setattr(avw.windows, "find_extremal_vectors", planted)
    assert main(["witness", "--module=A:a=0,b=0"]) == 3
    assert capsys.readouterr() == ("", "internal error: planted defect\n")
    assert main(["singular", "--lamd=1/2", "--mu=2", "--depth=2"]) == 2
    assert capsys.readouterr().err == (
        "error: --lamd, --mu and --c are all required (at position 0)\n")


def test_sl2_sweep_lists_only_its_degrees():
    # Sl2's families hold degree 0 alone, so the generators are listed from
    # those degrees, not by walking the range: a range of 2 * 10^12 + 1
    # degrees sweeps 27 triples at once
    done = _run_limited(["jacobi", "--algebra=Sl2", "--range=-1000000000000..1000000000000"],
                        512 * 2 ** 20, timeout=30)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["generators"] == 3


def test_help_text_is_pinned(monkeypatch):
    # one sha256 over the help text of avw and of its 12 commands at 80
    # columns (Python 3.11's argparse layout), computed before the options
    # and report header shared by several commands were each declared once
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert len(commands) == 12
    texts = [parser.format_help()] + [p.format_help() for p in commands.values()]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "7d2e2dac7b63f80d2c9c217c5db7cb28935b8ece26d2a7cb47db3235ad532ccf")


def test_python_m_avw_cli_writes_nothing_to_stderr():
    # importing the package must not import avw.cli, or runpy warns that
    # 'avw.cli' is already in sys.modules before running it as __main__
    src = str(Path(avw.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "avw.cli", "support", "--module=A:a=1/2,b=1/3"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""


@pytest.mark.parametrize("argv, merged", [
    (["jacobi", "--range", "-5..5"], ["jacobi", "--range=-5..5"]),
    (["--k", "-1", "--i", "-2"], ["--k=-1", "--i=-2"]),
    (["--lamd", "--mu", "-1"], ["--lamd=--mu", "-1"]),
    (["verma", "--c", "0", "--mu"], ["verma", "--c", "0", "--mu"]),
    (["witness", "--module", "-x"], ["witness", "--module", "-x"]),
], ids=["range", "k-and-i", "flag-after-value-flag", "trailing-flag", "module"])
def test_merge_dash_values_folds_dash_leading_values(argv, merged):
    assert _merge_dash_values(argv) == merged
