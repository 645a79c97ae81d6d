"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every check is exact (zero tolerance) rational arithmetic.
"""

from fractions import Fraction as F

from avw.algebra import FULL, bracket_gens, e, f, h, jacobi_defect
from avw.catalog import (HVirABC, IntA, IntAB, IntB, LoopMod, T2Corrupt, T2Mod,
                         acting_algebra, is_simple, module_defect, spec_text)
from avw.cli import main
from avw.linalg import Vec
from avw.verma import HighestWeight, build_verma
from avw.windows import (catalog_match, stacked_shift_injectivity, from_catalog,
                         from_verma, scramble_window, submodule_witness)

from test_verma import brute_dim


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_lie_algebra_validity():
    gens = list(FULL.generators(-5, 5))
    anti = 0
    for x in gens:
        for y in gens:
            if bracket_gens(x, y) + bracket_gens(y, x):
                anti += 1
    jac = 0
    for x in gens:
        for y in gens:
            for z in gens:
                if jacobi_defect(x, y, z):
                    jac += 1
    report(1, anti == 0 and jac == 0,
           f"0 antisymmetry defects / {len(gens) ** 2} pairs and "
           f"0 Jacobi defects / {len(gens) ** 3} triples on degrees [-5,5] "
           f"(got {anti} / {jac})")


CATALOG_SWEEP = [
    IntAB(F(1, 2), F(1, 3)), IntAB(F(0), F(0)), IntAB(F(0), F(1)),
    IntA(F(3)), IntB(F(0)),
    HVirABC(F(0), F(0), F(5)), T2Mod(F(0), F(0), F(1)),
] + [LoopMod(lam, a, b)
     for lam in (0, 1, 2)
     for (a, b) in ((F(0), F(0)), (F(1, 2), F(1, 3)))]


def _labels(spec, lo, hi):
    if isinstance(spec, LoopMod):
        return [(k, i) for i in range(lo, hi + 1) for k in range(spec.lam + 1)]
    return list(range(lo, hi + 1))


def test_criterion_2_catalog_module_axioms():
    total = bad = 0
    for spec in CATALOG_SWEEP:
        gens = list(acting_algebra(spec).generators(-4, 4))
        labels = _labels(spec, -4, 4)
        for x in gens:
            for y in gens:
                for lab in labels:
                    total += 1
                    if module_defect(spec, x, y, Vec.basis(lab)):
                        bad += 1
    report(2, bad == 0,
           f"module axiom holds exhaustively on {len(CATALOG_SWEEP)} catalog "
           f"modules, degrees [-4,4], labels [-4,4] ({total} checks, {bad} defects)")


def test_criterion_3_corrupted_t2_necessity_witness():
    dft = module_defect(T2Corrupt(F(0), F(0), F(1)), h(1), e(1), Vec.basis(0))
    ok = dft == Vec({2: 2})
    report(3, ok, f"corrupted e-action defect(h_1, e_1, v_0) = 2*v_2 exactly "
                  f"(got {dict(dft.terms)})")


def test_criterion_4_loop_module_dimensions():
    ok = True
    for lam in range(5):
        for (a, b) in ((F(0), F(0)), (F(1, 2), F(1, 3))):
            wm = from_catalog(LoopMod(lam, a, b), (-4, 4))
            if any(wm.dim(k) != lam + 1 for k in wm.offsets()):
                ok = False
    report(4, ok, "every d0-weight space of LoopMod(lam,a,b) on [-4,4] has "
                  "dimension lam+1 for lam <= 4")


def test_criterion_5_stacked_map_injectivity():
    ok = True
    details = []
    for spec in (LoopMod(1, F(1, 2), F(1, 3)), LoopMod(2, F(1, 4), F(0))):
        wm = from_catalog(spec, (-2, 5))
        for k in range(-2, 3):
            for i in (1, 2):
                rep = stacked_shift_injectivity(wm, k, i)
                if rep.kernel_dim != 0:
                    ok = False
                    details.append((spec_text(spec), k, i, rep.kernel_dim))
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 3)
    wm = from_verma(m)
    top_ok = True
    for i in (1, 2):
        rep = stacked_shift_injectivity(wm, 0, i)
        if not (rep.kernel_dim == rep.dim_source > 0):
            top_ok = False
    report(5, ok and top_ok,
           "stacked map injective on simple loop modules at k in [-2,2], "
           "i in {1,2}; kernel is the whole top slice of a highest-weight "
           f"truncation (degenerate direction){details or ''}")


def test_criterion_6_verma_dimension_oracle():
    hw = HighestWeight.of(F(1, 2), F(1, 3), F(7, 5))
    m = build_verma(hw, 6, 6)
    ok = m.weight_space_dim(1, 0) == 3 and m.weight_space_dim(1, 1) == 4
    mismatches = []
    for n in range(7):
        for s in range(-6, 7):
            got = m.weight_space_dim(n, s) if s >= -n else 0
            want = brute_dim(n, s)
            if got != want:
                ok = False
                mismatches.append((n, s, got, want))
    report(6, ok, "weight-space dimensions agree with the independent "
                  "exponent-tuple enumeration for depth <= 6, charge <= 6; "
                  f"(1,0)->3 and (1,1)->4 {mismatches or ''}")


def test_criterion_7_singular_vectors():
    m2 = build_verma(HighestWeight.of(F(3, 7), F(2), F(5, 3)), 2)
    cells2 = {(sv.depth, sv.charge): sv for sv in m2.find_singular_vectors(0)}
    ok = set(cells2) == {(0, 0), (0, 3)}
    ok = ok and cells2[(0, 3)].vector() == Vec.basis((f(0),) * 3)
    m3 = build_verma(HighestWeight.of(F(3, 7), F(1, 3), F(5, 3)), 2)
    cells3 = {(sv.depth, sv.charge) for sv in m3.find_singular_vectors(0)}
    ok = ok and cells3 == {(0, 0)}
    report(7, ok, "mu=2 yields exactly f_0^3 v at (0,3) beyond the "
                  "highest-weight line at depth 0; mu=1/3 only the "
                  f"highest-weight line (got {sorted(cells2)} / {sorted(cells3)})")


def test_criterion_8_simplicity_table_and_witnesses():
    ok = True
    for a in (F(0), F(1, 2)):
        for b in (F(0), F(1, 3)):
            for c in (F(0), F(5)):
                expect = (a.denominator != 1) or (b not in (0, 1)) or (c != 0)
                if is_simple(HVirABC(a, b, c)).simple != expect:
                    ok = False
    for lam in (0, 1):
        for (a, b) in ((F(0), F(0)), (F(1, 2), F(1, 3))):
            expect = (lam >= 1) or (a.denominator != 1) or (b not in (0, 1))
            if is_simple(LoopMod(lam, a, b)).simple != expect:
                ok = False
    for spec in (IntAB(F(0), F(0)), IntB(F(0)), IntB(F(7))):
        rep = submodule_witness(from_catalog(spec, (-3, 3)))
        if not (len(rep.witnesses) == 1 and rep.witnesses[0].offset == 0
                and rep.witnesses[0].coefficients == (1,)):
            ok = False
    for spec in (IntAB(F(1, 2), F(1, 3)), HVirABC(F(0), F(0), F(5)),
                 LoopMod(1, F(0), F(0))):
        if submodule_witness(from_catalog(spec, (-3, 3))).witnesses:
            ok = False
    report(8, ok, "simplicity criteria reproduce the 8-case h-extension grid "
                  "and the loop-module grid; span{v_0} is the only witness in "
                  "the reducible cases and none exists in the simple ones")


def test_criterion_9_round_trip_identification():
    ok = True
    got = []
    for lam in (0, 1, 2):
        for (a, b) in ((F(0), F(0)), (F(1, 2), F(1, 3))):
            wm = from_catalog(LoopMod(lam, a, b), (-3, 3))
            res = catalog_match(scramble_window(wm, seed=7000 + 10 * lam))
            got.append(spec_text(res.spec) if res.spec else "NoMatch")
            if res.spec != LoopMod(lam, a, b):
                ok = False
    report(9, ok, f"catalog_match recovers all six scrambled loop modules on "
                  f"[-3,3]: {got}")


def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for _ in range(2):
        out = tmp_path / "verma.json"
        csv = tmp_path / "dims.csv"
        assert main(["verma", "--lamd", "1/2", "--mu", "2", "--c", "0",
                     "--depth", "3", "--emit", str(csv), "--out", str(out)]) == 0
        inj = tmp_path / "inj.json"
        assert main(["injectivity", "--module", "loop:lambda=1,a=1/2,b=1/3",
                     "--k", "0", "--i", "1", "--out", str(inj)]) == 0
        mat = tmp_path / "match.json"
        assert main(["match", "--module", "loop:lambda=2,a=1/2,b=1/3",
                     "--scramble-seed", "13", "--out", str(mat)]) == 0
        outputs.append((out.read_bytes(), csv.read_bytes(),
                        inj.read_bytes(), mat.read_bytes()))
    report(10, outputs[0] == outputs[1],
           "repeated CLI runs with identical configs are byte-identical "
           "(verma CSV+JSON, injectivity, scrambled match)")
