from fractions import Fraction as F

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from avw.algebra import C, Gen, bracket_gens, d, e, f, h
from avw.catalog import (DefectMemo, HVirABC, IntA, IntAB, IntB, LoopMod, T2Corrupt, T2Mod,
                         _sl2_image, act, act_basis, acting_algebra,
                         canonicalize, is_simple, label_str, module_defect, offset_dim,
                         offset_labels, sl2_irrep, spec_text, structure_report, weight_of)
from avw.errors import (GeneratorOutsideAlgebra, InternalError,
                        NegativeHighestWeight)
from avw.linalg import Vec
from linalg_helpers import map_keys, mat_mul, mat_sub

ALL_TEST_SPECS = [
    IntAB(F(1, 2), F(1, 3)),
    IntAB(F(0), F(0)),
    IntAB(F(0), F(1)),
    IntA(F(3)),
    IntB(F(0)),
    HVirABC(F(0), F(0), F(5)),
    T2Mod(F(0), F(0), F(1)),
    LoopMod(0, F(0), F(0)),
    LoopMod(1, F(1, 2), F(1, 3)),
    LoopMod(2, F(1, 2), F(1, 3)),
]


def test_act_examples():
    assert act(IntAB(F(1, 2), F(1, 3)), d(2), Vec.basis(0)) == Vec({2: F(7, 6)})
    assert act(IntA(F(3)), d(2), Vec.basis(0)) == Vec({2: 10})
    assert act(IntB(F(0)), d(1), Vec.basis(-1)) == Vec({0: -1})
    assert not act(T2Mod(F(0), F(0), F(5)), e(3), Vec.basis(2))
    assert act(LoopMod(1, F(1, 2), F(1, 3)), e(2), Vec.basis((1, 0))) == Vec({(0, 2): 1})
    assert not act(LoopMod(1, F(0), F(0)), d(3), Vec.basis((0, 0)))


def test_act_central_and_linearity():
    spec = LoopMod(1, F(1, 2), F(1, 3))
    assert not act(spec, C, Vec.basis((0, 0)))
    v = Vec({(0, 0): 2, (1, 1): F(1, 3)})
    lhs = act(spec, h(1), v)
    rhs = act(spec, h(1), Vec.basis((0, 0))).scaled(2) \
        + act(spec, h(1), Vec.basis((1, 1))).scaled(F(1, 3))
    assert lhs == rhs


def test_act_outside_algebra():
    with pytest.raises(GeneratorOutsideAlgebra):
        act(IntAB(F(0), F(0)), e(1), Vec.basis(0))
    with pytest.raises(GeneratorOutsideAlgebra):
        act(HVirABC(F(0), F(0), F(1)), f(0), Vec.basis(0))
    with pytest.raises(GeneratorOutsideAlgebra):
        act(T2Mod(F(0), F(0), F(1)), f(2), Vec.basis(0))


def test_sl2_irrep_lambda0():
    rep = sl2_irrep(0)
    assert rep.e_mat == ((0,),) and rep.f_mat == ((0,),) and rep.h_mat == ((0,),)


def test_sl2_irrep_lambda1_ladder():
    rep = sl2_irrep(1)
    assert rep.h_mat == ((1, 0), (0, -1))
    assert rep.e_mat == ((0, 1), (0, 0))
    assert rep.f_mat == ((0, 0), (1, 0))


def test_sl2_irrep_lambda2_normalization():
    rep = sl2_irrep(2)
    # e.u_2 = 2 u_1
    assert rep.e_mat[1][2] == 2


def test_sl2_irrep_negative():
    with pytest.raises(NegativeHighestWeight):
        sl2_irrep(-1)


@pytest.mark.parametrize("lam", range(9))
def test_sl2_irrep_relations_exact(lam):
    rep = sl2_irrep(lam)
    em, fm, hm = [list(map(list, m)) for m in (rep.e_mat, rep.f_mat, rep.h_mat)]
    comm = lambda a, b: mat_sub(mat_mul(a, b), mat_mul(b, a))
    assert comm(hm, em) == [[2 * x for x in row] for row in em]
    assert comm(hm, fm) == [[-2 * x for x in row] for row in fm]
    assert comm(em, fm) == hm


def _labels(spec, lo, hi):
    if isinstance(spec, LoopMod):
        return [(k, i) for i in range(lo, hi + 1) for k in range(spec.lam + 1)]
    return list(range(lo, hi + 1))


@pytest.mark.parametrize("spec", ALL_TEST_SPECS, ids=spec_text)
def test_module_axiom_small_sweep(spec):
    gens = list(acting_algebra(spec).generators(-2, 2))
    for x in gens:
        for y in gens:
            for lab in _labels(spec, -2, 2):
                assert not module_defect(spec, x, y, Vec.basis(lab)), (x, y, lab)


def test_module_defect_central_term_cancellation():
    # [e_1, f_-1] = h_0 + C: the central summand must contribute nothing
    # because C acts as zero on every catalog module
    spec = LoopMod(2, F(1, 4), F(1, 5))
    for k in range(3):
        for i in range(-2, 3):
            assert not module_defect(spec, e(1), f(-1), Vec.basis((k, i)))


def test_corrupted_t2_defect_witness():
    # e_n v_i = v_{n+i} with c = 1 breaks [h_1, e_1] = 2 e_2 by exactly 2 v_2
    spec = T2Corrupt(F(0), F(0), F(1))
    assert module_defect(spec, h(1), e(1), Vec.basis(0)) == Vec({2: 2})


def test_corrupted_t2_rejects_simplicity_queries():
    with pytest.raises(ValueError):
        is_simple(T2Corrupt(F(0), F(0), F(1)))


def test_is_simple_examples():
    assert is_simple(IntAB(F(1, 2), F(1, 3))).simple
    v = is_simple(IntAB(F(0), F(0)))
    assert not v.simple and "submodule" in v.reason
    assert is_simple(HVirABC(F(0), F(0), F(5))).simple
    assert not is_simple(LoopMod(0, F(0), F(0))).simple
    assert is_simple(LoopMod(1, F(0), F(0))).simple
    assert not is_simple(IntA(F(3))).simple
    assert not is_simple(IntB(F(7))).simple


def test_is_simple_canonicalizes_a_mod_1():
    # a = 7 is the same module as a = 0 up to relabeling
    assert not is_simple(IntAB(F(7), F(0))).simple
    assert is_simple(IntAB(F(-3, 2), F(0))).simple  # a = 1/2 after reduction
    assert canonicalize(IntAB(F(7), F(0))) == IntAB(F(0), F(0))
    assert canonicalize(LoopMod(1, F(-3, 2), F(1))) == LoopMod(1, F(1, 2), F(1))
    assert canonicalize(HVirABC(F(5, 2), F(1), F(3))) == HVirABC(F(1, 2), F(1), F(3))
    assert canonicalize(T2Mod(F(-1), F(2), F(1))) == T2Mod(F(0), F(2), F(1))
    assert canonicalize(T2Corrupt(F(7, 3), F(0), F(1))) == T2Corrupt(F(1, 3), F(0), F(1))


def test_structure_report_examples():
    rep = structure_report(IntAB(F(0), F(0)))
    assert (rep.trivial_line, rep.line_role) == ("v_0", "submodule")
    assert rep.simple_subquotient == "A'(0,0)"
    rep = structure_report(IntAB(F(0), F(1)))
    assert (rep.trivial_line, rep.line_role) == ("v_0", "quotient")
    rep = structure_report(IntB(F(7)))
    assert (rep.trivial_line, rep.line_role) == ("v_0", "submodule")
    rep = structure_report(IntA(F(3)))
    assert (rep.trivial_line, rep.line_role) == ("v_0", "quotient")
    assert structure_report(IntAB(F(1, 2), F(1, 3))).simple
    rep = structure_report(LoopMod(0, F(0), F(0)))
    assert (rep.trivial_line, rep.line_role) == ("u0*t^0", "submodule")


def test_structure_report_shifted_a_names_the_right_line():
    # IntAB(3, 0): the annihilated line sits where a + i = 0, i.e. v_{-3}
    rep = structure_report(IntAB(F(3), F(0)))
    assert (rep.trivial_line, rep.line_role) == ("v_-3", "submodule")
    v = act(IntAB(F(3), F(0)), d(5), Vec.basis(-3))
    assert not v


def test_trivial_lines_are_annihilated():
    for spec, line in [(IntAB(F(0), F(0)), 0), (IntB(F(7)), 0),
                       (LoopMod(0, F(0), F(0)), (0, 0))]:
        for g in acting_algebra(spec).generators(-4, 4):
            assert not act(spec, g, Vec.basis(line)), (spec, g)


def test_shift_isomorphism_relabeling():
    # v_i -> v_{i+1} carries IntAB(a+1, b) onto IntAB(a, b)
    a, b = F(1, 2), F(1, 3)
    up, down = IntAB(a + 1, b), IntAB(a, b)
    for m in range(-4, 5):
        for i in range(-4, 5):
            lhs = act(down, d(m), Vec.basis(i + 1))
            rhs = map_keys(act(up, d(m), Vec.basis(i)), lambda j: j + 1)
            assert lhs == rhs, (m, i)


@pytest.mark.parametrize("spec", ALL_TEST_SPECS, ids=spec_text)
def test_weight_compatibility(spec):
    gens = list(acting_algebra(spec).generators(-3, 3))
    for g in gens:
        for lab in _labels(spec, -2, 2):
            d0, h0 = weight_of(spec, lab)
            img = act_basis(spec, g, lab)
            for lab2, _ in img:
                d2, h2 = weight_of(spec, lab2)
                assert d2 == d0 + g.degree, (g, lab)
                if g.family == "e":
                    assert h2 == h0 + 2
                elif g.family == "f":
                    assert h2 == h0 - 2
                else:
                    assert h2 == h0


def test_loop_weight_labels():
    spec = LoopMod(2, F(1, 2), F(0))
    assert weight_of(spec, (0, 3)) == (F(7, 2), 2)
    assert weight_of(spec, (2, 0)) == (F(1, 2), -2)
    assert label_str(spec, (1, -3)) == "u1*t^-3"


def test_spec_text():
    assert spec_text(IntAB(F(1, 2), F(1, 3))) == "A:a=1/2,b=1/3"
    assert spec_text(IntA(F(3))) == "A2:a=3"
    assert spec_text(LoopMod(1, F(1, 2), F(1, 3))) == "loop:lambda=1,a=1/2,b=1/3"
    assert spec_text(T2Corrupt(F(0), F(0), F(1))) == "T2corrupt:a=0,b=0,c=1"


def test_sl2_image_rejects_non_sl2_family():
    # a d- or C-generator reaching the sl2 part is a bug in act_basis, not
    # a usage error
    with pytest.raises(InternalError) as err:
        _sl2_image(LoopMod(1, F(0), F(0)), "d", 0)
    assert not isinstance(err.value, ValueError)


@pytest.mark.parametrize("lam", [0, 1, 4])
def test_sl2_image_is_the_irrep_in_closed_form(lam):
    # x.u_k is one term: e.u_0 and f.u_lam have coefficient 0, so act_basis
    # gives the zero vector there
    spec = LoopMod(lam, F(0), F(0))
    assert _sl2_image(spec, "e", 0) == (-1, 0)
    assert _sl2_image(spec, "f", lam) == (lam + 1, 0)
    for g in (e(3), f(3)):
        assert act_basis(spec, g, (0 if g.family == "e" else lam, 2)) == Vec()
    for k in range(lam + 1):
        for fam in "efh":
            target, coeff = _sl2_image(spec, fam, k)
            assert type(coeff) is int
            assert act_basis(spec, Gen(fam, 1), (k, 0)) == (
                Vec({(target, 1): coeff}) if coeff else Vec())


@pytest.mark.parametrize("spec", ALL_TEST_SPECS, ids=spec_text)
def test_offset_dim_counts_the_labels_of_an_offset(spec):
    assert offset_dim(spec) == len(offset_labels(spec, -2)) == len(offset_labels(spec, 5))


# Oracle: the Vec-based module_defect that builds one Vec per action, kept as
# it was before the memoized, dict-summing version.

def oracle_act_element(spec, x, v):
    out = Vec()
    for g, coeff in x:
        out = out + act(spec, g, v).scaled(coeff)
    return out


def oracle_module_defect(spec, x, y, v):
    return (oracle_act_element(spec, bracket_gens(x, y), v)
            - act(spec, x, act(spec, y, v))
            + act(spec, y, act(spec, x, v)))


ORACLE_SPECS = [
    (IntAB(F(1, 3), F(-2, 5)), 3),
    (IntAB(F(2), F(1)), 3),
    (IntA(F(-1, 3)), 3),
    (IntB(F(4, 3)), 3),
    (HVirABC(F(-1, 3), F(3, 5), F(2, 7)), 3),
    (T2Mod(F(5, 3), F(1, 5), F(-4, 7)), 3),
    (T2Corrupt(F(1, 3), F(2, 5), F(1, 7)), 3),
    (T2Corrupt(F(0), F(0), F(1)), 3),
    (LoopMod(0, F(1, 3), F(2, 5)), 3),
    (LoopMod(1, F(-1, 3), F(3, 5)), 3),
    (LoopMod(2, F(2, 3), F(-1, 5)), 2),
]


@pytest.mark.parametrize("spec, deg", ORACLE_SPECS, ids=[spec_text(s) for s, _ in ORACLE_SPECS])
def test_module_defect_matches_oracle(spec, deg):
    gens = list(acting_algebra(spec).generators(-deg, deg))
    labels = _labels(spec, -3, 3)
    memo = DefectMemo(spec)
    nonzero = 0
    for x in gens:
        for y in gens:
            for lab in labels:
                v = Vec.basis(lab)
                got = module_defect(spec, x, y, v, memo)
                assert got == oracle_module_defect(spec, x, y, v), (x, y, lab)
                assert all(type(c) is F for _, c in got)
                nonzero += bool(got)
    # linear combinations of basis vectors, with and without the memo
    for x, y in zip(gens, reversed(gens)):
        v = Vec({labels[0]: F(2, 3), labels[-1]: -3, labels[len(labels) // 2]: F(1, 7)})
        want = oracle_module_defect(spec, x, y, v)
        assert module_defect(spec, x, y, v, memo) == want, (x, y)
        assert module_defect(spec, x, y, v) == want, (x, y)
    assert (nonzero > 0) == isinstance(spec, T2Corrupt)


def test_module_defect_memo_keys():
    # the memo holds [x, y] by generator pair and act_basis images by
    # (generator, label), both scaled by D = lcm(2, 3), the lcm of the
    # parameter denominators; labels never collide with generators
    spec = LoopMod(1, F(1, 2), F(1, 3))
    memo = DefectMemo(spec)
    module_defect(spec, e(1), f(-1), Vec.basis((0, 2)), memo)
    assert dict(memo[e(1), f(-1)]) == bracket_gens(e(1), f(-1)).scaled(6).terms
    assert dict(memo[f(-1), (0, 2)]) == act_basis(spec, f(-1), (0, 2)).scaled(6).terms
    assert all(type(c) is int for items in memo.values() for _, c in items)
    assert all(isinstance(key[0], Gen) for key in memo)


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def _catalog_spec(draw):
    kind = draw(st.sampled_from(["A", "A2", "B", "H", "T2", "loop"]))
    a, b, c = draw(_rational), draw(_rational), draw(_rational)
    if kind == "A":
        return IntAB(a, b)
    if kind == "A2":
        return IntA(a)
    if kind == "B":
        return IntB(a)
    if kind == "H":
        return HVirABC(a, b, c)
    if kind == "T2":
        return T2Mod(a, b, c)
    return LoopMod(draw(st.integers(0, 2)), a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_module_axiom_property(data):
    spec = data.draw(_catalog_spec())
    gens = list(acting_algebra(spec).generators(-5, 5))
    x = data.draw(st.sampled_from(gens))
    y = data.draw(st.sampled_from(gens))
    i = data.draw(st.integers(-6, 6))
    lab = (data.draw(st.integers(0, spec.lam)), i) if isinstance(spec, LoopMod) else i
    assert not module_defect(spec, x, y, Vec.basis(lab))
