import random
from fractions import Fraction

import pytest

from avw.algebra import (ALGEBRAS, C, FULL, HVIR, SL2, SL2LOOP, T2, VIR,
                         as_element, bracket, bracket_gens, d, e,
                         element_str, f, h, in_subalgebra, jacobi_defect)
from avw.linalg import Vec


# Oracles: the Vec-based bracket and Jacobi sum that build one Vec per term,
# kept as they were before the memoized, dict-summing versions.

def oracle_bracket(x, y):
    out = Vec()
    for gx, cx in as_element(x):
        for gy, cy in as_element(y):
            out = out + bracket_gens(gx, gy).scaled(cx * cy)
    return out


def oracle_jacobi_defect(x, y, z):
    return (oracle_bracket(x, bracket_gens(y, z))
            + oracle_bracket(y, bracket_gens(z, x))
            + oracle_bracket(z, bracket_gens(x, y)))


def test_bracket_examples():
    assert bracket_gens(d(1), d(-1)) == Vec({d(0): -2})
    assert bracket_gens(d(2), d(-2)) == Vec({d(0): -4, C: Fraction(-1, 2)})
    assert bracket_gens(e(0), f(0)) == Vec({h(0): 1})
    assert bracket_gens(h(1), h(-1)) == Vec({C: 2})
    assert not bracket_gens(C, e(5))


def test_bracket_bilinear():
    x = Vec({d(1): Fraction(1, 2), e(0): 3})
    y = Vec({f(0): 1})
    lhs = bracket(x, y)
    rhs = bracket_gens(d(1), f(0)).scaled(Fraction(1, 2)) + bracket_gens(e(0), f(0)).scaled(3)
    assert lhs == rhs


def test_degree_examples():
    assert e(5).degree == 5
    assert C.degree == 0
    assert d(-3).degree == -3


def test_jacobi_examples():
    assert not jacobi_defect(d(1), d(2), d(3))
    assert not jacobi_defect(e(1), f(-1), h(2))
    assert not jacobi_defect(d(0), e(3), f(-3))


def test_in_subalgebra_examples():
    assert in_subalgebra(Vec({h(3): 1, d(-1): 2}), T2)
    assert not in_subalgebra(Vec({f(2): 1}), T2)
    assert in_subalgebra(Vec({e(1): 1, f(1): 1}), SL2LOOP)
    assert in_subalgebra(Vec({e(0): 1}), SL2)
    assert not in_subalgebra(Vec({e(1): 1}), SL2)
    assert not in_subalgebra(Vec({C: 1}), SL2)
    assert in_subalgebra(Vec({d(0): 1, C: 1}), SL2LOOP)
    assert not in_subalgebra(Vec({d(1): 1}), SL2LOOP)


def _basis(lo, hi):
    return list(FULL.generators(lo, hi))


def test_antisymmetry_exhaustive():
    gens = _basis(-6, 6)
    for x in gens:
        for y in gens:
            assert not (bracket_gens(x, y) + bracket_gens(y, x)), (x, y)


def test_grading_exhaustive():
    gens = _basis(-6, 6)
    for x in gens:
        for y in gens:
            for g, _ in bracket_gens(x, y):
                assert g.degree == x.degree + y.degree, (x, y, g)


def test_jacobi_small_range_exhaustive():
    # the [-5,5] sweep is the acceptance criterion; this is the fast guard
    gens = _basis(-3, 3)
    for x in gens:
        for y in gens:
            for z in gens:
                assert not jacobi_defect(x, y, z), (x, y, z)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_subalgebra_closure(name):
    alg = ALGEBRAS[name]
    gens = list(alg.generators(-5, 5))
    for x in gens:
        for y in gens:
            assert in_subalgebra(bracket_gens(x, y), alg), (name, x, y)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_generator_count_is_the_length_of_the_listing(name):
    alg = ALGEBRAS[name]
    for lo, hi in ((-5, 5), (0, 0), (1, 4), (-3, -1), (-7, 0)):
        assert alg.generator_count(lo, hi) == len(list(alg.generators(lo, hi))), (lo, hi)


def test_centrality():
    for g in _basis(-6, 6):
        assert not bracket_gens(C, g)
        assert not bracket_gens(g, C)


def test_element_str():
    x = Vec({d(0): -2, C: Fraction(-1, 2)})
    assert element_str(x) == "-2*d_0 - 1/2*C"
    assert element_str(Vec()) == "0"
    assert element_str(Vec({e(3): 1})) == "e_3"


def test_algebra_membership_tables():
    assert VIR.contains(d(7)) and VIR.contains(C) and not VIR.contains(h(0))
    assert HVIR.contains(h(-2)) and not HVIR.contains(e(0))
    assert T2.contains(e(5)) and not T2.contains(f(0))
    assert SL2LOOP.contains(d(0)) and not SL2LOOP.contains(d(2))


def test_jacobi_defect_matches_oracle_exhaustive():
    # degrees -4..4 reach the fractional Virasoro central terms (j^3-j)/12,
    # e.g. [d_2, d_-2] = -4 d_0 - 1/2 C; one memo serves the whole sweep
    gens = _basis(-4, 4)
    memo = {}
    with_center = 0
    for x in gens:
        for y in gens:
            for z in gens:
                got = jacobi_defect(x, y, z, memo)
                assert got == oracle_jacobi_defect(x, y, z), (x, y, z)
                assert all(type(c) is Fraction for _, c in got)
    for (x, y), items in memo.items():
        with_center += C in dict(items)
        assert dict(items) == bracket_gens(x, y).terms, (x, y)
    assert with_center > 0
    assert dict(memo[d(2), d(-2)])[C] == Fraction(-1, 2)


def test_jacobi_defect_without_memo_matches_oracle():
    gens = _basis(-2, 2)
    for x in gens:
        for y in gens:
            for z in gens:
                assert jacobi_defect(x, y, z) == oracle_jacobi_defect(x, y, z)


def test_bracket_matches_oracle_on_elements():
    rng = random.Random(7)
    gens = _basis(-3, 3)
    for _ in range(200):
        x = Vec({rng.choice(gens): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 for _ in range(rng.randint(0, 3))})
        y = Vec({rng.choice(gens): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 for _ in range(rng.randint(0, 3))})
        assert bracket(x, y) == oracle_bracket(x, y)
    for x in gens:
        for y in gens:
            assert bracket(x, y) == oracle_bracket(x, y) == bracket_gens(x, y)
