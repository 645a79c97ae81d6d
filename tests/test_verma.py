import functools
import gc
import json
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from avw.algebra import C, Gen, bracket_gens, d, e, f, h
from avw.cli import main
from avw.errors import AvwError, InternalError, InvalidBound, OutOfWindow, ResourceBound
from avw.linalg import Vec, full_rank_mod_p, nullspace, rank
import avw.verma
from avw.verma import (MAX_BASIS_ENV, MAX_FACTORS, RAISING_KILL_SET,
                       HighestWeight, TruncatedModule, _cell_dims,
                       _enumerate_cell, build_verma,
                       charge_of, charge_shift, depth_of, dims_rows, mono_str,
                       pbw_straighten)
from avw.windows import WindowedModule, find_extremal_vectors, from_verma

GENERIC = HighestWeight.of(F(1, 2), F(1, 3), F(7, 5))


def brute_dim(n, s):
    """Independent oracle: brute-force enumeration of exponent tuples.

    For k = 1..n the exponents (alpha_k, beta_k, gamma_k, delta_k) of
    (e_-k, f_-k, h_-k, d_-k) range over everything with total weighted depth
    n; the f_0 exponent is forced to s minus the e/f imbalance and must be
    nonnegative.
    """
    count = 0

    def rec(k, depth_left, imbalance):
        nonlocal count
        if k == 0:
            if depth_left == 0 and s - imbalance >= 0:
                count += 1
            return
        cap = depth_left // k
        for alpha in range(cap + 1):
            for beta in range(cap - alpha + 1):
                for gamma in range(cap - alpha - beta + 1):
                    for delta in range(cap - alpha - beta - gamma + 1):
                        used = k * (alpha + beta + gamma + delta)
                        if used <= depth_left:
                            rec(k - 1, depth_left - used, imbalance + beta - alpha)

    rec(n, n, 0)
    return count


def genfunc_dims(N, S):
    """Second independent oracle: coefficient extraction from the product of
    geometric series, one per generator of the negative cone."""
    poly = {(0, 0): 1}

    def multiply(poly, step_depth, step_charge, charge_hi):
        out = {}
        for (n, s), c in poly.items():
            t = 0
            while n + step_depth * t <= N or (step_depth == 0 and t == 0):
                n2, s2 = n + step_depth * t, s + step_charge * t
                if step_depth == 0 and step_charge == 0 and t > 0:
                    break
                if n2 > N or s2 > charge_hi or s2 < -N:
                    if step_depth == 0 and step_charge > 0 and s2 > charge_hi:
                        break
                    if n2 > N:
                        break
                    t += 1
                    continue
                out[(n2, s2)] = out.get((n2, s2), 0) + c
                t += 1
        return out

    for k in range(1, N + 1):
        for dz in (-1, 1, 0, 0):  # e, f, h, d at degree -k
            poly = multiply(poly, k, dz, N)
    poly = multiply(poly, 0, 1, S)  # powers of f_0
    return poly


def test_straighten_examples():
    hw = HighestWeight.of(F(1, 2), F(1, 3), F(0))
    assert pbw_straighten((e(0), f(0)), hw) == {(): F(1, 3)}
    hw_c = HighestWeight.of(F(0), F(0), F(7))
    assert pbw_straighten((h(1), h(-1)), hw_c) == {(): 14}
    assert pbw_straighten((f(-1),), hw) == {(f(-1),): 1}


def test_straighten_sl2_string_coefficients():
    # e_0 f_0^a v = a (mu - a + 1) f_0^{a-1} v
    mu = F(2)
    hw = HighestWeight.of(F(1, 2), mu, F(7, 5))
    for a in range(1, 6):
        got = pbw_straighten((e(0),) + (f(0),) * a, hw)
        coeff = a * (mu - a + 1)
        expect = {(f(0),) * (a - 1): coeff} if coeff else {}
        assert got == expect, a


def test_straighten_kills_raising_tail():
    hw = GENERIC
    assert pbw_straighten((f(-1), e(1), e(2)), hw) == {}
    assert pbw_straighten((e(2), e(1), f(-3)), hw) == {}


def test_frozen_dimensions():
    m = build_verma(GENERIC, 4)
    assert m.weight_space_dim(0, 0) == 1
    for s in range(0, m.charge_bound + 1):
        assert m.weight_space_dim(0, s) == 1  # the f_0^s line
    assert m.weight_space_dim(1, 0) == 3
    assert m.weight_space_dim(1, 1) == 4
    assert m.weight_space_dim(2, 0) == 10
    assert [mono_str(x) for x in m.cells[(1, 0)]] == ["d_-1", "h_-1", "e_-1 f_0"]
    assert [mono_str(x) for x in m.cells[(1, 1)]] == [
        "d_-1 f_0", "h_-1 f_0", "f_-1", "e_-1 f_0^2"]


def test_dimension_oracle_brute_force():
    m = build_verma(GENERIC, 4, 4)
    for n in range(5):
        for s in range(-4, 5):
            assert m.weight_space_dim(n, s) == brute_dim(n, s), (n, s)


def test_dimension_oracle_generating_function():
    N = S = 4
    m = build_verma(GENERIC, N, S)
    table = genfunc_dims(N, S)
    for n in range(N + 1):
        for s in range(-n, S + 1):
            assert m.weight_space_dim(n, s) == table.get((n, s), 0), (n, s)


def test_enumerated_monomials_are_canonically_ordered():
    m = build_verma(GENERIC, 4, 3)
    for monos in m.cells.values():
        for mono in monos:
            keys = [g.sort_key() for g in mono]
            assert keys == sorted(keys), mono


def test_depth_charge_bookkeeping():
    mono = (e(-2), h(-1), f(0), f(0))
    assert depth_of(mono) == 3
    assert charge_of(mono) == 1
    assert charge_shift(e(4)) == -1 and charge_shift(f(-2)) == 1 and charge_shift(d(1)) == 0


def test_verma_act_examples():
    hw = HighestWeight.of(F(1, 2), F(1, 3), F(0))
    m = build_verma(hw, 3)
    assert m.act(e(0), Vec.basis((f(0),))) == Vec({(): F(1, 3)})
    assert m.act(d(0), Vec.basis((f(-1),))) == Vec({(f(-1),): F(-1, 2)})
    assert m.act(h(0), Vec.basis((f(0), f(0)))) == Vec({(f(0), f(0)): F(1, 3) - 4})


def test_cartan_acts_diagonally():
    m = build_verma(GENERIC, 3)
    for (n, s), monos in m.cells.items():
        d0, h0 = m.weight_of_cell(n, s)
        for mono in monos:
            v = Vec.basis(mono)
            assert m.act(d(0), v) == v.scaled(d0)
            assert m.act(h(0), v) == v.scaled(h0)
            assert m.act(C, v) == v.scaled(m.hw.c)


def test_module_axiom_inside_window():
    m = build_verma(GENERIC, 3, 4)
    gens = [Gen(fam, k) for fam in "defh" for k in range(-2, 3)]
    checked = 0
    for x in gens:
        for y in gens:
            br = bracket_gens(x, y)
            for (n, s), monos in m.cells.items():
                # quantify only over monomials whose images stay in the window
                ny, sy = n - y.degree, s + charge_shift(y)
                nxy = ny - x.degree
                sxy = sy + charge_shift(x)
                cells_needed = [(ny, sy), (nxy, sxy),
                                (n - x.degree, s + charge_shift(x))]
                if any(cn > m.depth_bound or cs > m.charge_bound
                       for cn, cs in cells_needed):
                    continue
                for mono in monos:
                    v = Vec.basis(mono)
                    lhs = Vec()
                    for g, coeff in br:
                        lhs = lhs + m.act(g, v).scaled(coeff)
                    rhs = m.act(x, m.act(y, v)) - m.act(y, m.act(x, v))
                    assert lhs == rhs, (x, y, mono)
                    checked += 1
    assert checked > 1000


def test_straightening_confluence_under_adjacent_swap():
    # straighten(word) = straighten(word with a pair swapped) + bracket term
    rng = random.Random(98321)
    pool = [Gen(fam, k) for fam in "defh" for k in range(-2, 3)] + [C]
    hw = GENERIC
    for _ in range(200):
        length = rng.randint(2, 5)
        word = tuple(rng.choice(pool) for _ in range(length))
        i = rng.randrange(length - 1)
        swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
        total = {}
        for m2, c2 in pbw_straighten(swapped, hw).items():
            total[m2] = total.get(m2, F(0)) + c2
        for g, coeff in bracket_gens(word[i], word[i + 1]):
            for m2, c2 in pbw_straighten(word[:i] + (g,) + word[i + 2:], hw).items():
                total[m2] = total.get(m2, F(0)) + coeff * c2
        total = {k: v for k, v in total.items() if v}
        assert total == pbw_straighten(word, hw), word


def test_straightening_split_evaluation_consistency():
    # evaluating a word in one pass agrees with straightening a suffix first
    # and then pushing the prefix through each resulting monomial
    rng = random.Random(5150)
    pool = [Gen(fam, k) for fam in "defh" for k in range(-2, 3)]
    hw = GENERIC
    for _ in range(80):
        length = rng.randint(2, 5)
        word = tuple(rng.choice(pool) for _ in range(length))
        cut = rng.randint(1, length - 1)
        prefix, suffix = word[:cut], word[cut:]
        total = {}
        for mono, coeff in pbw_straighten(suffix, hw).items():
            for m2, c2 in pbw_straighten(prefix + mono, hw).items():
                total[m2] = total.get(m2, F(0)) + coeff * c2
        total = {k: v for k, v in total.items() if v}
        assert total == pbw_straighten(word, hw), word


def test_out_of_window_errors():
    m = build_verma(GENERIC, 2, 2)
    top_charge = Vec.basis((f(0),) * 2)
    with pytest.raises(OutOfWindow):
        m.act(f(0), top_charge)  # would reach charge 3
    with pytest.raises(OutOfWindow):
        m.weight_space_dim(3, 0)
    with pytest.raises(OutOfWindow):
        m.weight_space_dim(0, 3)
    assert m.weight_space_dim(2, -2) == 1  # the e_-1^2 line
    assert m.weight_space_dim(2, -3) == 0  # in-window but weight-empty
    with pytest.raises(OutOfWindow, match="max_depth 3 exceeds the depth bound 2"):
        m.find_singular_vectors(3)
    with pytest.raises(InvalidBound, match="max_depth must be >= 0"):
        m.find_singular_vectors(-1)  # the highest-weight line is at depth 0


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("hw", [HighestWeight.of(F(1, 2), 1, 2), HighestWeight.of(0, 0, 0),
                                GENERIC, HighestWeight.of(F(-2, 3), F(3, 5), F(-4, 7))],
                         ids=lambda hw: f"{hw.lam_d},{hw.mu},{hw.c}")
def test_singular_search_to_the_depth_bound_matches_a_deeper_truncation(hw, N):
    # every kill-set image of a searched cell is kept at any depth bound, so
    # the search needs no room below max_depth: two more depths change nothing
    S = N + 2
    found = build_verma(hw, N, S).find_singular_vectors(N)
    assert found == build_verma(hw, N + 2, S).find_singular_vectors(N)
    assert (found[0].depth, found[0].charge) == (0, 0)


def test_lowering_out_the_bottom_raises():
    m = build_verma(GENERIC, 1)
    with pytest.raises(OutOfWindow):
        m.act(d(-1), Vec.basis((d(-1),)))


def test_resource_bounds(monkeypatch):
    with monkeypatch.context() as capped:
        capped.setenv(MAX_BASIS_ENV, "10")
        with pytest.raises(ResourceBound):
            build_verma(GENERIC, 3)
    monkeypatch.setattr(avw.verma, "MAX_FACTORS", 5)
    with pytest.raises(ResourceBound):
        build_verma(GENERIC, 0, 30)



def test_the_factor_cap_refusal_names_the_first_cell_over_it(monkeypatch):
    # the first cell in (depth, charge) order that enumerates a monomial of
    # more factors than the cap, and the longest such monomial
    for N, S, cap in [(0, 30, 5), (3, 1, 5), (3, 6, 7), (4, 0, 4), (2, 9, 9)]:
        monkeypatch.setattr(avw.verma, "MAX_FACTORS", cap)
        cell, longest = next(((n, s), max(map(len, monos)))
                             for n in range(N + 1) for s in range(-n, S + 1)
                             for monos in [_enumerate_cell(n, s)]
                             if max(map(len, monos), default=0) > cap)
        with pytest.raises(ResourceBound) as exc:
            build_verma(GENERIC, N, S)
        assert str(exc.value) == (f"cell {cell} holds a monomial of {longest} factors, "
                                  f"over the factor cap {cap}; shrink the bounds"), (N, S, cap)


def test_singular_vectors_mu_2():
    hw = HighestWeight.of(F(1, 2), F(2), F(7, 5))
    m = build_verma(hw, 2)
    cells = {(sv.depth, sv.charge) for sv in m.find_singular_vectors(0)}
    assert cells == {(0, 0), (0, 3)}
    sv = [x for x in m.find_singular_vectors(0) if x.charge == 3][0]
    assert sv.vector() == Vec.basis((f(0),) * 3)


def test_singular_vectors_mu_one_third():
    hw = HighestWeight.of(F(1, 2), F(1, 3), F(7, 5))
    m = build_verma(hw, 2)
    assert {(sv.depth, sv.charge) for sv in m.find_singular_vectors(0)} == {(0, 0)}


def test_highest_weight_line_always_singular():
    m = build_verma(GENERIC, 2)
    svs = [sv for sv in m.find_singular_vectors(0) if (sv.depth, sv.charge) == (0, 0)]
    assert len(svs) == 1 and svs[0].vector() == Vec.basis(())


def test_singular_vectors_killed_by_all_raising_generators():
    # the kill set generates the whole raising side under brackets, so its
    # joint kernel must be annihilated by generators the search never stacked
    hw = HighestWeight.of(F(1, 2), F(2), F(0))
    m = build_verma(hw, 4)
    svs = m.find_singular_vectors(2)
    assert {(sv.depth, sv.charge) for sv in svs} >= {(0, 0), (0, 3), (2, -1)}
    wide_kill = [Gen(fam, k) for k in (1, 2, 3, 4) for fam in "defh"] + [e(0)]
    for sv in svs:
        v = sv.vector()
        for g in wide_kill:
            assert not m.act(g, v), (sv.depth, sv.charge, g)


def test_singular_search_stops_building_at_a_certifying_operator(monkeypatch):
    # e_0 f_0^4 v = 4(mu - 3) f_0^3 v != 0, so e_0 alone is injective on the
    # cell (0, 4): none of the other kill-set matrices is built there
    built = []
    real = TruncatedModule.cell_matrix

    def spy(module, g, cell, columns=None):
        built.append((cell, g, columns))
        return real(module, g, cell, columns)

    def search():
        built.clear()
        m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 4)
        svs = m.find_singular_vectors(2)
        by_cell = {}
        for cell, g, columns in built:
            # each matrix is built over the cell's d-free columns, or over
            # all of them when the module has none
            free = m.affine_columns(*cell)
            assert list(columns) == (list(range(len(m.cells[cell]))) if free is None else free)
            by_cell.setdefault(cell, []).append(g)
        return m, svs, by_cell

    monkeypatch.setattr(TruncatedModule, "cell_matrix", spy)
    with monkeypatch.context() as unrestricted:
        unrestricted.setattr(TruncatedModule, "may_be_singular", lambda module, n, s: True)
        unrestricted.setattr(TruncatedModule, "affine_columns", lambda module, n, s: None)
        _, full_svs, full_cells = search()
    with monkeypatch.context() as ungated:
        ungated.setattr(TruncatedModule, "may_be_singular", lambda module, n, s: True)
        _, all_svs, all_cells = search()
    m, svs, by_cell = search()
    # the d-free columns leave out d_-1 times each monomial of (n - 1, s)
    # from every cell (n, s) with n >= 1 and s > -n, and reading only them
    # changes no result
    assert set(all_cells) == set(full_cells)
    assert all(len(m.affine_columns(n, s)) < len(m.cells[(n, s)])
               for n, s in all_cells if -n < s and n)
    assert all_svs == full_svs
    # the gate builds the ungated walk's matrices minus those of the cells it
    # rules out, and the ungated walk finds no singular vector in those
    ruled_out = {cell for cell in all_cells if not m.may_be_singular(*cell)}
    assert (0, 1) in ruled_out and (0, 4) not in ruled_out
    assert by_cell == {cell: gens for cell, gens in all_cells.items() if cell not in ruled_out}
    assert svs == all_svs
    assert not {(sv.depth, sv.charge) for sv in all_svs} & ruled_out
    assert by_cell[(0, 4)] == [e(0)]
    # every cell builds a prefix of the kill set, each matrix once; the cells
    # with singular vectors build all of it
    for cell, gens in by_cell.items():
        assert gens == list(RAISING_KILL_SET[:len(gens)]), cell
    for sv in svs:
        assert by_cell[(sv.depth, sv.charge)] == list(RAISING_KILL_SET)
    assert sum(gens == [e(0)] for gens in by_cell.values()) > len(by_cell) // 3


def test_weight_empty_targets_are_checked_on_the_whole_cell(monkeypatch):
    # d_2 sends cell (2, -1) to the weight-empty (0, -1); a defect planted in
    # the image of its d monomial is caught although the search reads only
    # the cell's d-free columns there
    real = TruncatedModule.apply_gen

    def apply_gen(module, g, mono):
        return {(): 1} if (g, mono) == (d(2), (d(-1), e(-1))) else real(module, g, mono)

    monkeypatch.setattr(TruncatedModule, "apply_gen", apply_gen)
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 4)
    assert (d(-1), e(-1)) in m.cells[(2, -1)]
    assert (d(-1), e(-1)) not in [m.cells[(2, -1)][j] for j in m.affine_columns(2, -1)]
    with pytest.raises(InternalError, match=r"nonzero image of d_2 from cell \(2, -1\) in "
                                            r"the weight-empty cell \(0, -1\)"):
        m.find_singular_vectors(2)


def test_depth2_singular_vector_at_zero_central_charge():
    # a genuinely deeper kernel vector: -4 e_-2 + h_-1 e_-1 + e_-1^2 f_0
    hw = HighestWeight.of(F(1, 2), F(2), F(0))
    m = build_verma(hw, 4)
    expected = Vec({(e(-2),): -4, (h(-1), e(-1)): 1, (e(-1), e(-1), f(0)): 1})
    found = [sv.vector() for sv in m.find_singular_vectors(2)
             if (sv.depth, sv.charge) == (2, -1)]
    assert len(found) == 1
    v = found[0]
    scale = v[(e(-2),)] / expected[(e(-2),)]
    assert v == expected.scaled(scale)


def test_max_basis_env_override(monkeypatch):
    monkeypatch.setenv("AVW_MAX_BASIS", "5")
    with pytest.raises(ResourceBound):
        build_verma(GENERIC, 2)
    monkeypatch.setenv("AVW_MAX_BASIS", "100000")
    build_verma(GENERIC, 2)


@pytest.mark.parametrize("raw", ["lots", "1.5", "", "-1"])
def test_max_basis_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("AVW_MAX_BASIS", raw)
    with pytest.raises(InvalidBound, match="AVW_MAX_BASIS"):
        build_verma(GENERIC, 2)


def test_negative_bounds_are_typed_errors():
    with pytest.raises(InvalidBound, match="depth bound must be >= 0"):
        TruncatedModule(GENERIC, -1, 2)
    with pytest.raises(InvalidBound, match="charge bound must be >= 0"):
        build_verma(GENERIC, 2, -1)
    assert issubclass(InvalidBound, AvwError) and issubclass(InvalidBound, ValueError)


def test_concurrent_queries_match_sequential():
    # built modules are read-only; the straightening cache is insert-only,
    # so concurrent readers must agree with a sequential run
    hw = HighestWeight.of(F(1, 2), F(2), F(0))
    m = build_verma(hw, 3)
    gens = [Gen(fam, k) for fam in "defh" for k in (-1, 0, 1)]
    monos = [mono for (n, s), cell in m.cells.items() if n <= 1 for mono in cell]
    jobs = [(g, mono) for g in gens for mono in monos]
    sequential = [m.apply_gen(g, mono) for g, mono in jobs]
    fresh = build_verma(hw, 3)
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda gm: fresh.apply_gen(*gm), jobs))
    assert concurrent == sequential
    with ThreadPoolExecutor(max_workers=4) as pool:
        kernels = list(pool.map(lambda _: fresh.find_singular_vectors(1), range(4)))
    assert all(k == kernels[0] for k in kernels)


def test_dims_rows_and_csv(tmp_path):
    m = build_verma(GENERIC, 2, 2)
    rows = dims_rows(m)
    assert (1, 0, 3) in rows and (0, 0, 1) in rows
    out = tmp_path / "dims.csv"
    assert main(["verma", "--lamd=1/2", "--mu=1/3", "--c=7/5", "--depth=2", "--charge=2",
                 f"--emit={out}"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "depth,charge,dim"
    assert f"1,0,3" in lines


def test_singular_vectors_json_schema(capsys):
    assert main(["singular", "--lamd=1/2", "--mu=2", "--c=7/5", "--depth=2",
                 "--max-depth=0"]) == 0
    payload = json.loads(capsys.readouterr().out)["singular_vectors"]
    assert {"depth", "charge", "coefficients", "basis"} <= set(payload[0])
    assert all(isinstance(c, str) for c in payload[0]["coefficients"])


# -- oracle: the word-rewriting straightener the memoized action replaced ----

def _rewrite_cls(g):
    if g.degree < 0 or (g.degree == 0 and g.family == "f"):
        return 0  # lowering
    if g.degree == 0 and g.family in ("d", "h"):
        return 1  # Cartan
    return 2  # raising


def _rewrite_reducible(x, y):
    cx, cy = _rewrite_cls(x), _rewrite_cls(y)
    if cx != cy:
        return cx > cy
    return cx == 0 and x.sort_key() > y.sort_key()


def reference_straighten(word, hw):
    """Swap the rightmost out-of-order adjacent pair, inserting the bracket
    correction, until every surviving word is canonical."""
    out = {}
    stack = [(tuple(word), F(1))]
    while stack:
        w, coeff = stack.pop()
        if any(g.family == "C" for g in w):
            coeff *= hw.c ** sum(1 for g in w if g.family == "C")
            if not coeff:
                continue
            w = tuple(g for g in w if g.family != "C")
        if not w:
            out[()] = out.get((), F(0)) + coeff
            continue
        z = w[-1]
        cz = _rewrite_cls(z)
        if cz == 2:
            continue
        if cz == 1:
            eig = hw.lam_d if z.family == "d" else hw.mu
            if eig:
                stack.append((w[:-1], coeff * eig))
            continue
        pos = None
        for i in range(len(w) - 2, -1, -1):
            if _rewrite_reducible(w[i], w[i + 1]):
                pos = i
                break
        if pos is None:
            out[w] = out.get(w, F(0)) + coeff
            continue
        x, y = w[pos], w[pos + 1]
        pre, post = w[:pos], w[pos + 2:]
        stack.append((pre + (y, x) + post, coeff))
        for g, bc in bracket_gens(x, y):
            stack.append((pre + (g,) + post, coeff * bc))
    return {m: v for m, v in out.items() if v}


ORACLE_WEIGHTS = [HighestWeight.of(F(1, 2), 2, 0), HighestWeight.of(0, 0, 1),
                  HighestWeight.of(F(1, 3), 1, 3),
                  HighestWeight.of(F(-2, 3), F(3, 5), F(-4, 7))]
ORACLE_GENS = [Gen(fam, k) for fam in "defh" for k in range(-3, 4)] + [C]


def _hw_id(hw):
    return f"{hw.lam_d},{hw.mu},{hw.c}"


@pytest.mark.parametrize("hw", ORACLE_WEIGHTS, ids=_hw_id)
def test_action_matches_word_rewriting_oracle(hw):
    m = build_verma(hw, 4)
    monos = [mono for cell in m.cells.values() for mono in cell]
    rng = random.Random(2024)
    for g in ORACLE_GENS:
        for mono in rng.sample(monos, 12):
            expect = reference_straighten((g,) + mono, hw)
            assert m.apply_gen(g, mono) == expect, (g, mono)
            assert pbw_straighten((g,) + mono, hw) == expect, (g, mono)


@pytest.mark.parametrize("hw", ORACLE_WEIGHTS, ids=_hw_id)
def test_straighten_matches_oracle_on_random_words(hw):
    rng = random.Random(7)
    for _ in range(150):
        word = tuple(rng.choice(ORACLE_GENS) for _ in range(rng.randint(1, 4)))
        assert pbw_straighten(word, hw) == reference_straighten(word, hw), word


def test_action_at_the_factor_cap_matches_oracle():
    # the memoized action recurses once per factor; monomials at the factor
    # cap must stay well inside the interpreter's recursion limit
    k = MAX_FACTORS
    monos = [(f(0),) * k, (e(-1),) * k, (e(-1),) * (k - 1) + (f(0),),
             (e(-1),) * (k // 2) + (f(0),) * (k // 2),
             (d(-1),) + (f(0),) * (k - 1), (h(-1),) + (f(0),) * (k - 1)]
    hw = ORACLE_WEIGHTS[3]
    m = build_verma(hw, 1)
    for mono in monos:
        assert len(mono) == k
        for g in ORACLE_GENS:
            expect = reference_straighten((g,) + mono, hw)
            assert m.apply_gen(g, mono) == expect, (g, mono)
            assert pbw_straighten((g,) + mono, hw) == expect, (g, mono)


# -- oracle: the list-based cell enumeration that the tuple-based one replaced --

def reference_enumerate_cell(n, s, max_factors):
    found = []

    def rec(k, depth_left, factors, imbalance):
        if k == 0:
            if depth_left:
                return
            a0 = s - imbalance
            if a0 < 0:
                return
            found.append(tuple(factors) + (f(0),) * a0)
            return
        cap = depth_left // k
        for total in range(cap + 1):
            rest = depth_left - k * total
            for nd in range(total + 1):
                for nh in range(total - nd + 1):
                    for nf in range(total - nd - nh + 1):
                        ne = total - nd - nh - nf
                        block = ([d(-k)] * nd + [h(-k)] * nh
                                 + [f(-k)] * nf + [e(-k)] * ne)
                        rec(k - 1, rest, factors + block, imbalance + nf - ne)

    rec(n, n, [], 0)
    longest = max(map(len, found), default=0)
    if longest > max_factors:
        raise ResourceBound(
            f"cell ({n}, {s}) holds a monomial of {longest} factors, "
            f"over the factor cap {max_factors}; shrink the bounds")
    found.sort(key=lambda m: tuple(g.sort_key() for g in m))
    return found


@functools.lru_cache(maxsize=None)
def _oracle_cell(n, s, cap):
    """The oracle's monomials of cell (n, s), or the text of its ResourceBound."""
    try:
        return reference_enumerate_cell(n, s, cap)
    except ResourceBound as exc:
        return str(exc)


def _enumerates_like_oracle(n, s, cap):
    """The truncation of depth n and charge max(s, 0) keeps cell (n, s).  Built
    at factor cap ``cap``, it raises the oracle's ResourceBound of the first
    cell, in (n, s) order, whose enumeration raises, and otherwise holds
    the oracle's monomials in cell (n, s) in the same order; returns whether
    it raised."""
    S = max(s, 0)
    errors = [out for n2 in range(n + 1) for s2 in range(-n2, S + 1)
              for out in [_oracle_cell(n2, s2, cap)] if isinstance(out, str)]
    try:
        with pytest.MonkeyPatch.context() as capped:
            capped.setattr(avw.verma, "MAX_FACTORS", cap)
            m = build_verma(GENERIC, n, S)
    except ResourceBound as exc:
        assert errors and str(exc) == errors[0], (n, s, cap)
        return True
    assert not errors, (n, s, cap)
    assert list(m.cells[(n, s)]) == _oracle_cell(n, s, cap), (n, s, cap)
    return False


def test_enumerate_cell_matches_oracle_to_depth_7():
    # every cell of a depth-7 truncation at the default charge bound N + 4;
    # the top charges of depth 7 pass the default factor cap
    raised = [_enumerates_like_oracle(n, s, MAX_FACTORS)
              for n in range(8) for s in range(-n, 12)]
    assert 0 < sum(raised) < len(raised) // 10


def test_enumerate_cell_factor_cap_matches_oracle():
    raised = [_enumerates_like_oracle(n, s, cap)
              for n in range(5) for s in range(-n, 9) for cap in range(12)]
    assert 100 < sum(raised) < len(raised) - 100


# -- the action memo: pbw_straighten on a miss only, entries shared, brackets
#    kept per module -----------------------------------------------------------

def _memo_jobs(m, depth):
    gens = [Gen(fam, k) for fam in "defh" for k in (-2, -1, 0, 1, 2)] + [C]
    monos = [mono for (n, s), cell in sorted(m.cells.items()) if n <= depth for mono in cell]
    jobs = [(g, mono) for g in gens for mono in monos]
    random.Random(5).shuffle(jobs)
    return jobs + jobs[: len(jobs) // 2]


def test_apply_gen_calls_pbw_straighten_exactly_on_a_miss(monkeypatch):
    import avw.verma
    real = avw.verma.pbw_straighten
    calls = []

    def spy(word, hw, memo=None):
        calls.append(tuple(word))
        return real(word, hw, memo)

    monkeypatch.setattr(avw.verma, "pbw_straighten", spy)
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 3)
    hits = 0
    for g, mono in _memo_jobs(m, 2):
        hit = (g, mono) in m._apply_cache
        before = len(calls)
        out = m.apply_gen(g, mono)
        assert calls[before:] == ([] if hit else [(g,) + mono]), (g, mono)
        # the memo entry itself is returned, and stays the same object
        assert out is m._apply_cache[(g, mono)]
        assert m.apply_gen(g, mono) is out
        hits += hit
    assert len(calls) == len(set(calls)) > 100
    assert hits > 100


def test_pbw_straighten_returns_the_memo_entry_for_one_generator():
    hw = ORACLE_WEIGHTS[0]
    memo = {}
    for word in [(e(1), f(-1), f(0)), (f(-2), f(-1)), (d(0), h(-1)), (h(2),)]:
        out = pbw_straighten(word, hw, memo)
        assert out is memo[(word[0], word[1:])]
        assert out == reference_straighten(word, hw)


def test_each_module_computes_its_own_brackets(monkeypatch):
    import avw.algebra
    real = avw.algebra.bracket_gens
    calls, nested = [], [0]

    def spy(x, y):  # records outer calls only, should bracket_gens call itself
        if not nested[0]:
            calls.append((x, y))
        nested[0] += 1
        try:
            return real(x, y)
        finally:
            nested[0] -= 1

    monkeypatch.setattr(avw.algebra, "bracket_gens", spy)
    hw = HighestWeight.of(F(1, 3), F(1), F(3))
    per_module = []
    for _ in range(2):
        m = build_verma(hw, 3)
        before = len(calls)
        for g, mono in _memo_jobs(m, 2):
            m.apply_gen(g, mono)
        mine = calls[before:]
        per_module.append(sorted(mine))
        assert len(mine) == len(set(mine)) > 10  # once per pair and module
        assert all((x, y) in m._apply_cache for x, y in mine)
    assert per_module[0] == per_module[1]


def test_fresh_module_reads_live_defining_relations(monkeypatch):
    # negative control: [h_1, h_-1] = 2C, so h_1 h_-1 v = 2c v unless the
    # central term is broken, which a freshly built module must see
    import avw.algebra
    hw = HighestWeight.of(F(1, 2), F(1, 3), 7)
    before = build_verma(hw, 1)
    assert before.apply_gen(h(1), (h(-1),)) == {(): 14}
    real = avw.algebra.bracket_gens

    def broken(x, y):
        if x.family == y.family == "h":
            return Vec()
        return real(x, y)

    monkeypatch.setattr(avw.algebra, "bracket_gens", broken)
    assert build_verma(hw, 1).apply_gen(h(1), (h(-1),)) == {}
    assert before.apply_gen(h(1), (h(-1),)) == {(): 14}


# -- oracle: the Fraction-valued memoized action that the int-normal form
#    replaced; its brackets are bracket_gens' own Fraction terms -------------

def fraction_act(g, mono, hw, memo):
    key = (g, mono)
    out = memo.get(key)
    if out is not None:
        return out
    cg = _rewrite_cls(g)
    if g.family == "C":
        out = {mono: hw.c} if hw.c else {}
    elif cg == 1:
        eig = (hw.lam_d - depth_of(mono) if g.family == "d"
               else hw.mu - 2 * charge_of(mono))
        out = {mono: eig} if eig else {}
    elif not mono:
        out = {(g,): F(1)} if cg == 0 else {}
    elif cg == 0 and g.sort_key() <= mono[0].sort_key():
        out = {(g,) + mono: F(1)}
    else:
        y, rest = mono[0], mono[1:]
        acc = {}
        for m2, c2 in fraction_act(g, rest, hw, memo).items():
            for m3, c3 in fraction_act(y, m2, hw, memo).items():
                acc[m3] = acc.get(m3, F(0)) + c2 * c3
        brackets = memo.get((g, y))
        if brackets is None:
            brackets = memo[g, y] = tuple(bracket_gens(g, y))
        for b, bc in brackets:
            for m3, c3 in fraction_act(b, rest, hw, memo).items():
                acc[m3] = acc.get(m3, F(0)) + bc * c3
        out = {m: v for m, v in acc.items() if v}
    memo[key] = out
    return out


def fraction_straighten(word, hw, memo=None):
    if memo is None:
        memo = {}
    word = tuple(word)
    cut = len(word)
    while cut and _rewrite_cls(word[cut - 1]) == 0 and (
            cut == len(word) or word[cut - 1].sort_key() <= word[cut].sort_key()):
        cut -= 1
    if cut <= 1 and word:
        return fraction_act(word[0], word[1:], hw, memo)
    vec = {word[cut:]: F(1)}
    for g in reversed(word[:cut]):
        acc = {}
        for mono, coeff in vec.items():
            for m2, c2 in fraction_act(g, mono, hw, memo).items():
                acc[m2] = acc.get(m2, F(0)) + coeff * c2
        vec = {m: v for m, v in acc.items() if v}
    return vec


def fraction_cell_matrix(m, g, cell, memo):
    """cell_matrix over the Fraction oracle, Fraction(0)-filled; None when
    the target cell is outside the truncation."""
    n, s = cell
    n2, s2 = n - g.degree, s + charge_shift(g)
    if n2 < 0 or s2 < -n2:
        return []
    if n2 > m.depth_bound or s2 > m.charge_bound:
        return None
    source = m.cells[cell]
    target = m.index[(n2, s2)]
    mat = [[F(0)] * len(source) for _ in target]
    for j, mono in enumerate(source):
        for m2, c2 in fraction_straighten((g,) + mono, m.hw, memo).items():
            mat[target[m2]][j] = c2
    return mat


INT_PATH_WEIGHTS = [HighestWeight.of(0, 2, 3), HighestWeight.of(-1, 1, 1),
                    HighestWeight.of(F(1, 3), F(-2, 5), F(9, 7)),
                    HighestWeight.of(F(-5, 3), F(7, 5), F(-3, 7))]
# every raising operator of degree 0..2 that moves the weight, whatever the
# kill set names
SIX_RAISING = (e(0), d(1), e(1), f(1), h(1), d(2))
INT_PATH_GENS = SIX_RAISING + (d(0), h(0), C, f(0), e(-1), d(-1))


def _is_memo_form(c):
    if type(c) is int:
        return c != 0
    return type(c) is F and c.denominator > 1


def _action_entries(memo):
    """The (g, mono) -> image entries of a memo, without the bracket entries."""
    return {k: v for k, v in memo.items() if type(v) is dict}


@pytest.fixture(scope="module", params=INT_PATH_WEIGHTS, ids=_hw_id)
def int_path_module(request):
    """An N=5 module with apply_gen run on every cell for every generator of
    INT_PATH_GENS, and the Fraction oracle's memo for the same words."""
    hw = request.param
    m = build_verma(hw, 5)
    oracle = {}
    for monos in m.cells.values():
        for mono in monos:
            for g in INT_PATH_GENS:
                m.apply_gen(g, mono)
                fraction_straighten((g,) + mono, hw, oracle)
    return m, oracle


def test_apply_gen_matches_fraction_oracle_key_for_key(int_path_module):
    # every memo entry, the recursion's own included, not just the top keys
    m, oracle = int_path_module
    got, expect = _action_entries(m._apply_cache), _action_entries(oracle)
    assert got.keys() == expect.keys()
    assert len(got) > 10_000
    for key, out in got.items():
        assert out == expect[key], key


def test_memo_coefficients_are_int_exactly_when_integral(int_path_module):
    m, _ = int_path_module
    coeffs = [c for out in _action_entries(m._apply_cache).values()
              for c in out.values()]
    bad = [c for c in coeffs if not _is_memo_form(c)]
    assert not bad, bad[:5]
    assert any(type(c) is int for c in coeffs)
    if any(x.denominator > 1 for x in (m.hw.lam_d, m.hw.mu, m.hw.c)):
        assert any(type(c) is F for c in coeffs)


def test_cell_matrix_matches_fraction_oracle(int_path_module):
    m, oracle = int_path_module
    compared = 0
    for cell in m.cells:
        for g in RAISING_KILL_SET:
            expect = fraction_cell_matrix(m, g, cell, oracle)
            if expect is None:
                with pytest.raises(OutOfWindow):
                    m.cell_matrix(g, cell)
                continue
            got = m.cell_matrix(g, cell)
            # one column per source monomial: the nonzeros of the oracle's
            # column in ascending row order, with the memo's coefficients
            ncols = len(m.cells[cell])
            assert got == [tuple((r, row[j]) for r, row in enumerate(expect) if row[j])
                           for j in range(ncols)], (g, cell)
            assert all(_is_memo_form(x) for col in got for _, x in col), (g, cell)
            assert all(list(col) == sorted(col) for col in got), (g, cell)
            compared += 1
    assert compared > 200


def test_singular_vectors_match_fraction_oracle(int_path_module):
    m, oracle = int_path_module
    got = m.find_singular_vectors(3)
    expect = []
    for n in range(4):
        for s in range(-n, m.charge_bound):
            stacked = []
            for g in SIX_RAISING:
                stacked.extend(fraction_cell_matrix(m, g, (n, s), oracle))
            for coeffs in nullspace(stacked, ncols=len(m.cells[(n, s)])):
                expect.append((n, s, tuple(coeffs)))
    assert [(sv.depth, sv.charge, sv.coefficients) for sv in got] == expect
    assert all(type(c) is F for sv in got for c in sv.coefficients)


# -- Kac-Kazhdan: the sl2-loop singular vectors at depth 6 -----------------------

@pytest.mark.parametrize("hw", [HighestWeight.of(F(1, 2), 1, 4),
                                HighestWeight.of(F(-2, 3), 3, 5)], ids=_hw_id)
def test_kac_kazhdan_singular_vectors_at_depth_6(hw):
    # at integral mu >= 0 and c - mu >= 0, f_0^{mu+1} v and e_-1^{c-mu+1} v
    # are singular; N = 6 searches depth 4, one deeper than a depth-5 run
    m = build_verma(hw, 6)
    svs = m.find_singular_vectors(4)
    mu, k = int(hw.mu), int(hw.c - hw.mu)
    for mono in [(f(0),) * (mu + 1), (e(-1),) * (k + 1)]:
        cell = (depth_of(mono), charge_of(mono))
        found = [sv.vector() for sv in svs if (sv.depth, sv.charge) == cell]
        assert Vec.basis(mono) in found, (mono, found)
        for g in RAISING_KILL_SET:
            assert not m.act(g, Vec.basis(mono)), (mono, g)


# -- Shapovalov form: an oracle for the singular search -------------------------

def _sigma(g):
    """The anti-involution e_i -> f_-i, f_i -> e_-i, h_i -> h_-i, d_i -> d_-i,
    C -> C; it reverses every defining bracket, central terms included."""
    return Gen({"e": "f", "f": "e"}.get(g.family, g.family), -g.degree)


def _shapovalov_gram(module, cell, memo):
    """The Shapovalov form on one cell as sparse rows: <u.v, w.v> is the
    coefficient of v in sigma(u) w . v (Shapovalov, Funct. Anal. Appl. 6,
    1972; Kac-Kazhdan, Adv. Math. 34, 1979)."""
    basis, rows = module.cells[cell], []
    for u in basis:
        su = tuple(map(_sigma, reversed(u)))
        row = {j: pbw_straighten(su + w, module.hw, memo).get((), 0) for j, w in enumerate(basis)}
        rows.append({j: c for j, c in row.items() if c})
    return rows


@pytest.mark.parametrize("hw", [HighestWeight.of(F(1, 2), 2, 0),
                                HighestWeight.of(F(1, 3), 1, 2)], ids=_hw_id)
def test_singular_vectors_lie_in_the_shapovalov_radical(hw):
    # a singular vector off the highest-weight line generates a proper
    # submodule, so the form pairs it to 0 with its whole weight space
    m, memo = build_verma(hw, 5), {}
    svs = [sv for sv in m.find_singular_vectors(3) if (sv.depth, sv.charge) != (0, 0)]
    assert len(svs) == 3
    for sv in svs:
        gram = _shapovalov_gram(m, (sv.depth, sv.charge), memo)
        for j in range(len(sv.basis)):
            assert sum(c * gram[i].get(j, 0) for i, c in enumerate(sv.coefficients)) == 0


def test_shapovalov_form_is_nondegenerate_at_a_generic_weight():
    # with prime denominators the form has full rank mod p on every searched
    # cell, so no cell has a radical and only the highest-weight line is found
    m, memo = build_verma(HighestWeight.of(F(-2, 3), F(3, 5), F(-4, 7)), 5), {}
    cells = [(n, s) for n in range(4) for s in range(-n, m.charge_bound)]
    assert len(cells) == 42
    for cell in cells:
        assert full_rank_mod_p(_shapovalov_gram(m, cell, memo), len(m.cells[cell])), cell
    assert [(sv.depth, sv.charge) for sv in m.find_singular_vectors(3)] == [(0, 0)]


@pytest.mark.parametrize("hw, cells", [
    (HighestWeight.of(F(1, 2), 2, 0), [(0, 3), (2, -1)]),
    (HighestWeight.of(F(1, 2), 0, 0), [(0, 1), (1, -1)]),
], ids=["1/2,2,0", "1/2,0,0"])
def test_shapovalov_radical_is_spanned_by_the_singular_vectors(hw, cells):
    # the radical is a submodule, so where a kill-set operator carries a
    # cell only into cells with a zero radical (weight-empty ones included),
    # the cell's radical is killed by the whole kill set: its dimension is
    # the number of singular vectors found there
    m, memo, radical = build_verma(hw, 5), {}, {}

    def radical_dim(n, s):
        if (n, s) not in radical:
            size = len(m.cells[(n, s)]) if n >= 0 and s >= -n else 0
            gram = _shapovalov_gram(m, (n, s), memo) if size else []
            radical[(n, s)] = size - rank(gram, size)
        return radical[(n, s)]

    svs = m.find_singular_vectors(3)
    checked = []
    for n in range(4):
        for s in range(-n, m.charge_bound):
            if radical_dim(n, s) and not any(
                    radical_dim(n - g.degree, s + charge_shift(g)) for g in RAISING_KILL_SET):
                found = [sv for sv in svs if (sv.depth, sv.charge) == (n, s)]
                assert radical_dim(n, s) == len(found), (n, s)
                checked.append((n, s))
    assert checked == cells


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("hw", [HighestWeight.of(F(1, 2), 2, 0), HighestWeight.of(F(1, 2), 0, 0),
                                HighestWeight.of(0, 0, 0),
                                HighestWeight.of(F(-2, 3), F(3, 5), F(-4, 7))], ids=_hw_id)
def test_window_and_cell_kill_set_searches_agree(hw, N):
    # the highest-weight search of a from_verma export, restricted to a cell,
    # finds exactly the singular search's vectors there, in the same order,
    # on every cell both search whole: depth <= N - 2 and charge <= S - 2
    # (the export leaves f_1 unasserted on charge S - 1)
    m = build_verma(hw, N)
    svs = m.find_singular_vectors(N - 2)
    extremal = find_extremal_vectors(from_verma(m), "highest")
    compared = []
    for n in range(N - 1):
        start = 0
        for s in range(-n, m.charge_bound - 1):
            stop = start + len(m.cells[(n, s)])
            restricted = [ev.coefficients[start:stop] for ev in extremal
                          if ev.offset == -n and any(ev.coefficients[start:stop])]
            assert restricted == [sv.coefficients for sv in svs
                                  if (sv.depth, sv.charge) == (n, s)], (n, s)
            compared.append((n, s))
            start = stop
    assert (0, 0) in compared and len(compared) > 1


# -- the closed-form gate: a soundness grid ---------------------------------------

def _kac_h(r, s, t):
    """h_{r,s} of the Virasoro Kac table at central charge 13 - 6(t + 1/t)."""
    t = F(t)
    return ((r * r - 1) * t + (s * s - 1) / t) / 4 - F(r * s - 1, 2)


def _coset_weight(c, mu, h_coset):
    """The highest weight of level c and h0-weight mu whose coset Virasoro
    factor has weight h_coset."""
    return HighestWeight.of(-h_coset - F(mu) * (mu + 2) / (4 * (c + 2)), mu, c)


def _gate_grid():
    """(weight, a cell where a singular vector must be found, or None)."""
    for hw in [(F(1, 2), 2, 0), (F(1, 3), 1, 3), (0, 0, 1), (0, 3, 1), (2, 1, 1),
               (F(-1, 2), 2, 3),  # integral
               (F(-2, 3), F(3, 5), F(-4, 7)), (F(3, 4), F(-1, 3), F(2, 5)),  # generic
               (0, F(1, 2), F(1, 3)), (-1, F(-3, 2), F(-7, 3)),
               (F(1, 2), 1, -2), (0, 0, -2), (F(1, 3), F(2, 5), -2), (-1, 3, -2),  # critical
               (F(1, 2), 1, -3), (F(1, 3), 0, -4), (0, 2, -5), (F(1, 4), -3, -1)]:  # c < 0
        yield HighestWeight.of(*hw), None
    # beta = alpha + j delta: (mu + 1) + j(c + 2) = m puts one at (mj, m)
    for j, m, c in [(0, 2, F(1, 3)), (1, 1, F(1, 3)), (1, 2, F(-1, 2)), (2, 1, F(1, 5)),
                    (1, 3, F(2, 3)), (2, 2, F(-3, 2)), (4, 1, F(-7, 4))]:
        yield HighestWeight.of(F(1, 3), m - 1 - j * (c + 2), c), (m * j, m)
    # beta = -alpha + j delta: -(mu + 1) + j(c + 2) = m puts one at (mj, -m)
    for j, m, c in [(1, 1, F(1, 3)), (2, 1, F(1, 5)), (1, 2, F(-1, 2)), (2, 2, F(-5, 4)),
                    (3, 1, F(-1, 3)), (4, 1, F(2, 7))]:
        yield HighestWeight.of(F(1, 3), j * (c + 2) - m - 1, c), (m * j, -m)
    # coset weight h_{r,s} (h_{1,1} = 0) puts one at (rs, 0), and the first
    # of them moved by 1/11 is off the Kac table
    for c, t, mu, kac in COSET_GRID:
        assert -c - F(3 * c) / (c + 2) == 13 - 6 * (t + 1 / F(t))
        for r, s in kac:
            yield _coset_weight(c, mu, _kac_h(r, s, t)), (r * s, 0)
        yield _coset_weight(c, mu, _kac_h(*kac[0], t) + F(1, 11)), None


# (c, t, mu, Kac labels (r, s) with rs <= 4): each c has coset central charge
# 13 - 6(t + 1/t)
COSET_GRID = [(0, F(3, 2), F(1, 3), [(1, 1), (2, 1), (1, 3)]),
              (1, 2, F(2, 7), [(1, 2), (2, 1), (2, 2)]),
              (-4, 2, 0, [(1, 2), (3, 1)]),
              (-5, F(3, 2), F(1, 3), [(1, 1), (1, 4)]),
              (F(-5, 2), 4, F(1, 5), [(1, 2), (2, 1)]),
              (F(-1, 3), F(10, 9), F(1, 3), [(1, 2), (2, 1)]),
              (10, 4, F(2, 3), [(1, 1), (4, 1)])]
GATE_GRID = list(_gate_grid())
# the coset weights of the grid moved off the Kac table
MOVED_COSET_WEIGHTS = {_coset_weight(c, mu, _kac_h(*kac[0], t) + F(1, 11))
                       for c, t, mu, kac in COSET_GRID}


@pytest.mark.parametrize("hw, expect", GATE_GRID,
                         ids=[_hw_id(hw) for hw, _ in GATE_GRID])
def test_the_gate_never_skips_a_singular_vector(hw, expect, monkeypatch):
    # the ungated searches eliminate on every cell; the gate must keep each
    # cell where they find a singular vector and change no result
    m = build_verma(hw, 4, 5)
    wm = from_verma(build_verma(hw, 3, 4))
    unmarked = WindowedModule(wm.window, wm.families, wm.central, wm.basis, wm.blocks)
    with monkeypatch.context() as ungated:
        ungated.setattr(TruncatedModule, "may_be_singular", lambda module, n, s: True)
        svs = m.find_singular_vectors(4)
    found = {(sv.depth, sv.charge) for sv in svs}
    assert all(m.may_be_singular(n, s) for n, s in found), found
    assert m.find_singular_vectors(4) == svs
    assert expect is None or expect in found
    assert find_extremal_vectors(wm, "highest") == find_extremal_vectors(unmarked, "highest")


@pytest.mark.parametrize("hw, expect", GATE_GRID,
                         ids=[_hw_id(hw) for hw, _ in GATE_GRID])
def test_the_d_free_columns_hold_every_singular_vector(hw, expect, monkeypatch):
    # reading only a cell's d-free columns must change no search at any cell
    # of depth <= 4.  The coset weights of the grid and c = -2 read whole
    # cells; the coset weights moved off the Kac table read the d-free ones
    m = build_verma(hw, 4, 5)
    free = [[j for j, mono in enumerate(m.cells[(n, s)]) if "d_" not in mono_str(mono)]
            for n in range(5) for s in range(-n, 6)]
    got = [m.affine_columns(n, s) for n in range(5) for s in range(-n, 6)]
    if hw.c == -2 or (expect is not None and expect[1] == 0):
        assert got == [None] * len(got)
    else:
        assert hw not in MOVED_COSET_WEIGHTS or got[0] is not None
        assert got in ([None] * len(got), free)
    with monkeypatch.context() as whole:
        whole.setattr(TruncatedModule, "affine_columns", lambda module, n, s: None)
        svs = build_verma(hw, 4, 5).find_singular_vectors(4)
        highest = find_extremal_vectors(from_verma(build_verma(hw, 4, 5)), "highest")
    assert m.find_singular_vectors(4) == svs
    assert find_extremal_vectors(from_verma(m), "highest") == highest


# -- lazy cells: counts at construction, a cell enumerated on first read ------

def test_cell_counts_match_enumeration_to_depth_8():
    N, S = 8, 10
    dims = _cell_dims(N, S)
    assert list(dims) == [(n, s) for n in range(N + 1) for s in range(-n, S + 1)]
    for (n, s), dim in dims.items():
        assert dim == len(_enumerate_cell(n, s)), (n, s)


def test_cell_counts_match_generating_function_to_depth_10():
    N, S = 10, 14
    dims = _cell_dims(N, S)
    table = genfunc_dims(N, S)
    for n in range(N + 1):
        for s in range(-n, S + 1):
            assert dims[(n, s)] == table.get((n, s), 0), (n, s)
    assert sum(dims.values()) == 301_470


def eager_build(depth_bound, charge_bound, max_factors, max_basis):
    """The construction loop that enumerated and indexed every cell up front,
    each cell checked against the factor cap as its enumeration did: (cells,
    index, running basis totals), or the ResourceBound it raised."""
    cells, index, totals = {}, {}, []
    total = 0
    for n in range(depth_bound + 1):
        for s in range(-n, charge_bound + 1):
            monos = _enumerate_cell(n, s)
            longest = max(map(len, monos), default=0)
            if longest > max_factors:
                raise ResourceBound(
                    f"cell ({n}, {s}) holds a monomial of {longest} factors, "
                    f"over the factor cap {max_factors}; shrink the bounds")
            total += len(monos)
            if total > max_basis:
                raise ResourceBound(
                    f"basis size exceeds cap {max_basis}; raise "
                    f"{MAX_BASIS_ENV} or shrink the bounds")
            cells[(n, s)] = tuple(monos)
            index[(n, s)] = {m: i for i, m in enumerate(monos)}
            totals.append(total)
    return cells, index, totals


def _outcome(build, *args):
    try:
        result = build(*args)
    except ResourceBound as exc:
        return "raised", str(exc)
    return "built", (result.basis_size if isinstance(result, TruncatedModule)
                     else result[2][-1])


@pytest.mark.parametrize("N,S", [(0, 12), (2, 7), (3, 4), (4, 2)])
def test_construction_raises_exactly_like_the_eager_loop(N, S, monkeypatch):
    _, _, totals = eager_build(N, S, 2 * N + S, 10 ** 9)
    basis_caps = sorted({t + dt for t in totals for dt in (-1, 0)}) + [10 ** 9]
    outcomes = set()
    for cap in range(12):
        for max_basis in basis_caps:
            monkeypatch.setattr(avw.verma, "MAX_FACTORS", cap)
            monkeypatch.setenv(MAX_BASIS_ENV, str(max_basis))
            expect = _outcome(eager_build, N, S, cap, max_basis)
            got = _outcome(TruncatedModule, GENERIC, N, S)
            assert got == expect, (cap, max_basis)
            outcomes.add(expect[0] if expect[0] == "built" else expect[1].split()[0])
    # the factor cap and the basis cap each decide some of these builds
    assert {"cell", "basis"} <= outcomes
    assert ("built" in outcomes) == (2 * N + S <= 11)


def test_construction_and_singular_search_enumerate_only_what_they_read(monkeypatch):
    seen = []

    def spy(n, s, real=_enumerate_cell):
        seen.append((n, s))
        return real(n, s)

    monkeypatch.setattr(avw.verma, "_enumerate_cell", spy)
    m = build_verma(HighestWeight.of(F(1, 2), 2, 0), 5)
    rows = dims_rows(m)
    assert len(m.cells) == len(rows) and list(m.cells) == [(n, s) for n, s, _ in rows]
    assert (5, 9) in m.cells and (5, 10) not in m.index
    assert m.basis_size == sum(dim for _, _, dim in rows) == 4160
    assert seen == []
    m.find_singular_vectors(3)
    # sources have depth <= 3 and charge <= S - 1 = 8.  f_1 would lift the
    # charge of its target to 9, at one depth less, but at charge 8 an
    # earlier kill-set operator always certifies the cell first, so f_1 is
    # never built there and no cell of the top charge slice is enumerated
    read = {(n, s) for n in range(4) for s in range(-n, 9)}
    assert sorted(seen) == sorted(read)  # each cell enumerated once
    assert sum(m.weight_space_dim(n, s) for n, s in seen) == 531


def test_fully_read_cells_equal_an_eager_build():
    m = build_verma(GENERIC, 4, 5)
    cells, index, totals = eager_build(4, 5, MAX_FACTORS, 10 ** 9)
    assert list(m.index.items()) == list(index.items())
    assert list(m.cells.items()) == list(cells.items())
    assert list(m.index) == list(m.cells) == list(cells)
    assert m.basis_size == totals[-1]
    assert m.cells[(2, 1)] is m.cells[(2, 1)] and m.index[(2, 1)] is m.index[(2, 1)]
    for bad in [(5, 0), (2, -3), (0, 6)]:
        assert bad not in m.cells and m.cells.get(bad) is None
        with pytest.raises(KeyError):
            m.index[bad]


def test_concurrent_first_reads_keep_one_value_per_cell():
    # racing first readers may each enumerate a cell, but all of them must
    # get back the one tuple and the one index the memo keeps
    def read_all(m):
        return [(m.cells[c], m.index[c]) for c in m.cells if c[0] <= 3]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(4):
                m = build_verma(GENERIC, 5)
                futures = [pool.submit(read_all, m) for _ in range(8)]
                results = [fut.result(timeout=60) for fut in futures]
                for got in results:
                    assert all(monos is monos0 and index is index0 for (monos, index),
                               (monos0, index0) in zip(got, results[0]))
    finally:
        sys.setswitchinterval(old)


def test_used_module_is_freed_by_reference_counting():
    gc.disable()
    try:
        m = build_verma(HighestWeight.of(F(1, 2), 2, 0), 4)
        m.find_singular_vectors(2)
        wm = from_verma(m)
        assert wm.block("f", 1, -2)[0] is not None
        ref = weakref.ref(m)
        del m, wm
        assert ref() is None
    finally:
        gc.enable()
