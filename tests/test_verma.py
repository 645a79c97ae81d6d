import random
from fractions import Fraction as F

import pytest

from avw.algebra import C, Gen, bracket_gens, d, e, f, h
from avw.errors import AvwError, InvalidBound, OutOfWindow, ResourceBound
from avw.linalg import Vec
from avw.verma import (DEFAULT_MAX_FACTORS, HighestWeight, TruncatedModule,
                       _enumerate_cell, build_verma, charge_of, charge_shift,
                       depth_of, dims_rows, mono_str, pbw_straighten,
                       singular_vectors_json, verma_act, write_dims_csv)

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
    assert verma_act(m, d(0), Vec.basis((f(-1),))) == Vec({(f(-1),): F(-1, 2)})
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
                    lhs = Vec.zero()
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
    with pytest.raises(OutOfWindow):
        m.find_singular_vectors(1)  # needs depth bound >= 3


def test_lowering_out_the_bottom_raises():
    m = build_verma(GENERIC, 1)
    with pytest.raises(OutOfWindow):
        m.act(d(-1), Vec.basis((d(-1),)))


def test_resource_bounds():
    with pytest.raises(ResourceBound):
        build_verma(GENERIC, 3, max_basis=10)
    with pytest.raises(ResourceBound):
        build_verma(GENERIC, 0, 30, max_factors=5)


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
            assert m.act(g, v).is_zero(), (sv.depth, sv.charge, g)


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
    from concurrent.futures import ThreadPoolExecutor

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
    with open(out, "w", newline="") as fh:
        write_dims_csv(m, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "depth,charge,dim"
    assert f"1,0,3" in lines


def test_singular_vectors_json_schema():
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(7, 5)), 2)
    payload = singular_vectors_json(m.find_singular_vectors(0))
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
    k = DEFAULT_MAX_FACTORS
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
            if len(factors) + a0 > max_factors:
                raise ResourceBound(
                    f"monomial exceeds the factor cap {max_factors}; "
                    f"raise max_factors to build this cell")
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
    found.sort(key=lambda m: tuple(g.sort_key() for g in m))
    return found


def _enumerates_like_oracle(n, s, cap):
    """Both give the same monomials in the same order, or both raise the same
    ResourceBound; returns whether they raised."""
    try:
        expect = reference_enumerate_cell(n, s, cap)
    except ResourceBound as exc:
        with pytest.raises(ResourceBound) as got:
            _enumerate_cell(n, s, cap)
        assert str(got.value) == str(exc)
        return True
    assert _enumerate_cell(n, s, cap) == expect, (n, s, cap)
    return False


def test_enumerate_cell_matches_oracle_to_depth_7():
    # every cell of a depth-7 truncation at the default charge bound N + 4;
    # the top charges of depth 7 pass the default factor cap
    raised = [_enumerates_like_oracle(n, s, DEFAULT_MAX_FACTORS)
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

    def spy(x, y):  # records outer calls only: bracket_gens calls itself
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
            return Vec.zero()
        return real(x, y)

    monkeypatch.setattr(avw.algebra, "bracket_gens", broken)
    assert build_verma(hw, 1).apply_gen(h(1), (h(-1),)) == {}
    assert before.apply_gen(h(1), (h(-1),)) == {(): 14}
