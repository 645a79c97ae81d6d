import random
from fractions import Fraction as F
from math import gcd

import pytest

from avw.algebra import Gen
from avw.catalog import (HVirABC, IntA, IntAB, IntB, LoopMod, T2Corrupt, T2Mod,
                         spec_text)
from avw.errors import (AvwError, GeneratorOutsideAlgebra, InternalError, InvalidArgument,
                        NotAModule, OutOfWindow, WindowTooNarrow, ZeroShift)
from avw.linalg import nullspace
from avw.verma import HighestWeight, build_verma
from avw.windows import (KILL_HIGHEST, KILL_LOWEST, BasisLabel, WindowedModule, _joint_kernel,
                         _nonzeros, _rational_roots,
                         bracket_consistency_defects,
                         catalog_match, stacked_shift_injectivity, find_extremal_vectors,
                         from_catalog, from_verma, injectivity_json, match_json,
                         scramble_window, submodule_witness, support,
                         support_json, witness_json)


def test_from_catalog_intab_window():
    wm = from_catalog(IntAB(F(1, 2), F(1, 3)), (-2, 2))
    assert [wm.dim(k) for k in wm.offsets()] == [1] * 5
    assert reference_full_matrix(wm, "d", 1, 0) == [[F(5, 6)]]
    # e, f, h act as zero in the extension to the full algebra
    assert reference_full_matrix(wm, "e", 1, 0) == [[0]]
    labs = wm.labels(0)
    assert labs[0].d0 == F(1, 2) and labs[0].h0 == 0


def test_from_catalog_loop_window():
    wm = from_catalog(LoopMod(1, F(0), F(0)), (-1, 1))
    assert [wm.dim(k) for k in wm.offsets()] == [2, 2, 2]


def test_from_catalog_t2_e_matrices_zero():
    wm = from_catalog(T2Mod(F(0), F(0), F(1)), (-1, 1))
    assert wm.families == frozenset("dhe")
    for m in (-2, -1, 0, 1, 2):
        for k in wm.offsets():
            if wm.has_block("e", m, k):
                assert all(all(x == 0 for x in col) for col in wm.block("e", m, k))


def test_from_catalog_rejects_corrupt():
    with pytest.raises(ValueError):
        from_catalog(T2Corrupt(F(0), F(0), F(1)), (-1, 1))


def test_corrupt_rejection_is_typed():
    with pytest.raises(NotAModule, match="no consistent window"):
        from_catalog(T2Corrupt(F(0), F(0), F(1)), (-1, 1))
    assert issubclass(NotAModule, AvwError) and issubclass(NotAModule, ValueError)


def test_windows_respect_weight_shift_and_diagonals():
    wm = from_catalog(LoopMod(2, F(1, 2), F(1, 3)), (-2, 2))
    for k in wm.offsets():
        dmat = reference_full_matrix(wm, "d", 0, k)
        hmat = reference_full_matrix(wm, "h", 0, k)
        for r in range(wm.dim(k)):
            for c in range(wm.dim(k)):
                if r != c:
                    assert dmat[r][c] == 0 and hmat[r][c] == 0
            assert dmat[r][r] == wm.labels(k)[r].d0
            assert hmat[r][r] == wm.labels(k)[r].h0


@pytest.mark.parametrize("spec", [
    IntAB(F(1, 2), F(1, 3)), IntAB(F(0), F(0)), IntA(F(3)), IntB(F(0)),
    HVirABC(F(0), F(0), F(5)), T2Mod(F(0), F(0), F(1)),
    LoopMod(0, F(0), F(0)), LoopMod(1, F(1, 2), F(1, 3)), LoopMod(2, F(0), F(1)),
], ids=spec_text)
def test_bracket_consistency_of_catalog_windows(spec):
    wm = from_catalog(spec, (-3, 3))
    assert bracket_consistency_defects(wm, degree_limit=3) == []


def test_bracket_consistency_full_degree_sweep_small_window():
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 2))
    assert bracket_consistency_defects(wm) == []


def test_bracket_consistency_of_verma_window():
    m = build_verma(HighestWeight.of(F(1, 2), F(1, 3), F(7, 5)), 2, 3)
    wm = from_verma(m, pad_top=2, max_degree=2)
    assert bracket_consistency_defects(wm, degree_limit=2) == []


def test_stacked_map_loop_injective():
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 5))
    for k in range(-2, 3):
        for i in (1, 2):
            assert stacked_shift_injectivity(wm, k, i).kernel_dim == 0


def test_stacked_map_zero_d_coefficient_still_injective():
    # LoopMod(1,0,0): d-part vanishes at offset 0, but e/f/h have no common kernel
    wm = from_catalog(LoopMod(1, F(0), F(0)), (-1, 3))
    rep = stacked_shift_injectivity(wm, 0, 1)
    assert rep.kernel_dim == 0


def test_stacked_map_intab_injective_via_d_alone():
    wm = from_catalog(IntAB(F(1, 2), F(1, 3)), (-1, 3))
    rep = stacked_shift_injectivity(wm, 0, 1)
    assert rep.dim_source == 1 and rep.kernel_dim == 0


def test_stacked_map_verma_top_degenerate():
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 3)
    wm = from_verma(m)
    for i in (1, 2):
        rep = stacked_shift_injectivity(wm, 0, i)
        assert rep.kernel_dim == rep.dim_source == wm.dim(0)
        assert rep.kernel_dim > 0


def test_stacked_map_kernel_rank_identity():
    from avw.linalg import rank
    wm = from_catalog(LoopMod(2, F(0), F(0)), (-2, 5))
    for k in (-1, 0, 1):
        for i in (1, 2):
            rep = stacked_shift_injectivity(wm, k, i)
            stacked, _ = reference_injectivity(wm, k, i)
            assert rep.kernel_dim == rep.dim_source - rank(stacked)


def test_stacked_map_errors():
    wm = from_catalog(LoopMod(1, F(0), F(0)), (-1, 1))
    with pytest.raises(ZeroShift):
        stacked_shift_injectivity(wm, 0, 0)
    with pytest.raises(OutOfWindow):
        stacked_shift_injectivity(wm, 0, 1)  # k+i+1 = 2 outside
    hwm = from_catalog(HVirABC(F(0), F(0), F(5)), (-2, 2))
    with pytest.raises(GeneratorOutsideAlgebra):
        stacked_shift_injectivity(hwm, 0, 1)


def test_extremal_vectors_loop_simple_none():
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-3, 3))
    assert find_extremal_vectors(wm, "highest") == []
    assert find_extremal_vectors(wm, "lowest") == []


def test_extremal_vectors_trivial_loop():
    wm = from_catalog(LoopMod(0, F(0), F(0)), (-3, 3))
    hi = find_extremal_vectors(wm, "highest")
    assert [(v.offset, v.coefficients) for v in hi] == [(0, (1,))]
    lo = find_extremal_vectors(wm, "lowest")
    assert [(v.offset, v.coefficients) for v in lo] == [(0, (1,))]


def test_extremal_vectors_window_too_narrow():
    wm = from_catalog(LoopMod(0, F(0), F(0)), (0, 1))
    with pytest.raises(WindowTooNarrow):
        find_extremal_vectors(wm, "highest")


def test_extremal_matches_lab_singular_vectors():
    hw = HighestWeight.of(F(1, 2), F(2), F(7, 5))
    m = build_verma(hw, 3)
    wm = from_verma(m)
    from avw.verma import mono_str
    window_vecs = set()
    for v in find_extremal_vectors(wm, "highest"):
        nz = frozenset((lab.name, c) for lab, c in zip(v.labels, v.coefficients) if c)
        window_vecs.add((v.offset, nz))
    lab_vecs = set()
    for sv in m.find_singular_vectors(1):
        nz = frozenset((mono_str(mono), c) for mono, c in sv.vector())
        lab_vecs.add((-sv.depth, nz))
    assert window_vecs == lab_vecs


def test_support_examples():
    wm = from_catalog(IntAB(F(1, 2), F(1, 3)), (-2, 2))
    assert support(wm) == [(F(1, 2) + j, F(0)) for j in range(-2, 3)]
    wm = from_catalog(LoopMod(1, F(0), F(0)), (0, 0))
    assert support(wm) == [(F(0), F(-1)), (F(0), F(1))]
    empty = WindowedModule((0, 1), frozenset("defh"), F(0),
                           {0: (), 1: ()}, {})
    assert support(empty) == []


def test_support_single_coset():
    for spec in (IntAB(F(1, 2), F(1, 3)), LoopMod(2, F(1, 4), F(0))):
        wm = from_catalog(spec, (-3, 3))
        d0s = sorted({d0 for d0, _ in support(wm)})
        assert all((y - x).denominator == 1 for x, y in zip(d0s, d0s[1:]))


def test_witness_examples():
    rep = submodule_witness(from_catalog(IntAB(F(0), F(0)), (-3, 3)))
    assert len(rep.witnesses) == 1
    w = rep.witnesses[0]
    assert w.offset == 0 and w.coefficients == (1,)
    rep = submodule_witness(from_catalog(IntAB(F(1, 2), F(1, 3)), (-3, 3)))
    assert rep.witnesses == ()
    assert "boundary-inconclusive" in rep.verdict
    rep = submodule_witness(from_catalog(IntB(F(7)), (-3, 3)))
    assert [w.offset for w in rep.witnesses] == [0]
    rep = submodule_witness(from_catalog(LoopMod(0, F(0), F(0)), (-3, 3)))
    assert [w.offset for w in rep.witnesses] == [0]
    # h-action with c != 0 moves the would-be trivial line: no witness
    rep = submodule_witness(from_catalog(HVirABC(F(0), F(0), F(5)), (-3, 3)))
    assert rep.witnesses == ()


def test_witness_fully_trivial_h_extension():
    # HVirABC(0,0,0): the d- and h-actions both kill v_0, so the trivial
    # line is certified even though only the {d,h} families are present
    rep = submodule_witness(from_catalog(HVirABC(F(0), F(0), F(0)), (-3, 3)))
    assert [w.offset for w in rep.witnesses] == [0]


def test_block_lookup_outside_window_raises():
    wm = from_catalog(LoopMod(0, F(0), F(0)), (-1, 1))
    with pytest.raises(OutOfWindow):
        wm.block("d", 5, 0)


def test_from_verma_rejects_full_charge_cap():
    m = build_verma(HighestWeight.of(F(0), F(0), F(0)), 2, 3)
    with pytest.raises(OutOfWindow):
        from_verma(m, charge_cap=3)


def test_witness_reducible_but_infinite_support_is_inconclusive():
    # IntAB(0,1) is reducible with an infinite-support submodule: the window
    # must not claim a finitely-supported witness
    rep = submodule_witness(from_catalog(IntAB(F(0), F(1)), (-3, 3)))
    assert rep.witnesses == ()
    assert "boundary-inconclusive" in rep.verdict


@pytest.mark.parametrize("lam", [0, 1, 2])
@pytest.mark.parametrize("ab", [(F(0), F(0)), (F(1, 2), F(1, 3))])
def test_catalog_match_round_trip(lam, ab):
    a, b = ab
    wm = from_catalog(LoopMod(lam, a, b), (-3, 3))
    scrambled = scramble_window(wm, seed=1234 + lam)
    res = catalog_match(scrambled)
    assert res.spec == LoopMod(lam, a, b)


def test_catalog_match_with_vanishing_d_ladder_entry():
    # (a + b + k) = 0 at the probe offset: inference must still pin b
    spec = LoopMod(1, F(0), F(3))
    wm = from_catalog(spec, (-3, 3))
    assert wm.block("d", 1, -3)[0][0] == 0  # the vanishing ladder entry
    res = catalog_match(scramble_window(wm, seed=321))
    assert res.spec == spec


def test_catalog_match_unscrambled_and_intab():
    res = catalog_match(from_catalog(LoopMod(1, F(1, 2), F(0)), (-3, 3)))
    assert res.spec == LoopMod(1, F(1, 2), F(0))
    res = catalog_match(from_catalog(IntAB(F(1, 2), F(1, 3)), (-3, 3)))
    assert res.spec == LoopMod(0, F(1, 2), F(1, 3))


def test_catalog_match_verma_no_match():
    m = build_verma(HighestWeight.of(F(1, 2), F(1, 3), F(0)), 3)
    res = catalog_match(from_verma(m))
    assert res.spec is None
    assert "not uniformly positive" in res.evidence["reason"]


def test_catalog_match_rejects_wrong_families_and_narrow_window():
    wm = from_catalog(HVirABC(F(0), F(0), F(5)), (-3, 3))
    res = catalog_match(wm)
    assert res.spec is None
    small = from_catalog(LoopMod(1, F(0), F(0)), (0, 1))
    with pytest.raises(WindowTooNarrow):
        catalog_match(small)


def test_scramble_is_deterministic_per_seed():
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 2))
    a = scramble_window(wm, seed=5)
    b = scramble_window(wm, seed=5)
    assert a.blocks == b.blocks
    assert a.basis == b.basis
    c = scramble_window(wm, seed=6)
    assert c.blocks != a.blocks


def test_json_report_shapes():
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 5))
    rep = injectivity_json(stacked_shift_injectivity(wm, 0, 1))
    assert set(rep) == {"k", "i", "dimV_k", "kernel_dim", "kernel_basis"}
    wrep = witness_json(submodule_witness(from_catalog(IntAB(F(0), F(0)), (-3, 3))))
    assert wrep["witnesses"][0]["offset"] == 0
    assert wrep["witnesses"][0]["vector"] == {"v_0": "1"}
    mrep = match_json(catalog_match(from_catalog(LoopMod(0, F(0), F(0)), (-3, 3))))
    assert mrep["spec"] == "loop:lambda=0,a=0,b=0"
    srep = support_json(wm)
    assert ["1/2", "1"] in srep["support"]


@pytest.mark.parametrize("spec", [
    LoopMod(1, F(1, 2), F(1, 3)), LoopMod(2, F(1, 4), F(0)),
    LoopMod(1, F(0), F(0)), LoopMod(0, F(1, 2), F(1, 3)),
], ids=spec_text)
def test_stacked_map_contract_on_simple_loop_modules(spec):
    # simple loop modules have no extremal vectors, so the stacked map must
    # be injective wherever it fits in the window
    from avw.catalog import is_simple
    assert is_simple(spec).simple
    wm = from_catalog(spec, (-4, 4))
    for i in (1, 2):
        for k in range(-4, 4 - i):
            assert stacked_shift_injectivity(wm, k, i).kernel_dim == 0, (k, i)


TRICHOTOMY_SPECS = [
    IntAB(F(1, 2), F(1, 3)), IntAB(F(0), F(0)), IntAB(F(0), F(1)),
    IntA(F(3)), IntB(F(0)), IntB(F(7)),
    LoopMod(0, F(0), F(0)), LoopMod(0, F(1, 2), F(1, 3)),
    LoopMod(1, F(0), F(0)), LoopMod(1, F(1, 2), F(1, 3)),
    LoopMod(2, F(0), F(1)),
]


@pytest.mark.parametrize("spec", TRICHOTOMY_SPECS, ids=spec_text)
def test_trichotomy_consistency_at_desk_scale(spec):
    # every window over the full algebra either matches a loop module, or
    # exhibits an extremal/witness vector, or explicitly reports that only
    # an infinite-support submodule could remain (boundary-inconclusive);
    # a window never claims both "no match" and a decided "no witness"
    wm = from_catalog(spec, (-3, 3))
    matched = catalog_match(wm).spec is not None
    wrep = submodule_witness(wm)
    extremal = bool(find_extremal_vectors(wm, "highest")
                    or find_extremal_vectors(wm, "lowest"))
    inconclusive = "boundary-inconclusive" in wrep.verdict
    assert matched or wrep.witnesses or extremal or inconclusive
    from avw.catalog import is_simple
    if isinstance(spec, (IntA, IntB)) or not is_simple(spec).simple:
        # reducible instances: the finite trivial line is found whenever it
        # is a submodule; quotient-side cases stay inconclusive in-window
        assert wrep.witnesses or inconclusive
    else:
        assert matched


def test_partial_f_columns_in_verma_export():
    m = build_verma(HighestWeight.of(F(1, 2), F(1, 3), F(0)), 2)
    wm = from_verma(m)
    # f_0 from the top charge slice of an offset is unasserted
    cols = wm.block("f", 0, 0)
    assert any(c is None for c in cols)
    # so the stacked map from offset -1 stops at its partial f_1 block
    assert any(c is None for c in wm.block("f", 1, -1))
    with pytest.raises(OutOfWindow, match="f-action of degree 1 from offset -1 is only "
                                          "partially represented"):
        stacked_shift_injectivity(wm, -1, 1)


def _count_apply_gen(module):
    """Record every apply_gen call the export makes on this module."""
    calls = []
    apply_gen = module.apply_gen

    def counted(g, mono):
        calls.append((g, mono))
        return apply_gen(g, mono)

    module.apply_gen = counted
    return calls


def _eager_blocks(module, wm, cap):
    """Every block of a from_verma export, built column by column up front
    from the module's action, with charges up to cap kept per offset."""
    monos = {k: [mono for s in range(k, cap + 1) for mono in module.cells[(-k, s)]]
             if k <= 0 else [] for k in wm.offsets()}
    blocks = {}
    for fam, m, k in wm.blocks:
        target = {mono: r for r, mono in enumerate(monos[k + m])}
        cols = []
        for mono in monos[k]:
            img = module.apply_gen(Gen(fam, m), mono)
            if any(m2 not in target for m2 in img):
                cols.append(None)
                continue
            col = [F(0)] * len(target)
            for m2, c2 in img.items():
                col[target[m2]] = c2
            cols.append(col)
        blocks[(fam, m, k)] = cols
    return blocks


def test_from_verma_builds_columns_on_first_read():
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 3)
    calls = _count_apply_gen(m)
    wm = from_verma(m)
    assert sum(len(cols) for cols in wm.blocks.values()) > 0
    assert calls == []
    block = wm.block("f", 1, -2)
    col = block[3]
    assert len(calls) == 1
    assert block[3] is col
    assert len(calls) == 1


def test_injectivity_builds_only_the_blocks_it_stacks():
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 3)
    calls = _count_apply_gen(m)
    wm = from_verma(m)
    stacked_shift_injectivity(wm, k=0, i=1)
    read = [("d", 1, 0), ("d", 2, 0), ("e", 1, 0), ("f", 1, 0), ("h", 1, 0)]
    assert len(calls) == sum(len(wm.block(*key)) for key in read)
    assert {g for g, _ in calls} == {Gen(fam, deg) for fam, deg, _ in read}
    assert {mono for _, mono in calls} == set(
        mono for s in range(0, m.charge_bound) for mono in m.cells[(0, s)])


def test_lazy_export_equals_eager_build():
    m = build_verma(HighestWeight.of(F(1, 3), F(1), F(3)), 2)
    wm = from_verma(m)
    eager = _eager_blocks(m, wm, cap=m.charge_bound - 1)
    assert any(c is None for cols in eager.values() for c in cols)
    assert set(eager) == set(wm.blocks)
    for key, cols in eager.items():
        assert len(wm.blocks[key]) == len(cols)
        assert [wm.blocks[key][j] for j in range(len(cols))] == cols, key
    eager_wm = WindowedModule(wm.window, wm.families, wm.central, wm.basis, eager)
    lazy_scrambled = scramble_window(from_verma(m), seed=11)
    eager_scrambled = scramble_window(eager_wm, seed=11)
    assert lazy_scrambled.basis == eager_scrambled.basis
    assert lazy_scrambled.blocks == eager_scrambled.blocks


def test_verma_nonzeros_are_the_memo_images_kept_once():
    m = build_verma(HighestWeight.of(F(1, 3), F(1), F(3)), 2)
    wm = from_verma(m)
    eager = _eager_blocks(m, wm, cap=m.charge_bound - 1)
    calls = _count_apply_gen(m)
    for key, cols in eager.items():
        block = wm.blocks[key]
        for j, col in enumerate(cols):
            pairs = _nonzeros(block, j)
            assert _nonzeros(block, j) is pairs
            if col is None:
                assert pairs is None and block[j] is None
                continue
            assert len({r for r, _ in pairs}) == len(pairs)
            assert dict(pairs) == {r: x for r, x in enumerate(col) if x}, (key, j)
            # the memo's coefficients as they stand: integral ones stay int
            assert all(type(x) is int for _, x in pairs if x == int(x))
            dense = block[j]
            assert dense == col and block[j] is dense
            assert all(type(x) is F for x in dense if x)
            assert dict(_nonzeros(block, j)) == dict(pairs)
    assert len(calls) == sum(len(cols) for cols in eager.values())


def _trial_division_roots(p):
    """Rational-root-theorem search over all divisor pairs; small inputs only."""
    mult = 1
    for a in p:
        mult = mult * a.denominator // gcd(mult, a.denominator)
    ip = [int(a * mult) for a in p]
    roots = []
    while ip[0] == 0:
        roots.append(F(0))
        ip = ip[1:]
    divs = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    if len(ip) > 1:
        for num in divs(abs(ip[0])):
            for den in divs(abs(ip[-1])):
                for cand in (F(num, den), F(-num, den)):
                    if sum(c * cand ** i for i, c in enumerate(ip)) == 0:
                        roots.append(cand)
    return sorted(set(roots))


def test_rational_roots_closed_form_matches_trial_division():
    rng = random.Random(2)
    polys = [[F(0), F(1)], [F(0), F(0), F(3)], [F(-1, 4), F(0), F(1)], [F(2), F(0), F(1)],
             [F(1), F(-2), F(1)], [F(0), F(-5, 6), F(1)], [F(7, 3)]]
    for _ in range(300):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 2))]
        poly = [F(rng.randint(1, 5), rng.randint(1, 4))]
        for r in roots:
            poly = [F(0)] + poly
            for i in range(len(poly) - 1):
                poly[i] -= r * poly[i + 1]
        polys.append(poly)
        polys.append([F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(3)])
    for poly in polys:
        while poly and poly[-1] == 0:
            poly.pop()
        if not poly:
            continue
        assert _rational_roots(list(poly)) == _trial_division_roots(poly)


def test_rational_roots_rejects_degree_above_two():
    with pytest.raises(InternalError):
        _rational_roots([F(1), F(0), F(0), F(1)])
    with pytest.raises(ValueError):
        _rational_roots([])


def test_zero_polynomial_and_unknown_direction_are_typed():
    with pytest.raises(InvalidArgument, match="zero polynomial"):
        _rational_roots([])
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-3, 3))
    for direction in ("up", "Highest", ""):
        with pytest.raises(InvalidArgument, match="highest' or 'lowest"):
            find_extremal_vectors(wm, direction)
    assert issubclass(InvalidArgument, AvwError) and issubclass(InvalidArgument, ValueError)


# -- oracles: per-entry stacking and unit-vector bracket consistency, as they
#    were before whole columns were stacked --------------------------------

def reference_full_matrix(wm, family, m, k):
    cols = wm.block(family, m, k)
    if any(c is None for c in cols):
        raise OutOfWindow("partially represented")
    nrows = wm.dim(k + m)
    return [[cols[j][r] for j in range(len(cols))] for r in range(nrows)]


def reference_injectivity(wm, k, i):
    stacked = []
    stacked.extend(reference_full_matrix(wm, "d", i, k))
    stacked.extend(reference_full_matrix(wm, "d", i + 1, k))
    for fam in ("e", "f", "h"):
        stacked.extend(reference_full_matrix(wm, fam, i, k))
    kernel = nullspace(stacked, ncols=wm.dim(k))
    return stacked, kernel


def reference_extremal(wm, direction, record):
    kill = KILL_HIGHEST if direction == "highest" else KILL_LOWEST
    p, q = wm.window
    offs = [k for k in wm.offsets() if all(p <= k + m <= q for _, m in kill)]
    if not offs:
        raise WindowTooNarrow("no offset with all kill-set images inside")
    results = []
    for k in offs:
        if wm.dim(k) == 0:
            continue
        cols_ok = [j for j in range(wm.dim(k))
                   if all(wm.block(fam, m, k)[j] is not None for fam, m in kill)]
        if not cols_ok:
            continue
        stacked = []
        for fam, m in kill:
            block = wm.block(fam, m, k)
            for r in range(wm.dim(k + m)):
                stacked.append([block[j][r] for j in cols_ok])
        record.append(stacked)
        for v in nullspace(stacked, ncols=len(cols_ok)):
            full = [F(0)] * wm.dim(k)
            for idx, j in enumerate(cols_ok):
                full[j] = v[idx]
            results.append((k, tuple(full)))
    return results


def reference_witness(wm, record):
    p, q = wm.window
    results = []
    for k in wm.offsets():
        n = wm.dim(k)
        if n == 0:
            continue
        ops = [(fam, m) for fam in sorted(wm.families) for m in range(p - k, q - k + 1)
               if not (m == 0 and fam in ("d", "h")) and wm.has_block(fam, m, k)]
        if not ops:
            continue
        by_h0 = {}
        for j, lab in enumerate(wm.labels(k)):
            by_h0.setdefault(lab.h0, []).append(j)
        for h0 in sorted(by_h0):
            cols = [j for j in by_h0[h0]
                    if all(wm.block(fam, m, k)[j] is not None for fam, m in ops)]
            if not cols:
                continue
            stacked = []
            for fam, m in ops:
                block = wm.block(fam, m, k)
                for r in range(wm.dim(k + m)):
                    stacked.append([block[j][r] for j in cols])
            record.append(stacked)
            for v in nullspace(stacked, ncols=len(cols)):
                full = [F(0)] * n
                for idx, j in enumerate(cols):
                    full[j] = v[idx]
                results.append((k, tuple(full)))
    return results


def _record_nullspace_inputs(monkeypatch):
    import avw.windows
    seen = []
    real = avw.windows.nullspace

    def spy(rows, ncols=None):
        seen.append([dict(row) if isinstance(row, dict) else list(row) for row in rows])
        return real(rows, ncols=ncols)

    monkeypatch.setattr(avw.windows, "nullspace", spy)
    return seen


STACKING_WEIGHTS = [HighestWeight.of(F(1, 2), 2, 0), HighestWeight.of(0, 0, 1),
                    HighestWeight.of(F(1, 2), 1, 2), HighestWeight.of(F(1, 3), 0, 2),
                    HighestWeight.of(F(-2, 3), F(3, 5), F(-4, 7))]


def _stacking_windows():
    for hw in STACKING_WEIGHTS:
        wm = from_verma(build_verma(hw, 3, 4))
        yield f"verma:{hw.lam_d},{hw.mu},{hw.c}", wm
        yield f"verma:{hw.lam_d},{hw.mu},{hw.c}:scrambled", scramble_window(wm, 3)
    for spec in (IntAB(F(0), F(0)), IntA(F(3)), LoopMod(0, F(0), F(0)),
                 LoopMod(1, F(1, 2), F(1, 3)), LoopMod(2, F(0), F(1))):
        wm = from_catalog(spec, (-3, 3))
        yield spec_text(spec), wm
        yield spec_text(spec) + ":scrambled", scramble_window(wm, 5)
    # too narrow for the extremal kill sets
    yield "narrow", from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-1, 1))


@pytest.mark.parametrize("name, wm", list(_stacking_windows()), ids=lambda x: x if isinstance(x, str) else "")
def test_column_stacking_matches_per_entry_oracle(name, wm, monkeypatch):
    seen = _record_nullspace_inputs(monkeypatch)
    # every block, including blocks with no columns, no rows or None columns:
    # each column's (row, coeff) pairs are the nonzeros of the dense column
    shapes = set()
    for fam, m, k in wm.blocks:
        block = wm.block(fam, m, k)
        pairs = [_nonzeros(block, j) for j in range(len(block))]
        shapes.add((wm.dim(k) == 0, wm.dim(k + m) == 0, None in pairs))
        for j, col in enumerate(pairs):
            dense = block[j]
            assert (col is None) == (dense is None), (fam, m, k, j)
            if dense is not None:
                assert len(dense) == wm.dim(k + m), (fam, m, k, j)
                assert list(col) == [(r, x) for r, x in enumerate(dense) if x], (fam, m, k, j)
    if name.startswith("verma"):
        assert shapes >= {(True, False, False), (False, True, False), (False, False, True)}
    # injectivity on every offset and shift the window holds
    p, q = wm.window
    for k in wm.offsets():
        for i in range(p - k, q - k):
            if i == 0:
                continue
            try:
                stacked, kernel = reference_injectivity(wm, k, i)
            except OutOfWindow:
                with pytest.raises(OutOfWindow):
                    stacked_shift_injectivity(wm, k, i)
                continue
            seen.clear()
            rep = stacked_shift_injectivity(wm, k, i)
            # the oracle's rows as sparse rows, as for the searches below; a
            # source offset without basis vectors stacks nothing
            expect_sparse = [{j: x for j, x in enumerate(row) if x} for row in stacked if any(row)]
            assert seen == ([expect_sparse] if wm.dim(k) else [])
            assert rep.kernel_basis == tuple(tuple(v) for v in kernel)
    # witness and both extremal searches: same stacked matrices, same kernels
    for search, reference in [
            (submodule_witness, reference_witness),
            (lambda w: find_extremal_vectors(w, "highest"),
             lambda w, rec: reference_extremal(w, "highest", rec)),
            (lambda w: find_extremal_vectors(w, "lowest"),
             lambda w, rec: reference_extremal(w, "lowest", rec))]:
        expect_stacks = []
        try:
            expect = reference(wm, expect_stacks)
        except WindowTooNarrow:
            with pytest.raises(WindowTooNarrow):
                search(wm)
            continue
        seen.clear()
        got = search(wm)
        got = got.witnesses if hasattr(got, "witnesses") else got
        # the oracle's rows as sparse rows: nonzeros only, zero rows dropped,
        # in operator order; nullspace then takes them sparsest first
        expect_sparse = [[{j: x for j, x in enumerate(row) if x} for row in stack if any(row)]
                         for stack in expect_stacks]
        assert seen == expect_sparse
        assert [(x.offset, x.coefficients) for x in got] == expect


def test_each_column_is_read_once_per_analysis(monkeypatch):
    import avw.windows
    reads = []
    real = avw.windows._nonzeros
    monkeypatch.setattr(avw.windows, "_nonzeros",
                        lambda block, j: reads.append((id(block), j)) or real(block, j))
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-4, 4))
    stacked_shift_injectivity(wm, 0, 1)
    assert len(reads) == len(set(reads)) == 5 * wm.dim(0)
    hw_wm = from_verma(build_verma(HighestWeight.of(F(1, 2), 2, 0), 3, 4))
    for window in (wm, hw_wm):
        for search in (submodule_witness, lambda w: find_extremal_vectors(w, "highest"),
                       lambda w: find_extremal_vectors(w, "lowest")):
            reads.clear()
            try:
                search(window)
            except WindowTooNarrow:
                continue
            assert len(reads) == len(set(reads)) > 0


class _UnreadColumn(list):
    """A block whose column 0 must not be read."""

    def __getitem__(self, j):
        assert j != 0, "column 0 was read after an earlier op left it unasserted"
        return super().__getitem__(j)


def test_a_column_an_earlier_op_leaves_unasserted_is_not_read():
    labels = (BasisLabel("v0", F(0), F(0)), BasisLabel("v1", F(0), F(0)))
    wm = WindowedModule((0, 1), frozenset("de"), F(0),
                        {0: labels, 1: labels[:1]},
                        {("d", 1, 0): [None, [F(1)]], ("e", 1, 0): _UnreadColumn([[0], [F(2)]])})
    assert _joint_kernel(wm, (("d", 1), ("e", 1)), 0, range(2)) == []
    with pytest.raises(OutOfWindow, match="d-action of degree 1 from offset 0 is only partially"):
        _joint_kernel(wm, (("d", 1), ("e", 1)), 0, range(2), whole=True)


def test_full_matrix_of_a_block_without_columns_keeps_its_rows():
    wm = from_verma(build_verma(HighestWeight.of(F(1, 2), 2, 0), 2), pad_top=2)
    assert wm.dim(1) == 0 and wm.dim(0) > 1 and wm.dim(-1) > wm.dim(0)
    assert reference_full_matrix(wm, "d", -1, 1) == [[]] * wm.dim(0)
    assert reference_full_matrix(wm, "e", -2, 1) == [[]] * wm.dim(-1)
    assert reference_full_matrix(wm, "d", 1, 0) == []
    assert reference_full_matrix(wm, "d", 1, 1) == []
    # the stacked map from the empty offset, and into it, through its blocks
    rep = stacked_shift_injectivity(wm, 1, -1)
    assert (rep.dim_source, rep.kernel_dim, rep.kernel_basis) == (0, 0, ())
    rep = stacked_shift_injectivity(wm, 0, 1)
    assert rep.kernel_dim == rep.dim_source == wm.dim(0)


def reference_apply_columns(wm, family, m, k, coords):
    cols = wm.block(family, m, k)
    out = [F(0)] * wm.dim(k + m)
    for j, cj in enumerate(coords):
        if not cj:
            continue
        col = cols[j]
        if col is None:
            return None
        for r, x in enumerate(col):
            if x:
                out[r] += cj * x
    return out


def reference_bracket_consistency_defects(wm, degree_limit=None):
    from avw.algebra import bracket_gens
    p, q = wm.window
    fams = sorted(wm.families)
    degs = sorted({m for (_, m, _) in wm.blocks})
    if degree_limit is not None:
        degs = [m for m in degs if abs(m) <= degree_limit]
    defects = []
    for f1 in fams:
        for m1 in degs:
            for f2 in fams:
                for m2 in degs:
                    br = bracket_gens(Gen(f1, m1), Gen(f2, m2))
                    for k in range(p, q + 1):
                        if not (p <= k + m1 <= q and p <= k + m2 <= q
                                and p <= k + m1 + m2 <= q):
                            continue
                        if not (wm.has_block(f2, m2, k) and wm.has_block(f1, m1, k + m2)
                                and wm.has_block(f1, m1, k) and wm.has_block(f2, m2, k + m1)):
                            continue
                        if any(g.family != "C" and not wm.has_block(g.family, m1 + m2, k)
                               for g, _ in br):
                            continue
                        dim = wm.dim(k)
                        for j in range(dim):
                            unit = [F(0)] * dim
                            unit[j] = F(1)
                            a1 = reference_apply_columns(wm, f2, m2, k, unit)
                            b1 = (reference_apply_columns(wm, f1, m1, k + m2, a1)
                                  if a1 is not None else None)
                            a2 = reference_apply_columns(wm, f1, m1, k, unit)
                            b2 = (reference_apply_columns(wm, f2, m2, k + m1, a2)
                                  if a2 is not None else None)
                            if b1 is None or b2 is None:
                                continue
                            lhs = [F(0)] * wm.dim(k + m1 + m2)
                            ok = True
                            for g, coeff in br:
                                if g.family == "C":
                                    if m1 + m2 == 0:
                                        lhs[j] += coeff * wm.central
                                    continue
                                img = reference_apply_columns(wm, g.family, m1 + m2, k, unit)
                                if img is None:
                                    ok = False
                                    break
                                for r, x in enumerate(img):
                                    if x:
                                        lhs[r] += coeff * x
                            if not ok:
                                continue
                            diff = [lhs[r] - (b1[r] - b2[r]) for r in range(len(lhs))]
                            if any(diff):
                                defects.append({"x": f"{f1}_{m1}", "y": f"{f2}_{m2}",
                                                "offset": k, "column": j})
    return defects


CONSISTENCY_SPECS = [
    IntAB(F(1, 2), F(1, 3)), IntAB(F(0), F(0)), IntA(F(3)), IntB(F(0)),
    HVirABC(F(0), F(0), F(5)), HVirABC(F(1, 2), F(-1, 3), F(2)), T2Mod(F(0), F(0), F(1)),
    T2Mod(F(1, 3), F(1, 2), F(-2)), LoopMod(0, F(0), F(0)), LoopMod(1, F(1, 2), F(1, 3)),
    LoopMod(2, F(0), F(1)), LoopMod(2, F(1, 3), F(6, 5)),
]


@pytest.mark.parametrize("spec", CONSISTENCY_SPECS, ids=spec_text)
def test_bracket_consistency_matches_unit_vector_oracle(spec):
    wm = from_catalog(spec, (-2, 2))
    for limit in (None, 1):
        expect = reference_bracket_consistency_defects(wm, limit)
        assert bracket_consistency_defects(wm, limit) == expect == []
    scrambled = scramble_window(wm, 7)
    assert bracket_consistency_defects(scrambled, 2) == \
        reference_bracket_consistency_defects(scrambled, 2) == []


def test_bracket_consistency_of_corrupted_windows_matches_oracle():
    # a module whose matrices were altered by hand: the defect list is
    # nonempty and both checkers name the same (x, y, offset, column)
    for spec, key, j, r in [(LoopMod(1, F(1, 2), F(1, 3)), ("d", 1, 0), 1, 0),
                            (LoopMod(2, F(1, 3), F(6, 5)), ("e", -1, 1), 0, 1),
                            (IntAB(F(1, 2), F(1, 3)), ("d", 2, -1), 0, 0),
                            (T2Mod(F(0), F(0), F(1)), ("h", 0, 0), 0, 0)]:
        wm = from_catalog(spec, (-2, 2))
        wm.blocks[key][j][r] += F(1, 7)
        expect = reference_bracket_consistency_defects(wm)
        assert expect, spec
        assert bracket_consistency_defects(wm) == expect, spec
    verma = from_verma(build_verma(HighestWeight.of(F(1, 2), F(1, 3), F(7, 5)), 2, 3),
                       pad_top=2, max_degree=2)
    eager = WindowedModule(verma.window, verma.families, verma.central, verma.basis,
                           {key: list(cols) for key, cols in verma.blocks.items()})
    assert any(c is None for cols in eager.blocks.values() for c in cols)
    assert bracket_consistency_defects(eager, 2) == \
        reference_bracket_consistency_defects(eager, 2) == []
    col = next(c for c in eager.blocks[("f", 0, -1)] if c is not None and any(c))
    col[next(r for r, x in enumerate(col) if x)] *= 2
    expect = reference_bracket_consistency_defects(eager, 2)
    assert expect and bracket_consistency_defects(eager, 2) == expect


def test_bracket_consistency_skips_vectors_that_need_an_unknown_image():
    # one unasserted column and one missing block in a module's window: a
    # vector whose sum needs either is skipped, never reported as a defect
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 2))
    wm.blocks[("d", 1, 0)][1] = None
    del wm.blocks[("e", 2, -1)]
    assert bracket_consistency_defects(wm) == reference_bracket_consistency_defects(wm) == []
    wm.blocks[("d", 1, 1)][0][0] += F(1, 7)
    expect = reference_bracket_consistency_defects(wm)
    assert expect and bracket_consistency_defects(wm) == expect


def _column_entries(wm):
    for cols in wm.blocks.values():
        for j in range(len(cols)):
            if cols[j] is not None:
                yield from cols[j]


def test_exported_zeros_are_int_and_nonzero_entries_fraction():
    windows = [from_verma(build_verma(hw, 2, 3)) for hw in STACKING_WEIGHTS]
    windows += [from_catalog(spec, (-2, 2)) for spec in CONSISTENCY_SPECS]
    windows += [scramble_window(wm, 9) for wm in windows[::3]]
    zeros = 0
    for wm in windows:
        entries = list(_column_entries(wm))
        assert any(entries), wm.description
        for x in entries:
            assert type(x) is (int if x == 0 else F), (wm.description, x)
        zeros += entries.count(0)
    assert zeros > 1000
