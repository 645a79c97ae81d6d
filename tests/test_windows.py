import dataclasses
import json
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avw.windows
from avw.algebra import Gen, bracket_gens
from avw.catalog import (HVirABC, IntA, IntAB, IntB, LoopMod, T2Corrupt, T2Mod,
                         acting_algebra, label_str, offset_labels, spec_text)
from avw.cli import main
from avw.errors import (AvwError, GeneratorOutsideAlgebra, InternalError, InvalidArgument,
                        NotAModule, OutOfWindow, WindowTooNarrow, ZeroShift)
from avw.linalg import nullspace, rank, stack_columns
from avw.verma import RAISING_KILL_SET, HighestWeight, build_verma
from avw.windows import (KILL_LOWEST, BasisLabel, WindowedModule, _joint_kernel,
                         _rational_roots, _VermaColumns, _verify_match,
                         bracket_consistency_defects,
                         catalog_match, stacked_shift_injectivity, find_extremal_vectors,
                         from_catalog, from_verma, scramble_window, submodule_witness,
                         support)


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
            if ("e", m, k) in wm.blocks:
                assert all(col == () for col in wm.block("e", m, k))


@pytest.mark.parametrize("spec, families", [
    (IntAB(F(1, 2), F(1, 3)), "defh"), (IntA(F(1, 2)), "defh"), (IntB(F(2, 3)), "defh"),
    (HVirABC(F(1, 3), F(1, 2), F(2)), "dh"), (T2Mod(F(0), F(1), F(1)), "deh"),
    (LoopMod(0, F(1, 3), F(6, 5)), "defh"), (LoopMod(2, F(1, 2), F(1, 3)), "defh"),
], ids=lambda x: spec_text(x) if not isinstance(x, str) else x)
def test_catalog_window_follows_its_kind(spec, families, capsys):
    # the families are the acting algebra's (Vir-only kinds extend by zero to
    # all four), the labels those of offset_labels, and module-check sweeps
    # the same basis over the same range
    wm = from_catalog(spec, (-2, 2))
    assert wm.families == frozenset(families)
    if not isinstance(spec, (IntAB, IntA, IntB)):
        assert wm.families == frozenset(fam for fam, _ in acting_algebra(spec).families)
    for k in wm.offsets():
        assert [lab.name for lab in wm.labels(k)] == [
            label_str(spec, lab) for lab in offset_labels(spec, k)]
    assert main(["module-check", f"--module={spec_text(spec)}", "--deg-range=-1..1",
                 "--label-range=-2..2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["basis_vectors"] == sum(wm.dim(k) for k in wm.offsets())


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
    wm = from_verma(m, pad_top=2, degrees=range(-2, 3))
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
    assert dense_block(wm, "d", 1, -3)[0][0] == 0  # the vanishing ladder entry
    res = catalog_match(scramble_window(wm, seed=321))
    assert res.spec == spec


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(p, q):
    out = [F(0)] * max(len(p), len(q))
    for i, x in enumerate(p):
        out[i] += x
    for i, y in enumerate(q):
        out[i] -= y
    return _poly_trim(out)


def _poly_gcd(p, q):
    p, q = list(p), list(q)
    while q:
        r = list(p)
        while len(r) >= len(q) and r:
            factor, shift = r[-1] / q[-1], len(r) - len(q)
            for i, y in enumerate(q):
                r[shift + i] -= factor * y
            _poly_trim(r)
        p, q = q, r
    return [x / p[-1] for x in p]


def reference_b_candidates(wm):
    """The lam = 0 b candidates through the gcd over Q[b] of the constraints
    o2 (u+b)(u+1+b) - o1 o1' (u+2b), u+b and u+2b; then 0 and 1."""
    p, q = wm.window
    a = wm.labels(p)[0].d0 - p
    o1 = {k: dict(wm.block("d", 1, k)[0]).get(0, 0) for k in range(p, q)}
    o2 = {k: dict(wm.block("d", 2, k)[0]).get(0, 0) for k in range(p, q - 1)}
    polys = []
    for k in range(p, q - 1):
        lhs = _poly_mul([o2[k]], _poly_mul([a + k, F(1)], [a + k + 1, F(1)]))
        poly = _poly_sub(lhs, _poly_mul([o1[k] * o1[k + 1]], [a + k, F(2)]))
        if poly:
            polys.append(poly)
    polys += [[a + k, F(1)] for k, v in o1.items() if v == 0]
    polys += [[a + k, F(2)] for k, v in o2.items() if v == 0]
    g = []
    for poly in polys:
        g = _poly_gcd(g, poly) if g else list(poly)
    roots = _rational_roots(g) if len(g) >= 2 else []
    vanishing = 0 in o1.values() or 0 in o2.values()
    return list(dict.fromkeys(roots + [F(0), F(1)])), vanishing


def test_catalog_match_b_candidates_are_the_gcd_roots():
    # the common rational roots of the constraints are the rational roots of
    # their gcd over Q[b]: (b - r) divides the gcd iff it divides each one
    rng = random.Random(13)
    vanishing = integral = 0
    for t in range(240):
        a, b = (F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2))
        if t % 4 == 0:
            a, b = F(rng.randint(-4, 4)), F(t % 8 // 4)
            integral += 1
        spec = rng.choice([LoopMod(0, a, b), IntAB(a, b), IntA(a), IntB(a)])
        lo = rng.randint(-4, 2)
        wm = from_catalog(spec, (lo, lo + rng.randint(2, 6)))
        if t % 2:
            wm = scramble_window(wm, seed=t)
        expected, vanishes = reference_b_candidates(wm)
        vanishing += vanishes
        got = catalog_match(wm).evidence["candidates"]
        assert [c["b"] for c in got] == [str(x) for x in expected], (spec, wm.window, t)
    assert vanishing >= 50 and integral == 60


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


def _relabel(k, j, **weight):
    """An edit that gives basis vector j of offset k another d0 or h0 label."""
    def edit(parts):
        labels = list(parts["basis"][k])
        labels[j] = dataclasses.replace(labels[j], **weight)
        parts["basis"][k] = tuple(labels)
    return edit


def _zero_h1_from_p(parts):
    parts["blocks"][("h", 1, -2)] = [()] * 2


# each case edits a loop window over -2..2 in one way, and the match refuses it
@pytest.mark.parametrize("lam, edit, reason", [
    (1, lambda parts: parts.update(central=F(1)), "central element acts nontrivially"),
    (1, _relabel(0, 0, d0=F(7)), "offset 0 mixes d0-eigenvalues"),
    (0, _relabel(1, 0, d0=F(7)), "d0-eigenvalues do not advance by one per offset"),
    (1, _relabel(0, 0, h0=F(3)),
     "h0-spectrum at offset 0 is not the 2-dimensional sl2 string"),
    (1, _zero_h1_from_p, "h-action does not ladder on the highest line"),
    (1, lambda parts: parts["blocks"].pop(("e", 2, 0)),
     "no candidate parameters reproduce the matrices"),
])
def test_catalog_match_refuses_each_inconsistent_window(lam, edit, reason):
    spec = LoopMod(lam, F(1, 2), F(1, 3))
    wm = from_catalog(spec, (-2, 2))
    parts = {"central": wm.central, "basis": dict(wm.basis), "blocks": dict(wm.blocks)}
    assert catalog_match(WindowedModule(wm.window, wm.families, **parts)).spec == spec
    edit(parts)
    res = catalog_match(WindowedModule(wm.window, wm.families, **parts))
    assert res.spec is None
    assert res.evidence["reason"] == reason


def test_scramble_is_deterministic_per_seed():
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 2))
    a = scramble_window(wm, seed=5)
    b = scramble_window(wm, seed=5)
    assert a.blocks == b.blocks
    assert a.basis == b.basis
    c = scramble_window(wm, seed=6)
    assert c.blocks != a.blocks


def test_json_report_shapes(capsys):
    def report(*args):
        assert main(list(args)) == 0
        return json.loads(capsys.readouterr().out)

    loop = ("--module=loop:lambda=1,a=1/2,b=1/3", "--window=-2..5")
    rep = report("injectivity", *loop, "--k=0", "--i=1")
    assert list(rep) == ["command", "module", "k", "i", "dimV_k", "kernel_dim", "kernel_basis"]
    wrep = report("witness", "--module=A:a=0,b=0", "--window=-3..3")
    assert wrep["witnesses"][0]["offset"] == 0
    assert wrep["witnesses"][0]["vector"] == {"v_0": "1"}
    mrep = report("match", "--module=loop:lambda=0,a=0,b=0", "--window=-3..3")
    assert mrep["spec"] == "loop:lambda=0,a=0,b=0"
    srep = report("support", *loop)
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
    from the module's action, with charges up to cap kept per offset: each
    column built dense, then kept as the nonzeros of the dense column."""
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
            cols.append(tuple((r, x) for r, x in enumerate(col) if x))
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


def test_catalog_window_builds_only_the_blocks_it_stacks(monkeypatch):
    # a catalog window makes a block the first time it is read: a wide one
    # calls act_basis for nothing until injectivity reads its five blocks
    calls = []
    real = avw.windows.act_basis
    monkeypatch.setattr(avw.windows, "act_basis",
                        lambda spec, g, label: calls.append((g, label)) or real(spec, g, label))
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-50, 50))
    assert calls == []
    stacked_shift_injectivity(wm, 0, 1)
    read = [("d", 1), ("d", 2), ("e", 1), ("f", 1), ("h", 1)]
    assert len(calls) == 5 * wm.dim(0)
    assert set(calls) == {(Gen(fam, m), (j, 0)) for fam, m in read for j in range(wm.dim(0))}


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


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("hw", [(F(1, 3), F(2), F(3)), (F(-2, 3), F(3, 5), F(-4, 7))],
                         ids=["integral", "generic"])
def test_lowering_blocks_of_a_highest_weight_export_are_injective(hw, depth):
    # free-module oracle: the truncated module is U(n-) v, free of rank one,
    # and U(n-) has no zero divisors, so every lowering operator (degree < 0,
    # or f_0) is injective on the asserted vectors of each kept weight space
    wm = from_verma(build_verma(HighestWeight.of(*hw), depth))
    checked = 0
    for fam, m, k in wm.blocks:
        if not (m < 0 or (fam, m) == ("f", 0)) or not wm.dim(k):
            continue
        block = wm.block(fam, m, k)
        cols = [col for col in (block[j] for j in range(len(block))) if col is not None]
        rows = stack_columns([cols])
        assert nullspace(rows, ncols=len(cols)) == [], (fam, m, k)
        assert rank(rows, ncols=len(cols)) == len(cols), (fam, m, k)  # no mod-p shortcut
        checked += 1
    # d, e, f, h at degrees -1..-3 from each offset they stay inside, and f_0
    assert checked == 4 * sum(min(3, depth - n) for n in range(depth)) + depth + 1


def _closure(gens, lo, hi):
    """The generators spanned by the Lie closure of gens in degrees lo..hi,
    found by bracketing; each bracket of two such generators is one
    generator times a nonzero scalar, so the span is closed."""
    found = set(gens)
    while True:
        new = set()
        for x in found:
            for y in found:
                terms = list(bracket_gens(x, y))
                if terms and lo <= terms[0][0].degree <= hi:
                    assert len(terms) == 1, (x, y, terms)
                    new.add(terms[0][0])
        if new <= found:
            return found
        found |= new


def test_kill_sets_generate_the_raising_and_lowering_parts():
    # a vector killed by x and y is killed by [x, y], so a kill set needs only
    # to generate n+ (n-) as a Lie algebra
    def one_term(x, y, z):
        terms = list(bracket_gens(x, y))
        return len(terms) == 1 and terms[0][0] == z and terms[0][1] != 0

    assert one_term(Gen("e", 0), Gen("f", 1), Gen("h", 1))
    assert one_term(Gen("h", 1), Gen("e", 0), Gen("e", 1))
    assert one_term(Gen("f", 0), Gen("e", -1), Gen("h", -1))
    assert one_term(Gen("h", -1), Gen("f", 0), Gen("f", -1))
    top = 6
    raising = {Gen(fam, m) for fam in "defh" for m in range(1, top + 1)} | {Gen("e", 0)}
    lowering = {Gen(fam, -m) for fam in "defh" for m in range(1, top + 1)} | {Gen("f", 0)}
    assert _closure(RAISING_KILL_SET, 0, top) == raising
    assert _closure({Gen(fam, m) for fam, m in KILL_LOWEST}, -top, 0) == lowering


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("hw", [(F(1, 3), F(2), F(3)), (F(-2, 3), F(3, 5), F(-4, 7))],
                         ids=["integral", "generic"])
def test_free_lowering_answers_what_elimination_answers(hw, depth):
    # on every offset the export, which carries its module, answers the
    # witness and lowest searches' op sets with [] and no column read, and a
    # window over the same basis and blocks with no module finds the same []
    # by elimination
    m = build_verma(HighestWeight.of(*hw), depth)
    calls = _count_apply_gen(m)
    wm = from_verma(m)
    plain = WindowedModule(wm.window, wm.families, wm.central, wm.basis, wm.blocks)
    assert wm.verma is m and plain.verma is None
    p, q = wm.window
    op_sets = []
    for k in wm.offsets():
        op_sets.append((k, [(fam, deg) for fam in sorted(wm.families)
                            for deg in range(p - k, q - k + 1)
                            if not (deg == 0 and fam in "dh") and (fam, deg, k) in wm.blocks]))
        if all(p <= k + deg <= q for _, deg in KILL_LOWEST):
            op_sets.append((k, KILL_LOWEST))
    assert [_joint_kernel(wm, ops, k) for k, ops in op_sets] == [[]] * len(op_sets)
    assert calls == []
    assert [_joint_kernel(plain, ops, k) for k, ops in op_sets] == [[]] * len(op_sets)
    assert calls


def test_only_the_highest_weight_export_is_marked_free():
    m = build_verma(HighestWeight.of(F(1, 2), 2, 0), 2)
    wm = from_verma(m)
    assert wm.verma is m
    # a scrambled copy is rebuilt without the module, as is any window built
    # directly or from the catalog: they take the exact path
    for other in (scramble_window(wm, 3), from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 2)),
                  WindowedModule(wm.window, wm.families, wm.central, wm.basis, wm.blocks)):
        assert other.verma is None
    # whole=True still reads and checks every column
    with pytest.raises(OutOfWindow, match="partially represented"):
        _joint_kernel(wm, [("f", 0)], -1, whole=True)



def _seam_answers(wm):
    """Every answer the kernel searches give on a window: both extremal
    searches, the witnesses, and each whole-mode kernel (or OutOfWindow)."""
    whole = []
    for ops in (RAISING_KILL_SET, KILL_LOWEST, *(
            (("d", i), ("d", i + 1), ("e", i), ("f", i), ("h", i)) for i in (-1, 1))):
        for k in wm.offsets():
            try:
                whole.append(_joint_kernel(wm, ops, k, whole=True))
            except OutOfWindow as exc:
                whole.append(str(exc))
    return (find_extremal_vectors(wm, "highest"), find_extremal_vectors(wm, "lowest"),
            submodule_witness(wm), whole)


@pytest.mark.parametrize("hw", [(F(1, 2), 2, 0), (F(-2, 3), F(3, 5), F(-4, 7))],
                         ids=["integral", "generic"])
def test_a_window_carrying_its_module_answers_as_the_export(hw):
    # three fresh modules, so each window's column reads start from nothing:
    # the export, the same basis and blocks with verma=m built by hand, and
    # with no module, which must reach the same answers by elimination
    hw = HighestWeight.of(*hw)
    runs = []
    for carried in ("export", "by hand", None):
        m = build_verma(hw, 3, 4)
        calls = _count_apply_gen(m)
        wm = from_verma(m)
        if carried != "export":
            wm = WindowedModule(wm.window, wm.families, wm.central, wm.basis, wm.blocks,
                                verma=m if carried else None)
        answers = _seam_answers(wm)
        runs.append((answers, calls))
    (export, export_calls), (by_hand, by_hand_calls), (plain, plain_calls) = runs
    assert by_hand == export and by_hand_calls == export_calls
    assert plain == export
    # the shortcuts only ever skip reads: whole mode reads every column
    assert set(export_calls) < set(plain_calls)
    assert any(v for v in export[3] if not isinstance(v, str))


def test_only_the_raising_kill_set_consults_the_singular_mark(monkeypatch):
    # a module that rules out every weight block: the highest search then
    # finds nothing, while any other op set, the kill set in another order
    # and whole mode answer as on a window that carries no module
    m = build_verma(HighestWeight.of(F(1, 2), 2, 0), 3, 4)
    wm = never = from_verma(m)
    monkeypatch.setattr(m, "may_be_singular", lambda n, s: False)
    plain = WindowedModule(wm.window, wm.families, wm.central, wm.basis, wm.blocks)
    assert find_extremal_vectors(never, "highest") == []
    assert find_extremal_vectors(plain, "highest")
    p, q = wm.window
    compared = 0
    for ops in (RAISING_KILL_SET[:3], RAISING_KILL_SET[::-1], KILL_LOWEST,
                (("d", 1), ("d", 2), ("e", 1), ("f", 1), ("h", 1))):
        for k in wm.offsets():
            if all(p <= k + m <= q for _, m in ops):
                assert _joint_kernel(never, ops, k) == _joint_kernel(plain, ops, k)
                compared += bool(_joint_kernel(plain, ops, k))
    for k in wm.offsets():
        if k + 2 <= q:
            try:
                expect = _joint_kernel(plain, RAISING_KILL_SET, k, whole=True)
            except OutOfWindow:
                continue
            assert _joint_kernel(never, RAISING_KILL_SET, k, whole=True) == expect
            compared += bool(expect)
    assert compared > 3


def test_export_keys_match_the_eager_loop_at_any_width():
    m = build_verma(HighestWeight.of(F(1, 2), F(2), F(0)), 2)
    for pad_top, degrees in ((3, range(-3, 4)), (2, range(-5, 6)), (0, (1, -1, 0)),
                             (6, (2, -2)), (4, (5, 6)), (3, (-7, 1, 1))):
        wm = from_verma(m, pad_top=pad_top, degrees=degrees)
        eager = [(fam, deg, k) for fam in "defh" for deg in sorted(set(degrees))
                 for k in range(-2, pad_top + 1) if -2 <= k + deg <= pad_top]
        assert list(wm.blocks) == eager and len(wm.blocks) == len(eager)
        assert all(key in wm.blocks for key in eager)
        assert not any(key in wm.blocks for key in [
            ("d", max(degrees) + 1, -2), ("e", 0, pad_top + 1), ("f", 1, pad_top), ("x", 0, 0)])
    # a 10^9-wide window holds only the blocks of its degrees, and nothing
    # is built until it is read (tests/test_cli.py runs such an injectivity
    # query under a memory limit)
    calls = _count_apply_gen(m)
    top = 10 ** 9 + 1
    wm = from_verma(m, pad_top=top, degrees=(10 ** 9, 10 ** 9 + 1))
    assert len(wm.blocks) == 28  # 4 families x (4 + 3) offsets at N = 2
    assert ("h", 10 ** 9, 1) in wm.blocks and ("h", 10 ** 9, 2) not in wm.blocks
    assert ("d", 10 ** 9 + 1, 0) in wm.blocks and ("d", 1, 0) not in wm.blocks
    assert wm.dim(top) == 0 and wm.labels(5) == () and calls == []
    block = wm.block("d", 10 ** 9, 0)
    assert calls == []
    assert [block[j] for j in range(len(block))] == [()] * wm.dim(0)
    assert len(calls) == wm.dim(0)


def test_verma_columns_are_the_memo_images_kept_once():
    m = build_verma(HighestWeight.of(F(1, 3), F(1), F(3)), 2)
    wm = from_verma(m)
    eager = _eager_blocks(m, wm, cap=m.charge_bound - 1)
    calls = _count_apply_gen(m)
    for key, cols in eager.items():
        block = wm.blocks[key]
        for j, col in enumerate(cols):
            pairs = block[j]
            assert block[j] is pairs  # built once and kept
            if col is None:
                assert pairs is None
                continue
            # the nonzeros of the dense column, rows ascending
            assert type(pairs) is tuple and pairs == col, (key, j)
            assert [r for r, _ in pairs] == sorted({r for r, _ in pairs})
            # the memo's coefficients as they stand: integral ones stay int
            assert all(x != 0 and type(x) is (int if x == int(x) else F) for _, x in pairs)
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

def dense_block(wm, family, m, k):
    """A block densified for the oracles that read entries: each column a
    list over the basis of offset k+m, 0 off its pairs; None stays None."""
    out = []
    for col in wm.block(family, m, k):
        dense = None
        if col is not None:
            dense = [0] * wm.dim(k + m)
            for r, x in col:
                dense[r] = x
        out.append(dense)
    return out


def reference_full_matrix(wm, family, m, k):
    cols = dense_block(wm, family, m, k)
    if any(c is None for c in cols):
        raise OutOfWindow("partially represented")
    nrows = wm.dim(k + m)
    return [[cols[j][r] for j in range(len(cols))] for r in range(nrows)]


def injectivity_ops(i):
    return (("d", i), ("d", i + 1), ("e", i), ("f", i), ("h", i))


def reference_injectivity(wm, k, i):
    stacked = []
    for fam, m in injectivity_ops(i):
        stacked.extend(reference_full_matrix(wm, fam, m, k))
    kernel = nullspace(stacked, ncols=wm.dim(k))
    return stacked, kernel


def dense_stack(wm, ops, k, cols):
    """The ops' dense rows over the basis vectors cols of offset k."""
    stacked = []
    for fam, m in ops:
        block = dense_block(wm, fam, m, k)
        for r in range(wm.dim(k + m)):
            stacked.append([block[j][r] for j in cols])
    return stacked


def nullspace_stacks(wm, ops, k, cols):
    """The stacks a kernel search hands ``nullspace`` over the basis vectors
    cols of offset k: one per h0 label, in ascending order, over that label's
    vectors that every op asserts, unless one op alone has full column rank
    on the label's vectors that it and the earlier ops assert.  Such a label
    is certified and stacks nothing."""
    labels = wm.labels(k)
    stacks = []
    for h0 in sorted({labels[j].h0 for j in cols}):
        js = [j for j in cols if labels[j].h0 == h0]
        for fam, m in ops:
            block = wm.block(fam, m, k)
            js = [j for j in js if block[j] is not None]
            if js and len(nullspace(dense_stack(wm, [(fam, m)], k, js), ncols=len(js))) == 0:
                break
        else:
            if js:
                stacks.append(dense_stack(wm, ops, k, js))
    return stacks


# every raising (lowering) operator of degree 0..2 (-2..0) that moves the
# weight: the kernels the kill sets must reproduce, independently of them
SIX_RAISING = (("e", 0), ("d", 1), ("e", 1), ("f", 1), ("h", 1), ("d", 2))
SIX_LOWERING = (("f", 0), ("d", -1), ("e", -1), ("f", -1), ("h", -1), ("d", -2))


def reference_extremal(wm, direction, record):
    # the stacks are those the search builds from its kill set; the kernel
    # is that of all six operators
    kill = RAISING_KILL_SET if direction == "highest" else KILL_LOWEST
    six = SIX_RAISING if direction == "highest" else SIX_LOWERING
    p, q = wm.window
    offs = [k for k in wm.offsets() if all(p <= k + m <= q for _, m in six)]
    if not offs:
        raise WindowTooNarrow("no offset with all kill-set images inside")
    results = []
    for k in offs:
        if wm.dim(k) == 0:
            continue
        cols_ok = [j for j in range(wm.dim(k))
                   if all(wm.block(fam, m, k)[j] is not None for fam, m in six)]
        if not cols_ok:
            continue
        # the search splits by weight; the kernel is the whole-offset one.  On
        # a window that carries its module, the highest search stacks nothing
        # for a weight block (k, h0) whose cell (-k, (mu - h0)/2) the module
        # rules out, where the six operators have no common kernel, and when
        # the module has d-free columns it stacks only the basis vectors whose
        # label names no d factor, under e_0 and f_1 and under d_1 or d_2 only
        # where no basis vector of its target offset has the block's h0
        labels, stacked, ops = wm.labels(k), range(wm.dim(k)), {}
        if direction == "highest" and wm.verma is not None:
            module = wm.verma
            kept = {h0 for h0 in {lab.h0 for lab in labels}
                    if module.may_be_singular(-k, (module.hw.mu - h0) / 2)}
            for h0 in {lab.h0 for lab in labels} - kept:
                js = [j for j in cols_ok if labels[j].h0 == h0]
                assert not js or nullspace(dense_stack(wm, six, k, js), ncols=len(js)) == []
            restricted = module.affine_columns(0, 0) is not None
            stacked = [j for j in stacked if labels[j].h0 in kept and not (
                restricted and any(x.startswith("d_") for x in labels[j].name.split()))]
            if restricted:
                ops = {h0: [(fam, m) for fam, m in kill if fam != "d" or h0 not in
                            {lab.h0 for lab in wm.labels(k + m)}] for h0 in kept}
        for h0 in sorted({labels[j].h0 for j in stacked}):
            record.extend(nullspace_stacks(wm, ops.get(h0, kill), k,
                                           [j for j in stacked if labels[j].h0 == h0]))
        for v in nullspace(dense_stack(wm, six, k, cols_ok), ncols=len(cols_ok)):
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
               if not (m == 0 and fam in ("d", "h")) and (fam, m, k) in wm.blocks]
        if not ops:
            continue
        record.extend(nullspace_stacks(wm, ops, k, range(n)))
        by_h0 = {}
        for j, lab in enumerate(wm.labels(k)):
            by_h0.setdefault(lab.h0, []).append(j)
        for h0 in sorted(by_h0):
            cols = [j for j in by_h0[h0]
                    if all(wm.block(fam, m, k)[j] is not None for fam, m in ops)]
            if not cols:
                continue
            for v in nullspace(dense_stack(wm, ops, k, cols), ncols=len(cols)):
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


def _as_sparse(stacks):
    """Dense stacks as sparse rows: nonzeros only, zero rows dropped, in
    operator order; nullspace then takes them sparsest first."""
    return [[{j: x for j, x in enumerate(row) if x} for row in stack if any(row)]
            for stack in stacks]


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


def assert_column_shape(wm, fam, m, k, col):
    """None, or the nonzero (row, coeff) pairs in ascending row order."""
    if col is None:
        return
    rows = [r for r, _ in col]
    assert type(col) is tuple and rows == sorted(set(rows)), (fam, m, k, col)
    assert all(0 <= r < wm.dim(k + m) for r in rows), (fam, m, k, col)
    assert all(x != 0 and type(x) in (int, F) for _, x in col), (fam, m, k, col)


@pytest.mark.parametrize("name, wm", list(_stacking_windows()), ids=lambda x: x if isinstance(x, str) else "")
def test_column_stacking_matches_per_entry_oracle(name, wm, monkeypatch):
    seen = _record_nullspace_inputs(monkeypatch)
    # every block, including blocks with no columns, no rows or None columns:
    # each column is None or its ascending nonzero (row, coeff) pairs
    shapes = set()
    for fam, m, k in wm.blocks:
        block = wm.block(fam, m, k)
        cols = [block[j] for j in range(len(block))]
        shapes.add((wm.dim(k) == 0, wm.dim(k + m) == 0, None in cols))
        for col in cols:
            assert_column_shape(wm, fam, m, k, col)
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
            # one stack per h0 label of the source offset that no single op
            # certifies, as sparse rows; a source offset without basis
            # vectors stacks nothing.  The kernel is the oracle's
            # whole-offset kernel.
            assert seen == _as_sparse(nullspace_stacks(
                wm, injectivity_ops(i), k, range(wm.dim(k))))
            assert rep.kernel_basis == tuple(tuple(v) for v in kernel)
    # witness and both extremal searches: the uncertified stacks in weight
    # order, and the oracle's kernels (whole-offset ones for the extremal searches)
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
        assert seen == _as_sparse(expect_stacks)
        assert [(x.offset, x.coefficients) for x in got] == expect


class _ReadColumns(list):
    """A block that records each column read in ``reads``."""

    def __init__(self, cols, reads):
        super().__init__(cols)
        self.reads = reads

    def __getitem__(self, j):
        self.reads.append((id(self), j))
        return super().__getitem__(j)


def test_each_column_is_read_once_per_analysis(monkeypatch):
    reads = []
    real = _VermaColumns.__getitem__
    monkeypatch.setattr(_VermaColumns, "__getitem__",
                        lambda block, j: reads.append((id(block), j)) or real(block, j))
    wm = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-4, 4))
    wm.blocks = {key: _ReadColumns(cols, reads) for key, cols in wm.blocks.items()}
    stacked_shift_injectivity(wm, 0, 1)
    assert len(reads) == len(set(reads)) == 5 * wm.dim(0)
    hw_wm = from_verma(build_verma(HighestWeight.of(F(1, 2), 2, 0), 3, 4))

    def lowest(w):
        return find_extremal_vectors(w, "lowest")

    for window in (wm, hw_wm):
        for search in (submodule_witness, lambda w: find_extremal_vectors(w, "highest"), lowest):
            reads.clear()
            try:
                search(window)
            except WindowTooNarrow:
                continue
            # a highest-weight export is free over the lowering operators, so
            # the searches whose op sets lower read no column there
            if window is hw_wm and search in (submodule_witness, lowest):
                assert reads == []
            else:
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
                        {("d", 1, 0): [None, ((0, F(1)),)],
                         ("e", 1, 0): _UnreadColumn([(), ((0, F(2)),)])})
    assert _joint_kernel(wm, (("d", 1), ("e", 1)), 0) == []
    with pytest.raises(OutOfWindow, match="d-action of degree 1 from offset 0 is only partially"):
        _joint_kernel(wm, (("d", 1), ("e", 1)), 0, whole=True)


class _CertifiedColumns(list):
    """A block whose columns in ``unread`` must not be read."""

    def __init__(self, cols, unread):
        super().__init__(cols)
        self.unread = unread

    def __getitem__(self, j):
        assert j not in self.unread, f"column {j} was read after its block was certified"
        return super().__getitem__(j)


def _certified_window(later):
    """Offset 0 holds u, u' (h0 = 0) and w (h0 = 2).  d_1 has full rank on
    <u, u'> and kills w, so it certifies the h0 = 0 block and later ops
    never read its columns; the block's kernel under every op is {0}.
    ``later`` is the e_1 block from offset 0."""
    labels = (BasisLabel("u", F(0), F(0)), BasisLabel("u'", F(0), F(0)),
              BasisLabel("w", F(0), F(2)))
    basis = {0: labels, 1: labels[:2] + (BasisLabel("x", F(1), F(2)),)}
    blocks = {("d", 1, 0): [((0, F(1)), (1, F(2))), ((1, F(3)),), ()],
              ("e", 1, 0): later}
    return WindowedModule((0, 1), frozenset("de"), F(0), basis, blocks)


def test_a_certified_block_is_not_read_by_later_ops(monkeypatch):
    seen = _record_nullspace_inputs(monkeypatch)
    # e_1 kills w too: only the h0 = 2 block reaches the exact kernel, with
    # its (empty) stack, and its kernel is <w>
    wm = _certified_window(_CertifiedColumns([None, (), ()], unread={0, 1}))
    assert _joint_kernel(wm, (("d", 1), ("e", 1)), 0) == [(F(0), F(0), F(1))]
    assert seen == [[]]
    # e_1 maps w to x: it certifies the h0 = 2 block as well
    seen.clear()
    wm = _certified_window(_CertifiedColumns([None, (), ((2, F(5)),)], unread={0, 1}))
    assert _joint_kernel(wm, (("d", 1), ("e", 1)), 0) == []
    assert seen == []


def test_whole_reads_every_column_and_raises_on_a_partial_later_block():
    # the certified block's e_1 columns are read all the same, and the
    # unasserted one raises as before the certificate
    reads = []
    wm = _certified_window(_ReadColumns([None, (), ((2, F(5)),)], reads))
    with pytest.raises(OutOfWindow, match="e-action of degree 1 from offset 0 is only partially"):
        _joint_kernel(wm, (("d", 1), ("e", 1)), 0, whole=True)
    assert sorted(j for _, j in reads) == [0, 1, 2]
    reads.clear()
    wm = _certified_window(_ReadColumns([((0, F(1)),), (), ((2, F(5)),)], reads))
    assert _joint_kernel(wm, (("d", 1), ("e", 1)), 0, whole=True) == []
    assert sorted(j for _, j in reads) == [0, 1, 2]


def _two_label_window(h0_w):
    """Offsets 0..2: V_0 = <u, w> with h0 labels 0 and h0_w, V_1 = <x> and
    V_2 = <y>.  d_1 sends u and w to x; d_2, e_0, e_1, f_1 and h_1 from
    offset 0 are zero, so these are all the blocks the stacked map, the
    witness and the highest kill set read from offset 0."""
    basis = {0: (BasisLabel("u", F(0), F(0)), BasisLabel("w", F(0), F(h0_w))),
             1: (BasisLabel("x", F(1), F(0)),), 2: (BasisLabel("y", F(2), F(0)),)}
    blocks = {key: [(), ()] for key in
              [("d", 2, 0), ("e", 0, 0), ("e", 1, 0), ("f", 1, 0), ("h", 1, 0)]}
    blocks[("d", 1, 0)] = [((0, F(1)),), ((0, F(1)),)]
    return WindowedModule((0, 2), frozenset("defh"), F(0), basis, blocks)


def test_labels_that_disagree_with_the_action_are_not_a_module():
    # d_1 mixes the two h0 labels, so no h0 action makes u and w weight
    # vectors: a split by label would miss the kernel vector w - u
    wm = _two_label_window(2)
    for search in (lambda w: stacked_shift_injectivity(w, 0, 1), submodule_witness,
                   find_extremal_vectors):
        with pytest.raises(NotAModule, match="d-action of degree 1 from offset 0 sends two h0"):
            search(wm)
    # with one label for both, the kernel of the stacked map is <w - u>
    rep = stacked_shift_injectivity(_two_label_window(0), 0, 1)
    assert (rep.kernel_dim, rep.kernel_basis) == (1, ((F(-1), F(1)),))


def test_whole_label_checks_the_columns_past_a_certificate():
    # d_1 maps u and w to x and y: it alone certifies both h0 blocks of
    # offset 0.  e_1 sends both to row 0, which no h0 action allows; the
    # stacked map reads e_1 all the same and must see it, while the search
    # that stops at the certificate reads no e_1 column
    basis = {0: (BasisLabel("u", F(0), F(0)), BasisLabel("w", F(0), F(2))),
             1: (BasisLabel("x", F(1), F(0)), BasisLabel("y", F(1), F(2))),
             2: (BasisLabel("z", F(2), F(0)),)}
    blocks = {key: [(), ()] for key in [("d", 2, 0), ("f", 1, 0), ("h", 1, 0)]}
    blocks[("d", 1, 0)] = [((0, F(1)),), ((1, F(1)),)]
    blocks[("e", 1, 0)] = [((0, F(1)),), ((0, F(1)),)]
    wm = WindowedModule((0, 2), frozenset("defh"), F(0), basis, blocks)
    with pytest.raises(NotAModule, match="e-action of degree 1 from offset 0 sends two h0"):
        stacked_shift_injectivity(wm, 0, 1)
    blocks[("e", 1, 0)] = _CertifiedColumns(blocks[("e", 1, 0)], unread={0, 1})
    ops = (("d", 1), ("d", 2), ("e", 1), ("f", 1), ("h", 1))
    assert _joint_kernel(wm, ops, 0) == []


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
    cols = dense_block(wm, family, m, k)
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
                        if not ((f2, m2, k) in wm.blocks and (f1, m1, k + m2) in wm.blocks
                                and (f1, m1, k) in wm.blocks and (f2, m2, k + m1) in wm.blocks):
                            continue
                        if any(g.family != "C" and (g.family, m1 + m2, k) not in wm.blocks
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


def bump(wm, key, j, r, delta):
    """Alter a window's matrices by hand: add delta to row r of column j."""
    entries = dict(wm.blocks[key][j])
    entries[r] = entries.get(r, 0) + delta
    wm.blocks[key][j] = tuple(sorted((row, x) for row, x in entries.items() if x))


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
        bump(wm, key, j, r, F(1, 7))
        expect = reference_bracket_consistency_defects(wm)
        assert expect, spec
        assert bracket_consistency_defects(wm) == expect, spec
    verma = from_verma(build_verma(HighestWeight.of(F(1, 2), F(1, 3), F(7, 5)), 2, 3),
                       pad_top=2, degrees=range(-2, 3))
    eager = WindowedModule(verma.window, verma.families, verma.central, verma.basis,
                           {key: list(cols) for key, cols in verma.blocks.items()})
    assert any(c is None for cols in eager.blocks.values() for c in cols)
    assert bracket_consistency_defects(eager, 2) == \
        reference_bracket_consistency_defects(eager, 2) == []
    cols = eager.blocks[("f", 0, -1)]
    j = next(j for j, c in enumerate(cols) if c)
    r, x = cols[j][0]
    bump(eager, ("f", 0, -1), j, r, x)  # doubles the entry
    expect = reference_bracket_consistency_defects(eager, 2)
    assert expect and bracket_consistency_defects(eager, 2) == expect


def test_bracket_consistency_skips_vectors_that_need_an_unknown_image():
    # one unasserted column and one missing block in a module's window: a
    # vector whose sum needs either is skipped, never reported as a defect;
    # the blocks go to a plain dict, since an export's block map is read-only
    lazy = from_catalog(LoopMod(1, F(1, 2), F(1, 3)), (-2, 2))
    wm = WindowedModule(lazy.window, lazy.families, lazy.central, lazy.basis,
                        dict(lazy.blocks))
    wm.blocks[("d", 1, 0)][1] = None
    del wm.blocks[("e", 2, -1)]
    assert bracket_consistency_defects(wm) == reference_bracket_consistency_defects(wm) == []
    bump(wm, ("d", 1, 1), 0, 0, F(1, 7))
    expect = reference_bracket_consistency_defects(wm)
    assert expect and bracket_consistency_defects(wm) == expect


def test_integer_consistency_sums_take_in_a_coprime_bump():
    # D, the lcm of the denominators the check can read, grows by the 11 of
    # a bump whose denominator no entry of the window shares
    for spec, key, j, r in [(LoopMod(1, F(1, 3), F(2, 5)), ("h", -1, 1), 0, 1),
                            (T2Mod(F(1, 3), F(2, 5), F(1, 7)), ("e", 1, -1), 0, 0)]:
        lazy = from_catalog(spec, (-2, 2))
        wm = WindowedModule(lazy.window, lazy.families, lazy.central, lazy.basis,
                            {key: list(cols) for key, cols in lazy.blocks.items()})
        bump(wm, key, j, r, F(1, 11))
        expect = reference_bracket_consistency_defects(wm)
        assert expect and bracket_consistency_defects(wm) == expect, spec


def test_integer_consistency_sums_read_a_bracket_term_block():
    # with degree_limit 1 the h block of degree 2 is read only as the term
    # h_2 of [e_1, f_1] and [d_1, h_1]; its bump must still count
    lazy = from_catalog(LoopMod(1, F(1, 3), F(2, 5)), (-2, 2))
    wm = WindowedModule(lazy.window, lazy.families, lazy.central, lazy.basis,
                        {key: list(cols) for key, cols in lazy.blocks.items()})
    bump(wm, ("h", 2, -1), 0, 0, F(1, 11))
    expect = reference_bracket_consistency_defects(wm, 1)
    degree = lambda name: int(name.split("_")[1])  # noqa: E731
    assert expect and all(rec["offset"] == -1 and degree(rec["x"]) + degree(rec["y"]) == 2
                          for rec in expect)
    assert bracket_consistency_defects(wm, 1) == expect


def test_integer_consistency_sums_keep_an_uncleared_central_half():
    # one vector per offset, d-actions only, central charge 2/3: D = 3 leaves
    # the 1/2 of the central term of [d_2, d_-2] = -4 d_0 - 1/2 C, so its
    # scaled coefficient stays the Fraction -3/2.  The entries balance that
    # term on v_0, so the pairs (d_2, d_-2) and (d_-2, d_2) at offset 0 hold;
    # the numerator -3 in its place would report both
    window = (-2, 2)
    basis = {k: (BasisLabel(f"v_{k}", F(k), F(0)),) for k in range(-2, 3)}
    blocks = {key: [()] for key in avw.windows._block_keys(frozenset("d"), range(-4, 5), window)}
    blocks[("d", -2, 0)] = [((0, F(-1, 3)),)]
    blocks[("d", 2, -2)] = [((0, F(1)),)]
    wm = WindowedModule(window, frozenset("d"), F(2, 3), basis, blocks)
    expect = reference_bracket_consistency_defects(wm)
    assert expect and bracket_consistency_defects(wm) == expect
    held = [{"x": x, "y": y, "offset": 0, "column": 0} for x, y in (("d_2", "d_-2"), ("d_-2", "d_2"))]
    assert not any(rec in expect for rec in held)
    terms = dict(avw.windows._KnownColumns(wm, 3)[Gen("d", 2)][Gen("d", -2)])
    assert terms == {Gen("d", 0): -12, Gen("C", 0): F(-3, 2)}
    assert type(terms[Gen("C", 0)]) is F


def test_exported_columns_are_ascending_nonzero_pairs():
    windows = [from_verma(build_verma(hw, 2, 3)) for hw in STACKING_WEIGHTS]
    windows += [from_catalog(spec, (-2, 2)) for spec in CONSISTENCY_SPECS]
    windows += [scramble_window(wm, 9) for wm in windows[::3]]
    pairs = 0
    for wm in windows:
        for (fam, m, k), block in wm.blocks.items():
            for j in range(len(block)):
                col = block[j]
                assert_column_shape(wm, fam, m, k, col)
                assert block[j] is col  # kept, not rebuilt
                pairs += len(col or ())
        # catalog and scrambled entries are Fractions; exported memo
        # coefficients stay int when integral
        if not wm.description.startswith("verma") or "scrambled" in wm.description:
            assert all(type(x) is F for block in wm.blocks.values()
                       for col in block if col for _, x in col), wm.description
    assert pairs > 1000


def test_witnesses_are_reported_by_ascending_h0():
    # V_0 = <u, w> with h0 labels 2 and 0 and every block from offset 0 zero:
    # both unit vectors are witnesses, w (h0 = 0) first
    wm = _two_label_window(0)
    wm.basis[0] = (BasisLabel("u", F(0), F(2)), BasisLabel("w", F(0), F(0)))
    wm.blocks[("d", 1, 0)] = [(), ()]
    got = [(x.offset, x.coefficients) for x in submodule_witness(wm).witnesses]
    assert got == [(0, (F(0), F(1))), (0, (F(1), F(0)))]


def test_verify_match_needs_every_nonzero_where_the_reference_has_one():
    spec = LoopMod(1, F(1, 2), F(1, 3))
    wm = from_catalog(spec, (-3, 3))
    assert _verify_match(wm, spec)
    col = wm.blocks[("d", 1, 0)][0]
    assert len(col) == 1
    r, x = col[0]
    bump(wm, ("d", 1, 0), 0, r, -x)  # a reference nonzero the window lacks
    assert not _verify_match(wm, spec)
    bump(wm, ("d", 1, 0), 0, r, x)
    bump(wm, ("d", 1, 0), 0, 1 - r, F(1))  # a nonzero the reference lacks
    assert not _verify_match(wm, spec)
    bump(wm, ("d", 1, 0), 0, r, -x)  # as many nonzeros, one in the wrong row
    assert not _verify_match(wm, spec)
    # with no column asserted only the labels decide: a spec whose labels
    # cover the window's with some left over does not verify
    unasserted = WindowedModule(wm.window, wm.families, wm.central, wm.basis,
                                {key: [None] * len(cols) for key, cols in wm.blocks.items()})
    assert _verify_match(unasserted, spec)
    assert not _verify_match(unasserted, LoopMod(3, spec.a, spec.b))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(lam=st.integers(0, 3),
       a=st.fractions(min_value=-3, max_value=3, max_denominator=7),
       b=st.fractions(min_value=-3, max_value=3, max_denominator=7),
       seed=st.integers(0, 2**32 - 1))
def test_scramble_match_round_trip_property(lam, a, b, seed):
    # scrambling rescales and reorders the pair columns; the match must see
    # through it to the spec it finds unscrambled, and that spec must verify
    wm = from_catalog(LoopMod(lam, a, b), (-3, 3))
    plain = catalog_match(wm).spec
    assert plain is not None and _verify_match(wm, plain)
    scrambled = scramble_window(wm, seed)
    spec = catalog_match(scrambled).spec
    assert spec == plain and _verify_match(scrambled, spec)
    # every candidate's verdict agrees with the reference-window oracle, on
    # the plain window, the scrambled one and the scrambled one altered once
    bumped = scramble_window(wm, seed)
    bump(bumped, ("d", 1, 0), 0, 0, F(1, 7))
    for window in (wm, scrambled, bumped):
        for cand in (b, F(0), F(1), b + 1):
            spec = LoopMod(lam, a, cand)
            assert _verify_match(window, spec) == reference_verify_match(window, spec)


def reference_verify_match(wm, spec):
    """Does the window equal ``from_catalog(spec, wm.window)`` up to
    per-vector rescaling?  Weight labels pair the two bases; a scale factor
    is propagated along nonzero entries and must agree wherever it meets
    itself."""
    ref = from_catalog(spec, wm.window)
    if set(ref.blocks) != set(wm.blocks):
        return False
    to_ref = {}
    for k in wm.offsets():
        obs = [(lab.d0, lab.h0) for lab in wm.labels(k)]
        ref_index = {(lab.d0, lab.h0): i for i, lab in enumerate(ref.labels(k))}
        if len(set(obs)) != len(obs) or set(obs) != set(ref_index):
            return False
        to_ref[k] = [ref_index[key] for key in obs]
    ratios = {}  # (offset, index) -> [(neighbour, theta_neighbour / theta)]
    for (fam, m, k), cols in wm.blocks.items():
        for j, col in enumerate(cols):
            if col is None:
                continue
            ref_col = dict(ref.blocks[(fam, m, k)][to_ref[k][j]])
            if len(col) != len(ref_col):
                return False
            for r, alpha in col:
                beta = ref_col.get(to_ref[k + m][r])
                if beta is None:
                    return False
                ratios.setdefault((k, j), []).append(((k + m, r), beta / alpha))
                ratios.setdefault((k + m, r), []).append(((k, j), alpha / beta))
    theta = {}
    for start in ratios:
        if start in theta:
            continue
        theta[start], queue = F(1), [start]
        while queue:
            u = queue.pop()
            for w, ratio in ratios[u]:
                val = theta[u] * ratio
                if w not in theta:
                    theta[w] = val
                    queue.append(w)
                elif theta[w] != val:
                    return False
    return True


@pytest.mark.parametrize("lam", [0, 2])
def test_catalog_match_builds_no_second_window(monkeypatch, lam):
    # each candidate is checked against the catalog action itself, so the
    # match recovers the spec with no reference window to compare against
    spec = LoopMod(lam, F(1, 2), F(1, 3))
    wm = from_catalog(spec, (-3, 3))

    def no_window(*args):
        raise AssertionError("catalog_match built a second window")

    monkeypatch.setattr(avw.windows, "from_catalog", no_window)
    assert catalog_match(scramble_window(wm, 6)).spec == spec
