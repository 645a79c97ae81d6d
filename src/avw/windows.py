"""Window-based exact linear-algebra analysis of weight modules.

A ``WindowedModule`` is a finite slice of a Z-graded weight module: integer
offsets p..q, a finite basis per offset carrying exact (d0, h0)-eigenvalue
labels, and exact matrices for the generator actions between offsets.

Matrices are stored column-major: the block for (family, degree m, offset k)
holds one column per basis vector of offset k, and every column has one
shape: the tuple of its nonzero ``(row, coeff)`` pairs over the basis of
offset k+m, rows ascending, coefficients exact; or ``None`` when the image is
not representable inside the window (only at the charge boundary of
truncated highest-weight exports).  Analyses quantify over asserted columns
only, so every reported fact is an exact statement about the underlying
infinite module.  The kernel searches (injectivity, witnesses, extremal
vectors) go through ``_joint_kernel``, which walks an offset one weight
space (the block of one h0 label) at a time, as
``TruncatedModule.find_singular_vectors`` walks cells.  The split is exact
because each generator moves h0 by a fixed amount (e by +2, f by -2, d and
h by 0), so the stacked map is block-diagonal by h0 up to the order of rows
and columns; a row that takes columns of two h0 labels shows labels that
disagree with the action and raises NotAModule.  A block leaves the search
as soon as one op alone certifies, mod p, that it has no kernel there; the
rest go to one exact ``nullspace`` each, on ``linalg.stack_columns`` rows.
Two facts about the algebra settle kernels with no elimination.  A vector
killed by x and y is killed by [x, y], so a kill set names only generators
of the positive (negative) part.  And a highest-weight module is free over
the lowering subalgebra, which has no zero divisors, so each lowering
operator is injective on it: ``_joint_kernel`` answers {0} for any op set
that lowers on a window that ``from_verma`` exports, which carries its
module as ``verma``.  A third fact is the closed form of the Shapovalov
determinant: on such a window the raising kill set skips every weight block
that the module's ``may_be_singular`` rules out and reads the rest as the
module's ``kill_set`` says: where the cell has d-free columns
(``affine_columns``), only those, under e_0 and f_1 (see ``avw.verma``).
The bracket check feeds the columns to ``catalog.axiom_defect``, the
module-axiom check of ``catalog.module_defect``.

Both exporters make a block on first read and keep it, so an analysis pays
for the blocks it reads, however wide the window.  A catalog window
(``from_catalog``) builds a block whole when it is first looked up.  An
export of a truncated highest-weight module (``from_verma``) carries only
the block degrees its caller names and is lazier still: an offset's basis
is enumerated, a block made and a column computed the first time each is
read, and kept from then on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import VIR, Gen, bracket_gens
from .catalog import (LoopMod, ModuleSpec, T2Corrupt, acting_algebra, act_basis, axiom_defect,
                      label_str, offset_dim, offset_labels, spec_text, weight_of)
from .errors import (GeneratorOutsideAlgebra, InternalError, InvalidArgument, NotAModule,
                     OutOfWindow, ResourceBound, WindowTooNarrow, ZeroShift)
from .linalg import _exact_times, full_rank_mod_p, nullspace, stack_columns
from .verma import (KILL_LOWEST, RAISING_KILL_SET, Pairs, TruncatedModule, _LazyMap,
                    cap_from_env, image_pairs, mono_str)

Column = Optional[Pairs]

# jacobi sweeps gens^3 triples, module-check gens^2 x labels checks, a catalog
# window families x width^2 blocks and width x offset_dim basis vectors; over
# this many exits 2 before it starts (--range=-20..20 of L is 4.5M triples)
DEFAULT_MAX_SWEEP = 5_000_000
MAX_SWEEP_ENV = "AVW_MAX_SWEEP"


def bound_sweep(count: int, what: str) -> None:
    cap = cap_from_env(MAX_SWEEP_ENV, DEFAULT_MAX_SWEEP)
    if count > cap:
        raise ResourceBound(f"the sweep has {count} {what}, over the cap {cap}; "
                            f"raise {MAX_SWEEP_ENV} or narrow the ranges")


@dataclass(frozen=True)
class BasisLabel:
    name: str
    d0: Fraction
    h0: Fraction


class WindowedModule:
    """Immutable windowed weight module with exact action matrices."""

    def __init__(self, window: Tuple[int, int], families: frozenset,
                 central: Fraction,
                 basis: Dict[int, Tuple[BasisLabel, ...]],
                 blocks: Mapping[Tuple[str, int, int], Sequence[Column]],
                 description: str = "", *, verma: Optional[TruncatedModule] = None):
        self.window = window
        self.families = families
        self.central = central
        self.basis = basis
        self.blocks = blocks
        self.description = description
        # the highest-weight module a from_verma window exports, else None
        self.verma = verma

    def offsets(self):
        p, q = self.window
        return range(p, q + 1)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def labels(self, k: int) -> Tuple[BasisLabel, ...]:
        return self.basis.get(k, ())

    def block(self, family: str, m: int, k: int) -> Sequence[Column]:
        try:
            return self.blocks[(family, m, k)]
        except KeyError:
            raise OutOfWindow(
                f"no {family}-action of degree {m} from offset {k} "
                f"inside window {self.window}") from None


def _block_keys(families: frozenset, degrees: Sequence[int],
                window: Tuple[int, int]) -> Dict[Tuple[str, int, int], None]:
    """The block keys (family, degree m, offset k) of every family and given
    degree with k and k + m inside the window, ordered by family, m, then k,
    as the keys of a dict."""
    p, q = window
    return dict.fromkeys((fam, m, k) for fam in sorted(families) for m in sorted(set(degrees))
                         for k in range(max(p, p - m), min(q, q - m) + 1))


def from_catalog(spec: ModuleSpec, window: Tuple[int, int]) -> WindowedModule:
    """Export a catalog module's window with its actions as exact matrices.

    The blocks are those of every degree inside the window (``_block_keys``)
    and, as in ``from_verma``, each is made on first read and kept: block
    (family, m, k) is built whole, one ``act_basis`` column per basis vector
    of offset k, the first time it is looked up.  So a query pays for the
    blocks it reads, not for the O(W^2) blocks of a half-width-W window; a
    window over ``AVW_MAX_SWEEP`` blocks or basis vectors raises ResourceBound.
    """
    if isinstance(spec, T2Corrupt):
        raise NotAModule("T2Corrupt violates the module axiom; it has no "
                         "consistent window")
    p, q = window
    if q < p:
        raise WindowTooNarrow(f"empty window {window}")
    # Vir-only catalog modules extend to the full algebra by letting the
    # loop part act as zero (valid because C already acts as zero)
    alg = acting_algebra(spec)
    vir_only = alg is VIR
    families = frozenset("defh" if vir_only else (fam for fam, _ in alg.families))
    bound_sweep(len(families) * (q - p + 1) ** 2, "window blocks")
    bound_sweep((q - p + 1) * offset_dim(spec), "basis vectors")
    raw_labels = {k: offset_labels(spec, k) for k in range(p, q + 1)}
    basis = {k: tuple(BasisLabel(label_str(spec, lab), *weight_of(spec, lab)) for lab in labs)
             for k, labs in raw_labels.items()}
    index = {k: {lab: i for i, lab in enumerate(labs)} for k, labs in raw_labels.items()}

    def block(key) -> List[Column]:
        fam, m, k = key
        if vir_only and fam in ("e", "f", "h"):
            return [()] * len(raw_labels[k])
        g, target = Gen(fam, m), index[k + m]
        return [image_pairs(act_basis(spec, g, lab).terms, target) for lab in raw_labels[k]]

    return WindowedModule(window, families, Fraction(0), basis,
                          _LazyMap(_block_keys(families, range(p - q, q - p + 1), window), block),
                          description=spec_text(spec))


_UNBUILT = object()


class _VermaColumns(Sequence):
    """One block of a highest-weight export.  Column j is the image of source
    monomial j over the target basis (``verma.image_pairs``), or None when it
    leaves the kept charges; it is built on first read and kept."""

    def __init__(self, module: TruncatedModule, g: Gen, source: Tuple,
                 target: Dict):
        self._module, self._g, self._source, self._target = module, g, source, target
        self._cols: List[object] = [_UNBUILT] * len(source)

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, j: int) -> Column:
        col = self._cols[j]
        if col is _UNBUILT:
            img, target = self._module.apply_gen(self._g, self._source[j]), self._target
            col = self._cols[j] = image_pairs(img, target) if img.keys() <= target.keys() else None
        return col


def _joint_kernel(wm: WindowedModule, ops: Sequence[Tuple[str, int]], k: int,
                  whole: bool = False) -> List[Tuple[Fraction, ...]]:
    """Common kernel of the ops on the span of those basis vectors of offset
    k on which every op is asserted, as vectors over the whole basis.  With
    ``whole``, an op with an unasserted column raises OutOfWindow instead:
    every column is read first, op by op, whatever would certify.

    On a window that carries its highest-weight module (``wm.verma``),
    without ``whole``, an op set with a lowering op (degree < 0, or f_0) has
    kernel {0}, since that op is injective on every span of its asserted
    vectors: [] with no block read.  For exactly ``RAISING_KILL_SET`` such a
    window skips each weight block (k, h0), the module's cell
    (-k, (mu - h0)/2), that the module's ``may_be_singular`` rules out: its
    kernel would be singular vectors, and the block provably has none.  A
    block it keeps reads only the ops and columns of the cell's
    ``kill_set``: where the module has ``affine_columns``, those columns
    under e_0 and f_1, since the kernel lies in their span and the two
    ops kill exactly what the whole kill set kills there.

    Otherwise the h0 weight blocks (see the module docstring) are walked in
    ascending order.  Each reads the ops one at a time on its vectors that
    every earlier op asserts, label-checks each column it reads and drops
    the vectors the op leaves unasserted.  It stops at the first op with
    full rank mod p on the vectors left (``full_rank_mod_p``): that op is
    injective on their span and on every subspace of it, so the block's
    kernel is {0} whichever of them later ops would leave asserted.  So no
    column is read twice, and an op's block is looked up only when a weight
    block reaches it uncertified.  ``whole`` reads on past a certificate, so
    the label check covers every column.  A block that no op certifies sends
    its whole stack to ``nullspace``.  The union of the blocks' kernels,
    ordered by each vector's free (last nonzero) coordinate, is the
    canonical basis of the whole-offset stack."""
    module = None if whole else wm.verma
    if module is not None and any(m < 0 or (fam == "f" and not m) for fam, m in ops):
        return []
    gate = module if tuple(ops) == RAISING_KILL_SET else None
    n, labels = wm.dim(k), wm.labels(k)
    op_blocks: List[Optional[Sequence[Column]]] = [None] * len(ops)  # looked up on first need
    if whole:
        for o, (fam, m) in enumerate(ops):
            block = wm.block(fam, m, k)
            op_blocks[o] = [block[j] for j in range(n)]
            if None in op_blocks[o]:
                raise OutOfWindow(
                    f"{fam}-action of degree {m} from offset {k} is only "
                    f"partially represented in the window")
    by_h0: Dict[Fraction, List[int]] = {}
    for j in range(n):
        by_h0.setdefault(labels[j].h0, []).append(j)
    owners: List[Dict[int, int]] = [{} for _ in ops]  # per op, row -> the weight block taking it
    kernel = []
    for b, h0 in enumerate(sorted(by_h0)):
        js, read, certified, here = by_h0[h0], [], False, ops  # js: the vectors asserted so far
        if gate is not None:
            cell = (-k, int((gate.hw.mu - h0) / 2))
            if not gate.may_be_singular(*cell):
                continue
            here, cols = gate.kill_set(*cell)
            js = [js[p] for p in cols]  # the cell's order
        for o, (fam, m) in enumerate(ops):
            if certified and not whole:
                break
            if (fam, m) not in here:
                continue
            block, owner, taken = op_blocks[o], owners[o], len(owners[o])
            if block is None:
                block = op_blocks[o] = wm.block(fam, m, k)
            cols = {j: block[j] for j in js}
            for col in cols.values():
                for r, _ in col or ():
                    if owner.setdefault(r, b) != b:
                        raise NotAModule(
                            f"{fam}-action of degree {m} from offset {k} sends two h0 "
                            f"labels to row {r}: the labels disagree with the action")
            js = [j for j in js if cols[j] is not None]
            read.append(cols)
            # the op's stack has a row per row the label check took: too few, no rank
            certified = certified or len(owner) - taken >= len(js) and full_rank_mod_p(
                stack_columns([[cols[j] for j in js]]), len(js))
        if not certified:
            for v in nullspace(stack_columns([cols[j] for j in js] for cols in read),
                               ncols=len(js)):
                full = [Fraction(0)] * n
                for idx, j in enumerate(js):
                    full[j] = v[idx]
                kernel.append((js[max(idx for idx, x in enumerate(v) if x)], tuple(full)))
    return [v for _, v in sorted(kernel)]  # free columns differ: vectors never compared


def from_verma(module: TruncatedModule, pad_top: int = 3,
               degrees: Sequence[int] = range(-3, 4)) -> WindowedModule:
    """Export a truncated highest-weight module as a windowed module.

    Offsets run from -N (deepest kept depth) up to ``pad_top`` (empty slices
    above the highest weight, so degenerate injectivity questions at the top
    are answerable), and the blocks are those of the given ``degrees``
    (``_block_keys``).  Per offset the basis keeps charges up to S-1; an
    f-action column whose image would exceed the kept charges is stored as
    unasserted rather than silently truncated.  Nothing else is built up
    front: an offset's basis is enumerated the first time it is read, a
    block is made the first time it is looked up, and each column is
    computed the first time it is read, as the ``(row, coeff)`` pairs of
    ``verma.image_pairs`` with the memo's coefficients (``int`` when
    integral), and kept.  So a query pays for what it reads, however high
    ``pad_top`` puts the window top.  The export carries the module as
    ``verma``, so ``submodule_witness`` and the lowest extremal search, whose
    op sets lower, read no column, and the highest extremal search reads no
    column of a weight block (k, h0) whose cell (-k, (mu - h0)/2) the
    module's ``may_be_singular`` rules out, and of the others only the
    columns and ops of the module's ``kill_set``.  A label's weight is
    computed once per cell.
    """
    n_max = module.depth_bound
    window = (-n_max, pad_top)
    kept = range(-n_max, 1)  # the offsets with basis vectors; those above are empty

    def labels(k: int) -> Tuple[BasisLabel, ...]:
        return tuple(BasisLabel(mono_str(mono), *weight) for s in range(k, module.charge_bound)
                     for weight in [module.weight_of_cell(-k, s)]
                     for mono in module.cells[(-k, s)])

    # offset -> its monomials in the order of its labels, and their positions
    monos = _LazyMap(kept, lambda k: tuple(
        mono for s in range(k, module.charge_bound) for mono in module.cells[(-k, s)]))
    placement = _LazyMap(kept, lambda k: {mono: j for j, mono in enumerate(monos[k])})

    def block(key) -> _VermaColumns:
        fam, m, k = key
        return _VermaColumns(module, Gen(fam, m), monos.get(k, ()), placement.get(k + m, {}))

    families = frozenset("defh")
    hw = module.hw
    return WindowedModule(window, families, hw.c, _LazyMap(kept, labels),
                          _LazyMap(_block_keys(families, degrees, window), block),
                          description=f"verma:lamd={hw.lam_d},mu={hw.mu},c={hw.c},"
                                      f"N={module.depth_bound},S={module.charge_bound}",
                          verma=module)


def scramble_window(wm: WindowedModule, seed: int) -> WindowedModule:
    """Rescale every basis vector by a seeded nonzero rational and shuffle
    the basis order within each offset.  The result presents the same module
    in a disguised basis (weight labels travel with their vectors)."""
    rng = random.Random(seed)
    perms: Dict[int, List[int]] = {}
    moved: Dict[int, List[int]] = {}  # old position -> new position
    scales: Dict[int, List[Fraction]] = {}
    new_basis: Dict[int, Tuple[BasisLabel, ...]] = {}
    for k in wm.offsets():
        n = wm.dim(k)
        perm = list(range(n))
        rng.shuffle(perm)  # perm[new_pos] = old_pos
        perms[k] = perm
        moved[k] = sorted(range(n), key=perm.__getitem__)
        scales[k] = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     * rng.choice((1, -1)) for _ in range(n)]
        new_basis[k] = tuple(wm.labels(k)[old] for old in perm)
    new_blocks: Dict[Tuple[str, int, int], List[Column]] = {}
    for (fam, m, k), cols in wm.blocks.items():
        th_src, th_tgt, to_new = scales[k], scales[k + m], moved[k + m]
        new_cols: List[Column] = []
        for old_j in perms[k]:
            col = cols[old_j]
            scale = th_src[old_j]
            new_cols.append(None if col is None else tuple(sorted(
                [(to_new[r], scale * x / th_tgt[r]) for r, x in col])))
        new_blocks[(fam, m, k)] = new_cols
    return WindowedModule(wm.window, wm.families, wm.central, new_basis,
                          new_blocks, description=wm.description + f" (scrambled seed={seed})")


@dataclass(frozen=True)
class InjectivityReport:
    k: int
    i: int
    dim_source: int
    kernel_dim: int
    kernel_basis: Tuple[Tuple[Fraction, ...], ...]


def stacked_shift_injectivity(wm: WindowedModule, k: int, i: int) -> InjectivityReport:
    """Exact kernel of d_i + d_{i+1} + e_i + f_i + h_i stacked on offset k.

    The stacked map sends V_k into V_{k+i} (four summands) plus V_{k+i+1}
    (the extra d); for irreducible modules without extremal vectors this map
    is injective for every nonzero shift.  Every column of the five blocks
    must be asserted.
    """
    if i == 0:
        raise ZeroShift("the stacked map needs a nonzero shift i")
    p, q = wm.window
    for kk in (k, k + i, k + i + 1):
        if not (p <= kk <= q):
            raise OutOfWindow(f"offset {kk} outside window {wm.window}")
    missing = [fam for fam in "defh" if fam not in wm.families]
    if missing:
        raise GeneratorOutsideAlgebra(
            f"module lacks generator families {missing} needed by the map")
    ops = (("d", i), ("d", i + 1), ("e", i), ("f", i), ("h", i))
    kernel = _joint_kernel(wm, ops, k, whole=True)
    return InjectivityReport(k, i, wm.dim(k), len(kernel), tuple(kernel))


@dataclass(frozen=True)
class ExtremalVector:
    """One kernel vector of a search at one offset, over that offset's basis:
    an extremal vector or a submodule witness."""

    offset: int
    coefficients: Tuple[Fraction, ...]
    labels: Tuple[BasisLabel, ...]


def find_extremal_vectors(wm: WindowedModule, direction: str = "highest") -> List[ExtremalVector]:
    """Joint kernel of the raising (or lowering) kill set per offset.

    Only offsets whose kill-set images all land inside the window are
    searched, and only basis directions on which every operator is asserted.
    Each kill set generates the positive (negative) part as a Lie algebra,
    so its joint kernel is that of every raising (lowering) operator; the
    ones it leaves out (e_1, h_1; f_-1, h_-1) are asserted wherever it is.
    """
    if direction not in ("highest", "lowest"):
        raise InvalidArgument(f"direction must be 'highest' or 'lowest', not {direction!r}")
    kill = RAISING_KILL_SET if direction == "highest" else KILL_LOWEST
    missing = [fam for fam in "defh" if fam not in wm.families]
    if missing:
        raise GeneratorOutsideAlgebra(
            f"module lacks generator families {missing} needed by the kill set")
    p, q = wm.window
    offs = [k for k in wm.offsets()
            if all(p <= k + m <= q for _, m in kill)]
    if not offs:
        raise WindowTooNarrow(
            f"window {wm.window} leaves no offset with all kill-set images inside")
    return [ExtremalVector(k, v, wm.labels(k)) for k in offs for v in _joint_kernel(wm, kill, k)]


def support(wm: WindowedModule) -> List[Tuple[Fraction, Fraction]]:
    """Sorted distinct (d0, h0) weight labels of the nonzero slices."""
    seen = {(lab.d0, lab.h0) for k in wm.offsets() for lab in wm.labels(k)}
    return sorted(seen)


@dataclass(frozen=True)
class WitnessReport:
    witnesses: Tuple[ExtremalVector, ...]
    verdict: str


def submodule_witness(wm: WindowedModule) -> WitnessReport:
    """Search for one-dimensional invariant spans of weight vectors.

    A weight vector spans an in-window submodule iff every weight-moving
    in-window operator kills it (the diagonal d0/h0/C actions preserve any
    span).  Infinite-support submodules cannot be certified or refuted by a
    finite window; when nothing is found the verdict says so explicitly.
    """
    p, q = wm.window
    witnesses: List[ExtremalVector] = []
    for k in wm.offsets():
        if not wm.dim(k):
            continue
        ops: List[Tuple[str, int]] = []
        for fam in sorted(wm.families):
            for m in range(p - k, q - k + 1):
                if m == 0 and fam in ("d", "h"):
                    continue  # diagonal: preserves every span
                if (fam, m, k) in wm.blocks:
                    ops.append((fam, m))
        if not ops:
            continue
        # the kernel's vectors are weight vectors; report them by ascending h0
        labels = wm.labels(k)
        kernel = sorted(_joint_kernel(wm, ops, k),
                        key=lambda v: next(labels[j].h0 for j, x in enumerate(v) if x))
        witnesses.extend(ExtremalVector(k, v, labels) for v in kernel)
    if witnesses:
        verdict = f"{len(witnesses)} finitely-supported submodule witness(es) in window"
    else:
        verdict = ("no finitely-supported witness in window; infinite-support "
                   "submodules are boundary-inconclusive")
    return WitnessReport(tuple(witnesses), verdict)


# --- catalog matching ------------------------------------------------------

def _poly_trim(p: List[Fraction]) -> List[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _rational_roots(p: List[Fraction]) -> List[Fraction]:
    """Sorted distinct rational roots of a nonzero polynomial of degree <= 2.

    ``catalog_match`` only asks for roots of its quadratic and linear
    constraints, so they come in closed form (linear root or square
    discriminant).  Coefficients may be ``int``; roots are ``Fraction``.
    """
    if not p:
        raise InvalidArgument("the zero polynomial has every number as a root")
    if len(p) > 3:
        raise InternalError(f"rational roots requested for degree {len(p) - 1} > 2")
    if len(p) < 3:
        return [-Fraction(p[0]) / p[1]] if len(p) == 2 else []
    c0, c1, c2 = map(Fraction, p)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    root = Fraction(num, den)
    return sorted({(-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)})


@dataclass(frozen=True)
class MatchResult:
    spec: Optional[LoopMod]
    evidence: dict


def _verify_match(wm: WindowedModule, spec: LoopMod) -> bool:
    """Does the observed window present ``spec`` up to per-vector rescaling?
    Weights pair each basis vector with the spec label of its (d0, h0); a
    scale factor is propagated along nonzero entries and every entry is
    checked for consistency.  A column's nonzeros must sit exactly where the
    terms of its ``act_basis`` image do."""
    p, q = wm.window
    if set(wm.blocks) != set(_block_keys(frozenset("defh"), range(p - q, q - p + 1), wm.window)):
        return False
    labels: Dict[int, list] = {}  # offset -> the spec label of each basis vector
    for k in wm.offsets():
        by_weight = {weight_of(spec, lab): lab for lab in offset_labels(spec, k)}
        labels[k] = [by_weight.pop((lab.d0, lab.h0), None) for lab in wm.labels(k)]
        if by_weight or None in labels[k]:
            return False  # a foreign, repeated or missing label
    # gather scale constraints theta_target * alpha = theta_source * beta
    constraints: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], Fraction]]] = {}
    for (fam, m, k), cols in sorted(wm.blocks.items()):
        g, rows = Gen(fam, m), labels[k + m]
        for j, col in enumerate(cols):
            if col is None:
                continue
            image = act_basis(spec, g, labels[k][j]).terms
            if len(col) != len(image):
                return False  # the pairing then misses a nonzero
            for r, alpha in col:
                beta = image.get(rows[r])
                if beta is None:
                    return False
                u, w = (k, j), (k + m, r)
                constraints.setdefault(u, []).append((w, beta / alpha))
                constraints.setdefault(w, []).append((u, alpha / beta))
    theta: Dict[Tuple[int, int], Fraction] = {}
    for start in sorted(constraints):
        if start in theta:
            continue
        theta[start] = Fraction(1)
        queue = [start]
        while queue:
            u = queue.pop()
            for w, ratio in constraints[u]:
                val = theta[u] * ratio
                if w in theta:
                    if theta[w] != val:
                        return False
                else:
                    theta[w] = val
                    queue.append(w)
    return True


def catalog_match(wm: WindowedModule) -> MatchResult:
    """Identify the window as a loop module L(M(lam)) with parameters (a, b).

    lam comes from the h0-spectrum, a from the d0-labels; b is read off the
    h/d ladder entries when lam >= 1 and otherwise pinned as a common rational
    root of scale-invariant polynomial constraints on the d-entries.  Every
    candidate is verified entrywise up to per-vector rescaling against the
    catalog action itself (``_verify_match``), so each observed block is
    read once and no second window is built.
    """
    p, q = wm.window
    if q - p + 1 < 3:
        raise WindowTooNarrow("matching needs a window of width >= 3")
    evidence: dict = {}
    dims = [wm.dim(k) for k in wm.offsets()]
    if len(set(dims)) != 1 or dims[0] == 0:
        evidence["reason"] = f"weight-space dimensions {dims} are not uniformly positive"
        return MatchResult(None, evidence)
    if wm.families != frozenset("defh"):
        evidence["reason"] = "window does not present all four generator families"
        return MatchResult(None, evidence)
    if wm.central != 0:
        evidence["reason"] = "central element acts nontrivially"
        return MatchResult(None, evidence)
    lam = dims[0] - 1
    expected_h0 = sorted(Fraction(lam - 2 * j) for j in range(lam + 1))
    a = None
    for k in wm.offsets():
        labs = wm.labels(k)
        d0s = {lab.d0 for lab in labs}
        if len(d0s) != 1:
            evidence["reason"] = f"offset {k} mixes d0-eigenvalues"
            return MatchResult(None, evidence)
        a_k = next(iter(d0s)) - k
        if a is None:
            a = a_k
        elif a != a_k:
            evidence["reason"] = "d0-eigenvalues do not advance by one per offset"
            return MatchResult(None, evidence)
        if sorted(lab.h0 for lab in labs) != expected_h0:
            evidence["reason"] = (f"h0-spectrum at offset {k} is not the "
                                  f"{lam + 1}-dimensional sl2 string")
            return MatchResult(None, evidence)
    evidence["lambda"] = lam
    evidence["a"] = str(a)
    candidates: List[Fraction] = []
    if lam >= 1:
        # the highest line's basis vectors at offsets p and p + 1
        j_src, r_tgt = (next(j for j, lab in enumerate(wm.labels(k)) if lab.h0 == lam)
                        for k in (p, p + 1))
        o_h = dict(wm.block("h", 1, p)[j_src]).get(r_tgt, 0)
        o_d = dict(wm.block("d", 1, p)[j_src]).get(r_tgt, 0)
        if o_h == 0:
            evidence["reason"] = "h-action does not ladder on the highest line"
            return MatchResult(None, evidence)
        candidates.append(lam * o_d / o_h - a - p)
    else:
        o1 = {k: dict(wm.block("d", 1, k)[0]).get(0, 0) for k in range(p, q)}
        o2 = {k: dict(wm.block("d", 2, k)[0]).get(0, 0) for k in range(p, q - 1)}
        # coefficients of 1, b, b^2: o2 (u+b)(u+1+b) - o1 o1' (u+2b) with u = a+k,
        # and u+b or u+2b where a d_1 or d_2 entry vanishes
        polys: List[List[Fraction]] = []
        for k in range(p, q - 1):
            u, w = a + k, o1[k] * o1[k + 1]
            polys.append([o2[k] * u * (u + 1) - w * u, o2[k] * (2 * u + 1) - 2 * w, o2[k]])
        polys.extend([a + k, Fraction(1)] for k, v in o1.items() if v == 0)
        polys.extend([a + k, Fraction(2)] for k, v in o2.items() if v == 0)
        polys = [poly for poly in map(_poly_trim, polys) if poly]
        if polys:
            candidates.extend(r for r in _rational_roots(polys[0]) if all(
                sum(c * r ** i for i, c in enumerate(poly)) == 0 for poly in polys[1:]))
        candidates.extend((Fraction(0), Fraction(1)))
    tried = []
    verified: List[LoopMod] = []
    for b in dict.fromkeys(candidates):
        spec = LoopMod(lam, a, b)
        ok = _verify_match(wm, spec)
        tried.append({"b": str(b), "verified": ok})
        if ok:
            verified.append(spec)
    evidence["candidates"] = tried
    if verified:
        best = min(verified, key=lambda s: s.b)
        if len(verified) > 1:
            evidence["note"] = "several parameter choices verify on this window"
        return MatchResult(best, evidence)
    evidence.setdefault("reason", "no candidate parameters reproduce the matrices")
    return MatchResult(None, evidence)


# --- bracket consistency ----------------------------------------------------

class _KnownColumns(dict):
    """``axiom_defect``'s ``image`` over a window for one run: a generator
    maps to its row (``_ColumnRow``), made on a miss and kept."""

    def __init__(self, wm: WindowedModule, scale: int):
        super().__init__()
        self.wm, self.scale = wm, scale

    def __missing__(self, g: Gen) -> dict:
        row = self[g] = _ColumnRow(self.wm, g, self.scale)
        return row


class _ColumnRow(dict):
    """Row g of a ``_KnownColumns``: a generator y maps to [g, y], as
    ``Vec.int_items``, and ``(k, j)`` to column j of g's block from offset
    k as ``((k + deg g, row), coeff)`` pairs (C to ``wm.central``), or None
    if unknown, each computed on a miss and kept.  Every value is times
    ``scale``, so a sum adds integers where ``scale`` clears the
    denominators and keeps a Fraction where it does not."""

    def __init__(self, wm: WindowedModule, g: Gen, scale: int):
        super().__init__()
        self.wm, self.g, self.scale = wm, g, scale

    def __missing__(self, key) -> Optional[tuple]:
        g, wm, scale = self.g, self.wm, self.scale
        if isinstance(key, Gen):
            out = self[key] = bracket_gens(g, key).int_items(scale)
            return out
        (k, j), m, col = key, g.degree, None
        if g.family == "C":
            col = ((j, wm.central),)
        elif (g.family, m, k) in wm.blocks:
            col = wm.block(g.family, m, k)[j]
        out = self[key] = None if col is None else tuple(
            ((k + m, r), _exact_times(x, scale)) for r, x in col)
        return out


def bracket_consistency_defects(wm: WindowedModule,
                                degree_limit: Optional[int] = None) -> List[dict]:
    """Check matrix([x,y]) = [matrix(x), matrix(y)] on all fully-contained
    compositions; returns one record per failing (x, y, offset, column).

    Each generator pair goes through ``catalog.axiom_defect``, the check
    that ``catalog.module_defect`` makes, over the window's columns read
    once per run (``_KnownColumns``); a vector whose sum needs an unknown
    one is skipped.  The columns are scaled by the lcm D of the
    denominators of every column of degree up to twice ``degree_limit`` (a
    bracket's degree) and of ``wm.central``, so each sum is D^2 times the
    true one and adds integers.
    """
    p, q = wm.window
    fams = sorted(wm.families)
    degs = sorted({m for (_, m, _) in wm.blocks})
    if degree_limit is not None:
        degs = [m for m in degs if abs(m) <= degree_limit]
    reach = max(map(abs, degs), default=0) * 2
    scale = lcm(wm.central.denominator, *(
        x.denominator for key in wm.blocks if abs(key[1]) <= reach
        for col in wm.blocks[key] if col is not None for _, x in col))
    known = _KnownColumns(wm, scale)
    defects: List[dict] = []
    for f1 in fams:
        for m1 in degs:
            for f2 in fams:
                for m2 in degs:
                    x, y = Gen(f1, m1), Gen(f2, m2)
                    vectors = [(k, j) for k in range(max(p, p - m1, p - m2, p - m1 - m2),
                                                     min(q, q - m1, q - m2, q - m1 - m2) + 1)
                               for j in range(wm.dim(k))]
                    defects += [{"x": f"{f1}_{m1}", "y": f"{f2}_{m2}", "offset": k, "column": j}
                                for (k, j), _ in axiom_defect(known, x, y, vectors)]
    return defects
