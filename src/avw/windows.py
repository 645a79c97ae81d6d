"""Window-based exact linear-algebra analysis of weight modules.

A ``WindowedModule`` is a finite slice of a Z-graded weight module: integer
offsets p..q, a finite basis per offset carrying exact (d0, h0)-eigenvalue
labels, and exact matrices for the generator actions between offsets.

Matrices are stored column-major: the block for (family, degree m, offset k)
is a list of columns, one per basis vector of offset k, each column holding
the image coordinates over the basis of offset k+m.  Entries are exact:
structural zeros are the ``int`` 0 and every nonzero entry is a
``Fraction``, so zero tests on a column run at C level.  Analyses fetch each
column once and transpose columns into rows with ``zip(*columns)``.  A
column may be ``None`` when the image is not representable inside the window
(this happens only at the charge boundary of truncated highest-weight
exports); analyses quantify over asserted columns only, so every reported
fact is an exact statement about the underlying infinite module.

Blocks exported from a truncated highest-weight module are lazy: each column
is computed the first time it is read and kept from then on, so an analysis
that reads a few blocks pays only for those.  The length of a block is known
without building anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Gen, bracket_gens
from .catalog import (IntA, IntAB, IntB, LoopMod, ModuleSpec, T2Corrupt,
                      acting_algebra, act_basis, label_str, spec_text, weight_of)
from .errors import (GeneratorOutsideAlgebra, InternalError, NotAModule, OutOfWindow,
                     WindowTooNarrow, ZeroShift)
from .linalg import Vec, nullspace
from .verma import TruncatedModule, mono_str

Column = Optional[List[Fraction]]


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
                 blocks: Dict[Tuple[str, int, int], Sequence[Column]],
                 description: str = ""):
        self.window = window
        self.families = families
        self.central = central
        self.basis = basis
        self.blocks = blocks
        self.description = description

    def offsets(self):
        p, q = self.window
        return range(p, q + 1)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def labels(self, k: int) -> Tuple[BasisLabel, ...]:
        return self.basis.get(k, ())

    def has_block(self, family: str, m: int, k: int) -> bool:
        return (family, m, k) in self.blocks

    def block(self, family: str, m: int, k: int) -> Sequence[Column]:
        try:
            return self.blocks[(family, m, k)]
        except KeyError:
            raise OutOfWindow(
                f"no {family}-action of degree {m} from offset {k} "
                f"inside window {self.window}") from None

    def full_matrix(self, family: str, m: int, k: int) -> List[List[Fraction]]:
        """Row-major matrix of the block; fails if any column is unasserted."""
        cols = list(self.block(family, m, k))
        if None in cols:
            raise OutOfWindow(
                f"{family}-action of degree {m} from offset {k} is only "
                f"partially represented in the window")
        if not cols:
            return [[] for _ in range(self.dim(k + m))]
        return [list(row) for row in zip(*cols)]

    def asserted_columns(self, ops: Sequence[Tuple[str, int]], k: int) -> List[int]:
        """Column indices of offset k on which every listed op is asserted."""
        blocks = [self.block(fam, m, k) for fam, m in ops]
        return [j for j in range(self.dim(k))
                if all(block[j] is not None for block in blocks)]

    def apply_columns(self, family: str, m: int, k: int,
                      coords: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """Image coordinates of a vector at offset k, or None if the vector
        touches an unasserted column."""
        cols = self.block(family, m, k)
        out = [0] * self.dim(k + m)
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


def _window_action(spec: ModuleSpec, g: Gen, label) -> Vec:
    # Vir-only catalog modules extend to the full algebra by letting the
    # loop part act as zero (valid because C already acts as zero).
    if isinstance(spec, (IntAB, IntA, IntB)) and g.family in ("e", "f", "h"):
        return Vec.zero()
    return act_basis(spec, g, label)


def _window_families(spec: ModuleSpec) -> frozenset:
    alg = acting_algebra(spec).name
    if alg in ("Vir", "L"):
        return frozenset("defh")
    if alg == "D":
        return frozenset("dh")
    return frozenset("dhe")  # T2


def from_catalog(spec: ModuleSpec, window: Tuple[int, int]) -> WindowedModule:
    """Materialize a catalog module's actions as exact matrices."""
    if isinstance(spec, T2Corrupt):
        raise NotAModule("T2Corrupt violates the module axiom; it has no "
                         "consistent window")
    p, q = window
    if q < p:
        raise WindowTooNarrow(f"empty window {window}")
    loop = isinstance(spec, LoopMod)
    basis: Dict[int, Tuple[BasisLabel, ...]] = {}
    raw_labels: Dict[int, list] = {}
    for k in range(p, q + 1):
        labs = [(j, k) for j in range(spec.lam + 1)] if loop else [k]
        raw_labels[k] = labs
        basis[k] = tuple(
            BasisLabel(label_str(spec, lab), *weight_of(spec, lab)) for lab in labs)
    index: Dict[int, Dict] = {k: {lab: i for i, lab in enumerate(raw_labels[k])}
                              for k in range(p, q + 1)}
    families = _window_families(spec)
    blocks: Dict[Tuple[str, int, int], List[Column]] = {}
    for fam in sorted(families):
        for m in range(p - q, q - p + 1):
            for k in range(p, q + 1):
                if not (p <= k + m <= q):
                    continue
                cols: List[Column] = []
                for lab in raw_labels[k]:
                    img = _window_action(spec, Gen(fam, m), lab)
                    col: List = [0] * len(raw_labels[k + m])
                    for lab2, coeff in img:
                        col[index[k + m][lab2]] = coeff
                    cols.append(col)
                blocks[(fam, m, k)] = cols
    return WindowedModule(window, families, Fraction(0), basis, blocks,
                          description=spec_text(spec))


_UNBUILT = object()


class _VermaColumns(Sequence):
    """One block of a highest-weight export.  Column j is the image of source
    monomial j over the target basis, or None when it leaves the kept
    charges; it is built on first read and then kept."""

    def __init__(self, module: TruncatedModule, g: Gen, source: Tuple,
                 target: Dict):
        self._module, self._g, self._source, self._target = module, g, source, target
        self._cols: List[object] = [_UNBUILT] * len(source)

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, j: int) -> Column:
        col = self._cols[j]
        if col is _UNBUILT:
            col = self._cols[j] = self._build(self._source[j])
        return col

    def _build(self, mono) -> Column:
        col: List = [0] * len(self._target)
        for m2, c2 in self._module.apply_gen(self._g, mono).items():
            idx = self._target.get(m2)
            if idx is None:
                return None  # image leaves the kept charges
            col[idx] = c2
        return col


def from_verma(module: TruncatedModule, pad_top: int = 3, max_degree: int = 3,
               charge_cap: Optional[int] = None) -> WindowedModule:
    """Export a truncated highest-weight module as a windowed module.

    Offsets run from -N (deepest kept depth) up to ``pad_top`` (empty slices
    above the highest weight, so degenerate injectivity questions at the top
    are answerable).  Per offset the basis keeps charges up to ``charge_cap``
    (default S-1); an f-action column whose image would exceed the kept
    charges is stored as unasserted rather than silently truncated.  Each
    column is computed from the module's action the first time it is read.
    """
    if charge_cap is None:
        charge_cap = module.charge_bound - 1
    if charge_cap >= module.charge_bound:
        raise OutOfWindow("charge_cap must stay below the module's charge "
                          "bound so f-images remain computable")
    n_max = module.depth_bound
    window = (-n_max, pad_top)
    basis: Dict[int, Tuple[BasisLabel, ...]] = {}
    placement: Dict[int, Dict] = {}  # offset -> {mono: index}
    for k in range(-n_max, pad_top + 1):
        if k > 0:
            basis[k] = ()
            placement[k] = {}
            continue
        n = -k
        labs: List[BasisLabel] = []
        place: Dict = {}
        for s in range(-n, charge_cap + 1):
            d0, h0 = module.weight_of_cell(n, s)
            for mono in module.cells[(n, s)]:
                place[mono] = len(labs)
                labs.append(BasisLabel(mono_str(mono), d0, h0))
        basis[k] = tuple(labs)
        placement[k] = place
    families = frozenset("defh")
    src_monos = {k: tuple(place) for k, place in placement.items()}
    blocks: Dict[Tuple[str, int, int], Sequence[Column]] = {}
    for fam in sorted(families):
        for m in range(-max_degree, max_degree + 1):
            for k in range(-n_max, pad_top + 1):
                if not (-n_max <= k + m <= pad_top):
                    continue
                blocks[(fam, m, k)] = _VermaColumns(
                    module, Gen(fam, m), src_monos[k], placement[k + m])
    hw = module.hw
    return WindowedModule(window, families, hw.c, basis, blocks,
                          description=f"verma:lamd={hw.lam_d},mu={hw.mu},c={hw.c},"
                                      f"N={module.depth_bound},S={module.charge_bound}")


def scramble_window(wm: WindowedModule, seed: int) -> WindowedModule:
    """Rescale every basis vector by a seeded nonzero rational and shuffle
    the basis order within each offset.  The result presents the same module
    in a disguised basis (weight labels travel with their vectors)."""
    rng = random.Random(seed)
    perms: Dict[int, List[int]] = {}
    scales: Dict[int, List[Fraction]] = {}
    new_basis: Dict[int, Tuple[BasisLabel, ...]] = {}
    for k in wm.offsets():
        n = wm.dim(k)
        perm = list(range(n))
        rng.shuffle(perm)  # perm[new_pos] = old_pos
        perms[k] = perm
        scales[k] = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     * rng.choice((1, -1)) for _ in range(n)]
        new_basis[k] = tuple(wm.labels(k)[old] for old in perm)
    new_blocks: Dict[Tuple[str, int, int], List[Column]] = {}
    for (fam, m, k), cols in wm.blocks.items():
        perm_src, perm_tgt = perms[k], perms[k + m]
        th_src, th_tgt = scales[k], scales[k + m]
        new_cols: List[Column] = []
        for new_j in range(len(cols)):
            old_j = perm_src[new_j]
            col = cols[old_j]
            if col is None:
                new_cols.append(None)
                continue
            scale = th_src[old_j]
            new_cols.append([scale * col[r] / th_tgt[r] if col[r] else 0
                             for r in perm_tgt])
        new_blocks[(fam, m, k)] = new_cols
    return WindowedModule(wm.window, wm.families, wm.central, new_basis,
                          new_blocks, description=wm.description + f" (scrambled seed={seed})")


@dataclass(frozen=True)
class InjectivityReport:
    k: int
    i: int
    dim_source: int
    stacked: Tuple[Tuple[Fraction, ...], ...]
    kernel_dim: int
    kernel_basis: Tuple[Tuple[Fraction, ...], ...]


def stacked_shift_injectivity(wm: WindowedModule, k: int, i: int) -> InjectivityReport:
    """Exact kernel of d_i + d_{i+1} + e_i + f_i + h_i stacked on offset k.

    The stacked map sends V_k into V_{k+i} (four summands) plus V_{k+i+1}
    (the extra d); for irreducible modules without extremal vectors this map
    is injective for every nonzero shift.
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
    stacked: List[List[Fraction]] = []
    stacked.extend(wm.full_matrix("d", i, k))
    stacked.extend(wm.full_matrix("d", i + 1, k))
    for fam in ("e", "f", "h"):
        stacked.extend(wm.full_matrix(fam, i, k))
    dim = wm.dim(k)
    kernel = nullspace(stacked, ncols=dim)
    return InjectivityReport(
        k, i, dim,
        tuple(tuple(row) for row in stacked),
        len(kernel),
        tuple(tuple(v) for v in kernel))


KILL_HIGHEST = (("e", 0), ("d", 1), ("e", 1), ("f", 1), ("h", 1), ("d", 2))
KILL_LOWEST = (("f", 0), ("d", -1), ("e", -1), ("f", -1), ("h", -1), ("d", -2))


@dataclass(frozen=True)
class ExtremalVector:
    offset: int
    coefficients: Tuple[Fraction, ...]
    labels: Tuple[BasisLabel, ...]


def find_extremal_vectors(wm: WindowedModule, direction: str = "highest") -> List[ExtremalVector]:
    """Joint kernel of the raising (or lowering) kill set per offset.

    Only offsets whose kill-set images all land inside the window are
    searched, and only basis directions on which every operator is asserted.
    """
    if direction not in ("highest", "lowest"):
        raise ValueError("direction must be 'highest' or 'lowest'")
    kill = KILL_HIGHEST if direction == "highest" else KILL_LOWEST
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
    results: List[ExtremalVector] = []
    for k in offs:
        if wm.dim(k) == 0:
            continue
        cols_ok = wm.asserted_columns(kill, k)
        if not cols_ok:
            continue
        stacked: List[List[Fraction]] = []
        for fam, m in kill:
            block = wm.block(fam, m, k)
            stacked.extend(map(list, zip(*[block[j] for j in cols_ok])))
        for v in nullspace(stacked, ncols=len(cols_ok)):
            full = [Fraction(0)] * wm.dim(k)
            for idx, j in enumerate(cols_ok):
                full[j] = v[idx]
            results.append(ExtremalVector(k, tuple(full), wm.labels(k)))
    return results


def support(wm: WindowedModule) -> List[Tuple[Fraction, Fraction]]:
    """Sorted distinct (d0, h0) weight labels of the nonzero slices."""
    seen = {(lab.d0, lab.h0) for k in wm.offsets() for lab in wm.labels(k)}
    return sorted(seen)


@dataclass(frozen=True)
class Witness:
    offset: int
    coefficients: Tuple[Fraction, ...]
    labels: Tuple[BasisLabel, ...]
    verdict: str


@dataclass(frozen=True)
class WitnessReport:
    witnesses: Tuple[Witness, ...]
    verdict: str


def submodule_witness(wm: WindowedModule) -> WitnessReport:
    """Search for one-dimensional invariant spans of weight vectors.

    A weight vector spans an in-window submodule iff every weight-moving
    in-window operator kills it (the diagonal d0/h0/C actions preserve any
    span).  Infinite-support submodules cannot be certified or refuted by a
    finite window; when nothing is found the verdict says so explicitly.
    """
    p, q = wm.window
    witnesses: List[Witness] = []
    for k in wm.offsets():
        n = wm.dim(k)
        if n == 0:
            continue
        ops: List[Tuple[str, int]] = []
        for fam in sorted(wm.families):
            for m in range(p - k, q - k + 1):
                if m == 0 and fam in ("d", "h"):
                    continue  # diagonal: preserves every span
                if wm.has_block(fam, m, k):
                    ops.append((fam, m))
        if not ops:
            continue
        # candidates must be weight vectors: work one h0-eigenvalue at a time
        by_h0: Dict[Fraction, List[int]] = {}
        for j, lab in enumerate(wm.labels(k)):
            by_h0.setdefault(lab.h0, []).append(j)
        asserted = set(wm.asserted_columns(ops, k))
        for h0 in sorted(by_h0):
            cols = [j for j in by_h0[h0] if j in asserted]
            if not cols:
                continue
            stacked: List[List[Fraction]] = []
            for fam, m in ops:
                block = wm.block(fam, m, k)
                # rows as lists, like full_matrix: kept as zip's tuples they
                # raised the peak memory of an hw_scan job by about 0.4 MB
                stacked.extend(map(list, zip(*[block[j] for j in cols])))
            for v in nullspace(stacked, ncols=len(cols)):
                full = [Fraction(0)] * n
                for idx, j in enumerate(cols):
                    full[j] = v[idx]
                witnesses.append(Witness(
                    k, tuple(full), wm.labels(k),
                    "annihilated by every in-window weight-moving operator"))
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


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return _poly_trim(out)


def _poly_scale(s, p):
    return _poly_trim([s * a for a in p]) if s else []


def _poly_mod(p, q):
    p = list(p)
    while len(p) >= len(q) and p:
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, b in enumerate(q):
            p[shift + i] -= factor * b
        _poly_trim(p)
    return p


def _poly_gcd(p, q):
    p, q = list(p), list(q)
    while q:
        p, q = q, _poly_mod(p, q)
    if p:
        lead = p[-1]
        p = [a / lead for a in p]
    return p


def _rational_roots(p: List[Fraction]) -> List[Fraction]:
    """Sorted distinct rational roots of a nonzero polynomial of degree <= 2.

    ``catalog_match`` only asks for gcds of quadratic and linear constraints,
    so the roots come in closed form (linear root or square discriminant).
    """
    if not p:
        raise ValueError("zero polynomial")
    if len(p) > 3:
        raise InternalError(f"rational roots requested for degree {len(p) - 1} > 2")
    mult = lcm(*(a.denominator for a in p))
    ip = [a.numerator * (mult // a.denominator) for a in p]
    roots: List[Fraction] = []
    low = 0
    while ip[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        ip = ip[low:]
    if len(ip) == 2:
        roots.append(Fraction(-ip[0], ip[1]))
    elif len(ip) == 3:
        c0, c1, c2 = ip
        disc = c1 * c1 - 4 * c2 * c0
        s = isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            roots.extend((Fraction(-c1 - s, 2 * c2), Fraction(-c1 + s, 2 * c2)))
    return sorted(set(roots))


@dataclass(frozen=True)
class MatchResult:
    spec: Optional[LoopMod]
    evidence: dict


def _label_index_maps(wm: WindowedModule):
    """Per offset, map (d0, h0) -> basis index; None if labels collide."""
    maps = {}
    for k in wm.offsets():
        m: Dict[Tuple[Fraction, Fraction], int] = {}
        for j, lab in enumerate(wm.labels(k)):
            key = (lab.d0, lab.h0)
            if key in m:
                return None
            m[key] = j
        maps[k] = m
    return maps


def _verify_match(wm: WindowedModule, spec: LoopMod) -> bool:
    """Does the observed window equal the reference one up to per-vector
    rescaling?  Labels pair the bases; a scale factor is propagated along
    nonzero entries and every entry is checked for consistency."""
    ref = from_catalog(spec, wm.window)
    if set(ref.blocks) != set(wm.blocks):
        return False
    obs_maps = _label_index_maps(wm)
    ref_maps = _label_index_maps(ref)
    if obs_maps is None or ref_maps is None:
        return False
    to_ref: Dict[int, List[int]] = {}
    for k in wm.offsets():
        if set(obs_maps[k]) != set(ref_maps[k]):
            return False
        arr = [0] * wm.dim(k)
        for key, j in obs_maps[k].items():
            arr[j] = ref_maps[k][key]
        to_ref[k] = arr
    # gather scale constraints theta_target * alpha = theta_source * beta
    constraints: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], Fraction]]] = {}
    for (fam, m, k), cols in sorted(wm.blocks.items()):
        ref_cols = ref.blocks[(fam, m, k)]
        for j, col in enumerate(cols):
            if col is None:
                continue
            rj = to_ref[k][j]
            ref_col = ref_cols[rj]
            for r, alpha in enumerate(col):
                beta = ref_col[to_ref[k + m][r]]
                if (alpha == 0) != (beta == 0):
                    return False
                if alpha:
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
    h/d ladder entries when lam >= 1 and otherwise pinned as a rational root
    of scale-invariant polynomial constraints on the d-entries.  Every
    candidate is verified entrywise up to per-vector rescaling.
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
        maps = _label_index_maps(wm)
        if maps is None:
            evidence["reason"] = "weight labels are not multiplicity-free"
            return MatchResult(None, evidence)
        k0 = p
        j_src = maps[k0][(a + k0, Fraction(lam))]
        r_tgt = maps[k0 + 1][(a + k0 + 1, Fraction(lam))]
        o_h = wm.block("h", 1, k0)[j_src][r_tgt]
        o_d = wm.block("d", 1, k0)[j_src][r_tgt]
        if o_h == 0:
            evidence["reason"] = "h-action does not ladder on the highest line"
            return MatchResult(None, evidence)
        candidates.append(lam * o_d / o_h - a - k0)
    else:
        o1 = {k: wm.block("d", 1, k)[0][0] for k in range(p, q)}
        o2 = {k: wm.block("d", 2, k)[0][0] for k in range(p, q - 1)}
        polys: List[List[Fraction]] = []
        for k in range(p, q - 1):
            lhs = _poly_scale(o2[k], _poly_mul([a + k, Fraction(1)],
                                               [a + k + 1, Fraction(1)]))
            rhs = _poly_scale(o1[k] * o1[k + 1], [a + k, Fraction(2)])
            poly = _poly_sub(lhs, rhs)
            if poly:
                polys.append(poly)
        for k, v in o1.items():
            if v == 0:
                polys.append([a + k, Fraction(1)])
        for k, v in o2.items():
            if v == 0:
                polys.append([a + k, Fraction(2)])
        g = []
        for poly in polys:
            g = _poly_gcd(g, poly) if g else list(poly)
        if len(g) >= 2:
            candidates.extend(_rational_roots(g))
        candidates.extend((Fraction(0), Fraction(1)))
    tried = []
    verified: List[LoopMod] = []
    seen = set()
    for b in candidates:
        if b in seen:
            continue
        seen.add(b)
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

def bracket_consistency_defects(wm: WindowedModule,
                                degree_limit: Optional[int] = None) -> List[dict]:
    """Check matrix([x,y]) = [matrix(x), matrix(y)] on all fully-contained
    compositions; returns one record per failing (x, y, offset, column).

    Column j of a block is the image of the j-th basis vector, so the
    inner maps and the bracket terms are read off the blocks directly and
    only the outer maps are applied.
    """
    p, q = wm.window
    fams = sorted(wm.families)
    degs = sorted({m for (_, m, _) in wm.blocks})
    if degree_limit is not None:
        degs = [m for m in degs if abs(m) <= degree_limit]
    defects: List[dict] = []
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
                        usable = True
                        for g, _ in br:
                            if g.family != "C" and not wm.has_block(g.family, m1 + m2, k):
                                usable = False
                        if not usable:
                            continue
                        inner2, inner1 = wm.block(f2, m2, k), wm.block(f1, m1, k)
                        terms = [(coeff, None if g.family == "C"
                                  else wm.block(g.family, m1 + m2, k)) for g, coeff in br]
                        for j in range(wm.dim(k)):
                            a1, a2 = inner2[j], inner1[j]
                            if a1 is None or a2 is None:
                                continue
                            b1 = wm.apply_columns(f1, m1, k + m2, a1)
                            b2 = wm.apply_columns(f2, m2, k + m1, a2)
                            if b1 is None or b2 is None:
                                continue
                            lhs: List = [0] * wm.dim(k + m1 + m2)
                            ok = True
                            for coeff, block in terms:
                                if block is None:  # the central element C
                                    if m1 + m2 == 0:
                                        lhs[j] += coeff * wm.central
                                    continue
                                img = block[j]
                                if img is None:
                                    ok = False
                                    break
                                for r, x in enumerate(img):
                                    if x:
                                        lhs[r] += coeff * x
                            if not ok:
                                continue
                            if any(lhs[r] - (b1[r] - b2[r]) for r in range(len(lhs))):
                                defects.append({
                                    "x": f"{f1}_{m1}", "y": f"{f2}_{m2}",
                                    "offset": k, "column": j,
                                })
    return defects


# --- JSON report helpers ----------------------------------------------------

def injectivity_json(report: InjectivityReport) -> dict:
    return {
        "k": report.k,
        "i": report.i,
        "dimV_k": report.dim_source,
        "kernel_dim": report.kernel_dim,
        "kernel_basis": [[str(x) for x in v] for v in report.kernel_basis],
    }


def witness_json(report: WitnessReport) -> dict:
    return {
        "witnesses": [
            {
                "offset": w.offset,
                "vector": {lab.name: str(c) for lab, c in zip(w.labels, w.coefficients) if c},
                "verdict": w.verdict,
            }
            for w in report.witnesses
        ],
        "verdict": report.verdict,
    }


def match_json(result: MatchResult) -> dict:
    return {
        "spec": spec_text(result.spec) if result.spec is not None else "NoMatch",
        "evidence": result.evidence,
    }


def support_json(wm: WindowedModule) -> dict:
    return {"support": [[str(d0), str(h0)] for d0, h0 in support(wm)]}
