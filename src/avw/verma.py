"""Truncated highest-weight modules and their PBW action.

A highest-weight vector v is fixed by three exact rational eigenvalues
(d0, h0, C) -> (lam_d, mu, c); it is annihilated by e_0 and by everything in
positive degree.  The module is spanned by ordered monomials in the negative
cone {e_-k, f_-k, h_-k, d_-k : k >= 1} and f_0 applied to v.

Canonical monomial order: factors sorted by (degree ascending, then
d < h < f < e within a degree), which puts the f_0 powers rightmost, next to
v.  Two integer gradings index everything:

    depth(m)  = total negative degree consumed (d0-eigenvalue lam_d - depth)
    charge(m) = #f-factors - #e-factors        (h0-eigenvalue mu - 2*charge)

A truncation keeps the cells 0 <= depth <= N, charge <= S.  Each kept cell is
the *exact* weight space of the untruncated module, so results computed
inside the kept cells are exact statements about the infinite module;
actions whose image would leave the kept cells raise OutOfWindow instead of
silently truncating.

A generator acts on a canonical monomial by a one-generator recursion on its
leftmost factor y = mono[0], with m' the rest:

    g . (y . m') = y . (g . m') + [g, y] . m'

A lowering g that sorts at or before y is simply prepended, raising
generators kill the empty monomial, and d_0, h_0, C act on every monomial by
its eigenvalue.  Each result is memoized on (g, mono).  The same memo also
holds the brackets [g, y] the recursion needs, keyed on the generator pair
(as ``algebra._bracket_items`` keeps them), so every module computes each
bracket once and no cache outlives the module.  The memo is insert-only and
every entry is a pure function of its key, so concurrent readers agree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import C, Gen, _bracket_items, d, e, f, h
# unused here, but perfbench/tracer.py counts bracket_gens calls by wrapping
# the name in every module that imports it
from .algebra import bracket_gens  # noqa: F401
from .errors import InvalidBound, OutOfWindow, ResourceBound
from .linalg import Vec, frac, nullspace

Mono = Tuple[Gen, ...]

DEFAULT_MAX_FACTORS = 24
DEFAULT_MAX_BASIS = 100_000
MAX_BASIS_ENV = "AVW_MAX_BASIS"

# the raising kill set: generates everything of positive degree together
# with e_0 (degree-1 brackets reach e_2, f_2, h_2 but never d_2)
RAISING_KILL_SET = (e(0), d(1), e(1), f(1), h(1), d(2))

_LOWER, _CARTAN, _RAISE = 0, 1, 2


def _cls(g: Gen) -> int:
    if g.degree < 0 or (g.degree == 0 and g.family == "f"):
        return _LOWER
    if g.degree == 0 and g.family in ("d", "h"):
        return _CARTAN
    return _RAISE  # positive degree, or e_0


def _max_basis_from_env() -> int:
    raw = os.environ.get(MAX_BASIS_ENV)
    if raw is None:
        return DEFAULT_MAX_BASIS
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError(cap)
    except ValueError:
        raise InvalidBound(
            f"{MAX_BASIS_ENV} must be a nonnegative integer, got {raw!r}") from None
    return cap


def depth_of(mono: Mono) -> int:
    return sum(-g.degree for g in mono if g.degree < 0)


def charge_of(mono: Mono) -> int:
    return sum(1 if g.family == "f" else -1 for g in mono if g.family in ("e", "f"))


def mono_str(mono: Mono) -> str:
    if not mono:
        return "1"
    bits: List[str] = []
    run: Optional[Gen] = None
    count = 0
    for g in mono + (None,):  # type: ignore[operator]
        if g == run:
            count += 1
            continue
        if run is not None:
            bits.append(str(run) if count == 1 else f"{run}^{count}")
        run, count = g, 1
    return " ".join(bits)


@dataclass(frozen=True)
class HighestWeight:
    lam_d: Fraction
    mu: Fraction
    c: Fraction

    @classmethod
    def of(cls, lam_d, mu, c) -> "HighestWeight":
        return cls(frac(lam_d), frac(mu), frac(c))


def charge_shift(g: Gen) -> int:
    if g.family == "e":
        return -1
    if g.family == "f":
        return 1
    return 0


def _act(g: Gen, mono: Mono, hw: HighestWeight, memo: dict) -> Dict[Mono, Fraction]:
    """g . (mono . v) for a canonical monomial, memoized on (g, mono).

    Uses g . (y . m') = y . (g . m') + [g, y] . m' with y the leftmost
    factor; d_0, h_0 and C act on canonical monomials by their weight.
    The returned dict is the memo entry itself: callers must not mutate it.
    """
    key = (g, mono)
    out = memo.get(key)
    if out is not None:
        return out
    cg = _cls(g)
    if g.family == "C":
        out = {mono: hw.c} if hw.c else {}
    elif cg == _CARTAN:
        eig = (hw.lam_d - depth_of(mono) if g.family == "d"
               else hw.mu - 2 * charge_of(mono))
        out = {mono: eig} if eig else {}
    elif not mono:
        out = {(g,): Fraction(1)} if cg == _LOWER else {}
    elif cg == _LOWER and g.sort_key() <= mono[0].sort_key():
        out = {(g,) + mono: Fraction(1)}
    else:
        y, rest = mono[0], mono[1:]
        acc: Dict[Mono, Fraction] = {}
        for m2, c2 in _act(g, rest, hw, memo).items():
            for m3, c3 in _act(y, m2, hw, memo).items():
                acc[m3] = acc.get(m3, 0) + c2 * c3
        for b, bc in _bracket_items(memo, g, y):
            for m3, c3 in _act(b, rest, hw, memo).items():
                acc[m3] = acc.get(m3, 0) + bc * c3
        out = {m: v for m, v in acc.items() if v}
    memo[key] = out
    return out


def pbw_straighten(word: Sequence[Gen], hw: HighestWeight,
                   memo: Optional[dict] = None) -> Dict[Mono, Fraction]:
    """Rewrite (word) . v into canonical monomials applied to v.

    Folds the word right to left through the one-generator action; the
    longest ordered run of lowering factors at the right end is already
    canonical and is taken as it stands.  Raising factors annihilate v at
    the right end; d_0, h_0, C evaluate to their eigenvalues there.  When at
    most one factor precedes that run, the result is the memo entry of
    ``_act`` itself, stored under (word[0], word[1:]); do not mutate it.
    """
    if memo is None:
        memo = {}
    word = tuple(word)
    cut = len(word)
    while cut and _cls(word[cut - 1]) == _LOWER and (
            cut == len(word) or word[cut - 1].sort_key() <= word[cut].sort_key()):
        cut -= 1
    if cut <= 1 and word:
        return _act(word[0], word[1:], hw, memo)
    vec: Dict[Mono, Fraction] = {word[cut:]: Fraction(1)}
    for g in reversed(word[:cut]):
        acc: Dict[Mono, Fraction] = {}
        for mono, coeff in vec.items():
            for m2, c2 in _act(g, mono, hw, memo).items():
                acc[m2] = acc.get(m2, 0) + coeff * c2
        vec = {m: v for m, v in acc.items() if v}
    return vec


def _enumerate_cell(n: int, s: int, max_factors: int) -> List[Mono]:
    """All canonical monomials with the given depth and charge."""
    found: List[Mono] = []
    f0 = f(0)

    def rec(k: int, depth_left: int, factors: Mono, imbalance: int):
        if not depth_left:  # only f_0 powers are left to place
            a0 = s - imbalance
            if a0 < 0:
                return
            if len(factors) + a0 > max_factors:
                raise ResourceBound(
                    f"monomial exceeds the factor cap {max_factors}; "
                    f"raise max_factors to build this cell")
            found.append(factors + (f0,) * a0)
            return
        if not k:
            return
        # canonical within-degree order: d, h, f, e; degrees ascend left to
        # right, so the -k block follows everything already collected
        dk, hk, fk, ek = d(-k), h(-k), f(-k), e(-k)
        for total in range(depth_left // k + 1):
            rest = depth_left - k * total
            for nd in range(total + 1):
                head = factors + (dk,) * nd
                for nh in range(total - nd + 1):
                    head_h = head + (hk,) * nh
                    left = total - nd - nh
                    for nf in range(left + 1):
                        ne = left - nf
                        rec(k - 1, rest, head_h + (fk,) * nf + (ek,) * ne,
                            imbalance + nf - ne)

    rec(n, n, (), 0)
    # sort by the factors' sort keys, looked up once per generator
    keys = {g: g.sort_key() for k in range(n + 1)
            for g in (d(-k), h(-k), f(-k), e(-k))}
    found.sort(key=lambda m: tuple(map(keys.__getitem__, m)))
    return found


@dataclass(frozen=True)
class SingularVector:
    """A nonzero vector killed by the raising kill set, with its cell."""

    depth: int
    charge: int
    basis: Tuple[Mono, ...]
    coefficients: Tuple[Fraction, ...]

    def vector(self) -> Vec:
        return Vec({m: c for m, c in zip(self.basis, self.coefficients) if c})


class TruncatedModule:
    """Highest-weight module restricted to depth <= N, charge <= S.

    Construction is single-writer; after building, all queries are read-only
    apart from the action memo, which is insert-only and keyed on (g, mono),
    so concurrent readers agree with a sequential run.
    """

    def __init__(self, hw: HighestWeight, depth_bound: int, charge_bound: int,
                 max_factors: int = DEFAULT_MAX_FACTORS,
                 max_basis: Optional[int] = None):
        if depth_bound < 0:
            raise InvalidBound("depth bound must be >= 0")
        if charge_bound < 0:
            raise InvalidBound("charge bound must be >= 0")
        if max_basis is None:
            max_basis = _max_basis_from_env()
        self.hw = hw
        self.depth_bound = depth_bound
        self.charge_bound = charge_bound
        self.max_factors = max_factors
        self.cells: Dict[Tuple[int, int], Tuple[Mono, ...]] = {}
        self.index: Dict[Tuple[int, int], Dict[Mono, int]] = {}
        total = 0
        for n in range(depth_bound + 1):
            for s in range(-n, charge_bound + 1):
                monos = _enumerate_cell(n, s, max_factors)
                total += len(monos)
                if total > max_basis:
                    raise ResourceBound(
                        f"basis size exceeds cap {max_basis}; raise "
                        f"{MAX_BASIS_ENV} or shrink the bounds")
                self.cells[(n, s)] = tuple(monos)
                self.index[(n, s)] = {m: i for i, m in enumerate(monos)}
        self.basis_size = total
        # (g, mono) -> image, and (g, y) -> bracket terms; see _act
        self._apply_cache: dict = {}

    def weight_space_dim(self, n: int, s: int) -> int:
        """Dimension of the (depth, charge) cell; OutOfWindow outside the
        truncation, 0 on in-window cells that are empty for weight reasons."""
        if n < 0 or n > self.depth_bound or s > self.charge_bound:
            raise OutOfWindow(f"cell ({n}, {s}) is outside the truncation")
        if s < -n:
            return 0
        return len(self.cells[(n, s)])

    def weight_of_cell(self, n: int, s: int) -> Tuple[Fraction, Fraction]:
        return self.hw.lam_d - n, self.hw.mu - 2 * s

    def apply_gen(self, g: Gen, mono: Mono) -> Dict[Mono, Fraction]:
        """Image of a canonical monomial: the memo entry itself, which the
        caller must not mutate.  A miss goes through ``pbw_straighten``,
        which stores the entry."""
        cached = self._apply_cache.get((g, mono))
        if cached is None:
            cached = pbw_straighten((g,) + mono, self.hw, self._apply_cache)
        return cached

    def act(self, g: Gen, v: Vec) -> Vec:
        """Exact action on a module vector; raises OutOfWindow when a nonzero
        image leaves the kept cells."""
        acc: Dict[Mono, Fraction] = {}
        for mono, coeff in v:
            img = self.apply_gen(g, mono)
            if not img:
                continue
            n2 = depth_of(mono) - g.degree
            s2 = charge_of(mono) + charge_shift(g)
            if n2 > self.depth_bound or s2 > self.charge_bound:
                raise OutOfWindow(
                    f"action of {g} lands in cell ({n2}, {s2}) outside the "
                    f"truncation (N={self.depth_bound}, S={self.charge_bound})")
            for m2, c2 in img.items():
                acc[m2] = acc.get(m2, Fraction(0)) + coeff * c2
        return Vec(acc)

    def cell_matrix(self, g: Gen, cell: Tuple[int, int]) -> List[List[Fraction]]:
        """Matrix of g from the given cell to its shifted target cell.

        Rows are indexed by the target-cell basis; a mathematically empty
        target (negative depth, or charge below -depth) yields a 0 x dim
        matrix after checking the images really vanish.
        """
        n, s = cell
        source = self.cells.get(cell, ())
        n2 = n - g.degree
        s2 = s + charge_shift(g)
        if n2 < 0 or s2 < -n2:
            for mono in source:
                img = self.apply_gen(g, mono)
                if img:
                    raise AssertionError(
                        f"nonzero image in a weight-empty cell ({n2}, {s2})")
            return []
        if n2 > self.depth_bound or s2 > self.charge_bound:
            raise OutOfWindow(
                f"matrix of {g} from cell {cell} targets ({n2}, {s2}) "
                f"outside the truncation")
        target_index = self.index[(n2, s2)]
        mat = [[Fraction(0)] * len(source) for _ in target_index]
        for j, mono in enumerate(source):
            for m2, c2 in self.apply_gen(g, mono).items():
                mat[target_index[m2]][j] = c2
        return mat

    def find_singular_vectors(self, max_depth: int) -> List[SingularVector]:
        """Joint kernels of the raising kill set, cell by cell.

        Searches cells with depth <= max_depth and charge <= S-1 (the top
        charge slice is excluded because the f_1 image would leave the kept
        cells).  The highest-weight line itself always appears at (0, 0).
        """
        if max_depth > self.depth_bound - 2:
            raise OutOfWindow(
                f"max_depth {max_depth} needs depth bound >= {max_depth + 2} "
                f"so kill-set images stay inside the truncation")
        results: List[SingularVector] = []
        for n in range(max_depth + 1):
            for s in range(-n, self.charge_bound):
                basis = self.cells[(n, s)]
                if not basis:
                    continue
                stacked: List[List[Fraction]] = []
                for g in RAISING_KILL_SET:
                    stacked.extend(self.cell_matrix(g, (n, s)))
                for coeffs in nullspace(stacked, ncols=len(basis)):
                    results.append(SingularVector(n, s, basis, tuple(coeffs)))
        return results


def build_verma(hw: HighestWeight, depth_bound: int,
                charge_bound: Optional[int] = None,
                max_factors: int = DEFAULT_MAX_FACTORS,
                max_basis: Optional[int] = None) -> TruncatedModule:
    """Build the truncation of the highest-weight module induced from hw.

    The default charge bound is depth_bound + 4: f_0 preserves depth, so a
    pure depth cut would leave infinite-dimensional slices.
    """
    if charge_bound is None:
        charge_bound = depth_bound + 4
    return TruncatedModule(hw, depth_bound, charge_bound,
                           max_factors=max_factors, max_basis=max_basis)


def verma_act(module: TruncatedModule, g: Gen, v: Vec) -> Vec:
    return module.act(g, v)


def weight_space_dim(module: TruncatedModule, n: int, s: int) -> int:
    return module.weight_space_dim(n, s)


def find_singular_vectors(module: TruncatedModule, max_depth: int) -> List[SingularVector]:
    return module.find_singular_vectors(max_depth)


def dims_rows(module: TruncatedModule) -> List[Tuple[int, int, int]]:
    """(depth, charge, dim) rows for every kept cell, sorted."""
    rows = []
    for n in range(module.depth_bound + 1):
        for s in range(-n, module.charge_bound + 1):
            rows.append((n, s, module.weight_space_dim(n, s)))
    return rows


def write_dims_csv(module: TruncatedModule, fileobj) -> None:
    fileobj.write("depth,charge,dim\n")
    for n, s, dim in dims_rows(module):
        fileobj.write(f"{n},{s},{dim}\n")


def singular_vectors_json(vectors: Iterable[SingularVector]) -> List[dict]:
    out = []
    for sv in vectors:
        out.append({
            "depth": sv.depth,
            "charge": sv.charge,
            "coefficients": [str(c) for c in sv.coefficients],
            "basis": [mono_str(m) for m in sv.basis],
        })
    return out
