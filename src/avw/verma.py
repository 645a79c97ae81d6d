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

Memo coefficients are exact and never zero: an ``int`` when the value is
integral and a ``Fraction`` with denominator > 1 otherwise
(``linalg._exact``), so most of the recursion runs on int arithmetic.  Readers that need
``Fraction`` entries convert at their own boundary.

Most cells hold no singular vector, and for c != -2 that is known in closed
form.  The Sugawara coset splits the module into a Virasoro Verma module of
central charge c' = -c - 3c/(c+2) and weight h' = -lam_d - mu(mu+2)/(4(c+2))
tensored with an affine sl2 Verma module of level c (Goddard-Kent-Olive,
Commun. Math. Phys. 103, 1986).  A singular vector off the highest-weight
line lies in the maximal submodule, so its cell is one where the Kac
determinant of the first factor or the Kac-Kazhdan determinant of the
second vanishes (Kac-Kazhdan, Adv. Math. 34, 1979).
``TruncatedModule.may_be_singular`` is that test; at c = -2 it keeps every
cell.  Where the Kac determinant of the first factor has no zero up to
depth N, each singular vector of depth <= N lies in U(g^)v, the span of the
monomials with no d factor, and both kill-set searches read only those
columns of a cell (``TruncatedModule.affine_columns``).  There e_0 and f_1
alone decide the kernel.  They generate the positive part of affine sl2,
so a vector w = u.v, u in U(g^), that they kill is g^-singular.  Each
normally ordered term of a Sugawara operator L^S_n, n > 0, ends in a
positive mode, so L^S_n w = 0; the coset operator L'_n = d_n - L^S_n
commutes with g^, so L'_n w = u.L'_n v = 0; hence d_1 w = d_2 w = 0
(``TruncatedModule.kill_set``).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import FAMILY_ORDER, Gen, _bracket_items, d, e, f, h
# unused here, but perfbench/tracer.py counts bracket_gens calls by wrapping
# the name in every module that imports it
from .algebra import bracket_gens  # noqa: F401
from .errors import InternalError, InvalidBound, OutOfWindow, ResourceBound
from .linalg import Vec, _exact, frac, full_rank_mod_p, nullspace, stack_columns

Mono = Tuple[Gen, ...]

MAX_FACTORS = 24
DEFAULT_MAX_BASIS = 100_000
MAX_BASIS_ENV = "AVW_MAX_BASIS"

# the raising kill set: generates everything of positive degree as a Lie
# algebra ([e_0, f_1] = h_1, [h_1, e_0] = 2e_1; no bracket of degree-1
# generators reaches d_2), and a vector killed by x and y is killed by [x, y].
# On U(g^)v, for c != -2, e_0 and f_1 alone suffice (TruncatedModule.kill_set)
RAISING_KILL_SET = (e(0), d(1), f(1), d(2))
# the lowering kill set generates the negative part the same way:
# [f_0, e_-1] = -h_-1, [h_-1, f_0] = -2f_-1
KILL_LOWEST = (f(0), d(-1), e(-1), d(-2))

Coeff = Union[int, Fraction]
# a matrix column: its nonzero (row, coeff) pairs in ascending row order
Pairs = Tuple[Tuple[int, Coeff], ...]


def cap_from_env(name: str, default: int) -> int:
    """The work cap in environment variable ``name``, or ``default`` when it
    is unset; anything but a nonnegative integer raises InvalidBound."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError(cap)
    except ValueError:
        raise InvalidBound(
            f"{name} must be a nonnegative integer, got {raw!r}") from None
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


def _act(g: Gen, mono: Mono, hw: HighestWeight, memo: dict) -> Dict[Mono, Coeff]:
    """g . (mono . v) for a canonical monomial, memoized on (g, mono).

    Uses g . (y . m') = y . (g . m') + [g, y] . m' with y the leftmost
    factor; d_0, h_0 and C act on canonical monomials by their weight.
    The returned dict is the memo entry itself: callers must not mutate it.
    """
    key = (g, mono)
    out = memo.get(key)
    if out is not None:
        return out
    fam, deg = g
    lowering = deg < 0 or (not deg and fam == "f")
    if fam == "C":
        out = {mono: _exact(hw.c)} if hw.c else {}
    elif not deg and (fam == "d" or fam == "h"):
        eig = (hw.lam_d - depth_of(mono) if fam == "d"
               else hw.mu - 2 * charge_of(mono))
        out = {mono: _exact(eig)} if eig else {}
    elif not mono:
        out = {(g,): 1} if lowering else {}
    elif lowering and (deg, FAMILY_ORDER[fam]) <= (
            mono[0].degree, FAMILY_ORDER[mono[0].family]):
        out = {(g,) + mono: 1}
    else:
        y, rest = mono[0], mono[1:]
        acc: Dict[Mono, Coeff] = {}
        for m2, c2 in _act(g, rest, hw, memo).items():
            for m3, c3 in _act(y, m2, hw, memo).items():
                acc[m3] = acc.get(m3, 0) + c2 * c3
        for b, bc in _bracket_items(memo, g, y):
            for m3, c3 in _act(b, rest, hw, memo).items():
                acc[m3] = acc.get(m3, 0) + bc * c3
        out = {m: _exact(v) for m, v in acc.items() if v}
    memo[key] = out
    return out


def pbw_straighten(word: Sequence[Gen], hw: HighestWeight,
                   memo: Optional[dict] = None) -> Dict[Mono, Coeff]:
    """Rewrite (word) . v into canonical monomials applied to v.

    Folds the word right to left through the one-generator action; the
    longest ordered run of lowering factors at the right end is already
    canonical and is taken as it stands.  Raising factors annihilate v at
    the right end; d_0, h_0, C evaluate to their eigenvalues there.  When at
    most one factor precedes that run, the result is the memo entry of
    ``_act`` itself, stored under (word[0], word[1:]); do not mutate it.
    Coefficients take the memo form described in the module docstring.
    """
    if memo is None:
        memo = {}
    word = tuple(word)
    cut, right = len(word), None  # right: sort key of the factor after the cut
    while cut:
        fam, deg = word[cut - 1]
        here = (deg, FAMILY_ORDER[fam])
        if not (deg < 0 or (not deg and fam == "f")) or (right and here > right):
            break
        cut, right = cut - 1, here
    if cut <= 1 and word:
        return _act(word[0], word[1:], hw, memo)
    vec: Dict[Mono, Coeff] = {word[cut:]: 1}
    for g in reversed(word[:cut]):
        acc: Dict[Mono, Coeff] = {}
        for mono, coeff in vec.items():
            for m2, c2 in _act(g, mono, hw, memo).items():
                acc[m2] = acc.get(m2, 0) + coeff * c2
        vec = {m: _exact(v) for m, v in acc.items() if v}
    return vec


def image_pairs(img: Mapping, target: Mapping) -> Pairs:
    """An image ``{basis vector: coeff}`` as its ``(row, coeff)`` pairs over
    ``target`` (basis vector -> row), in ascending row order."""
    pairs = [(target[m2], c2) for m2, c2 in img.items()]
    pairs.sort()  # in place: cheaper than sorted() on short images
    return tuple(pairs)


def _enumerate_cell(n: int, s: int) -> List[Mono]:
    """All canonical monomials with the given depth and charge, in canonical
    order: the walk takes factors in sorted generator order, two monomials of
    one cell first differ at a negative factor (both negative parts have
    depth n), and f_0 sorts after every negative generator."""
    found: List[Mono] = []
    gens = sorted((g(-k) for k in range(1, n + 1) for g in (d, h, f, e)),
                  key=Gen.sort_key)

    def rec(start: int, depth_left: int, factors: Mono, imbalance: int):
        if not depth_left:  # only f_0 powers are left to place
            if imbalance <= s:
                found.append(factors + (f(0),) * (s - imbalance))
            return
        for i in range(start, len(gens)):
            g = gens[i]
            if -g.degree <= depth_left:
                rec(i, depth_left + g.degree, factors + (g,),
                    imbalance + charge_shift(g))

    rec(0, n, (), 0)
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


def _cell_dims(depth_bound: int, charge_bound: int) -> Dict[Tuple[int, int], int]:
    """dim(n, s) for every kept cell, in (n, s) order, without enumerating.

    A monomial of depth n whose negative part has e/f imbalance i carries
    f_0^(s - i), so dim(n, s) counts the negative parts of depth n with
    imbalance <= s.  Those are counted by folding in the geometric series
    of d, h, f, e at degrees -1..-N (each adds its degree to the depth and
    0, 0, +1, -1 to the imbalance), then summed over imbalance.
    """
    top, width = depth_bound, 2 * depth_bound + 1
    # counts[n][i + top]: negative parts of depth n and imbalance i
    counts = [[0] * width for _ in range(top + 1)]
    counts[0][top] = 1
    for k in range(1, top + 1):
        for step in (0, 0, 1, -1):  # d, h, f, e at degree -k
            for n in range(k, top + 1):
                row, prev = counts[n], counts[n - k]
                for i in range(max(step, 0), width + min(step, 0)):
                    row[i] += prev[i - step]
    dims: Dict[Tuple[int, int], int] = {}
    for n, row in enumerate(counts):
        running = 0
        for s in range(-n, charge_bound + 1):
            if s <= n:
                running += row[s + top]
            dims[(n, s)] = running
    return dims


class _LazyMap(Mapping):
    """Read-only mapping over fixed keys whose values are built on first
    read and kept.  Insert-only: ``setdefault`` keeps a single value when
    concurrent first readers race."""

    def __init__(self, keys, build):
        self._keys, self._build, self._values = keys, build, {}

    def __getitem__(self, key):
        value = self._values.get(key)
        if value is None:
            if key not in self._keys:
                raise KeyError(key)
            value = self._values.setdefault(key, self._build(key))
        return value

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class TruncatedModule:
    """Highest-weight module restricted to depth <= N, charge <= S.

    Construction counts the kept cells (``_cell_dims``) and checks them, in
    (depth, charge) order, against the factor cap ``MAX_FACTORS`` and the
    basis cap ``AVW_MAX_BASIS``; it enumerates nothing.
    ``cells`` and ``index`` are read-only mappings over the kept cells in
    (depth, charge) order whose values are built on first read.

    Construction is single-writer; after building, all queries are read-only
    apart from two insert-only memos: the action memo, keyed on (g, mono),
    and the cell memo behind ``cells``/``index``, keyed on the cell; and the
    radical tops behind ``may_be_singular``, set on first use.  Each is a
    pure function of its key or of the module, so concurrent readers agree
    with a sequential run.
    """

    def __init__(self, hw: HighestWeight, depth_bound: int, charge_bound: int):
        if depth_bound < 0:
            raise InvalidBound("depth bound must be >= 0")
        if charge_bound < 0:
            raise InvalidBound("charge bound must be >= 0")
        max_basis = cap_from_env(MAX_BASIS_ENV, DEFAULT_MAX_BASIS)
        self.hw = hw
        self.depth_bound = depth_bound
        self.charge_bound = charge_bound
        # the checks stop at the first cell over the factor cap, whose depth
        # and charge are at most MAX_FACTORS + 1, so larger ones are not counted
        dims = _cell_dims(min(depth_bound, MAX_FACTORS + 1), min(charge_bound, MAX_FACTORS + 1))
        total = 0
        for (n, s), dim in dims.items():
            # the longest monomial of cell (n, s) is e_-1^n f_0^(n+s)
            if 2 * n + s > MAX_FACTORS:
                raise ResourceBound(
                    f"cell ({n}, {s}) holds a monomial of {2 * n + s} factors, "
                    f"over the factor cap {MAX_FACTORS}; shrink the bounds")
            total += dim
            if total > max_basis:
                raise ResourceBound(
                    f"basis size exceeds cap {max_basis}; raise "
                    f"{MAX_BASIS_ENV} or shrink the bounds")
        self.basis_size = total
        self._dims = dims
        # the builders close over cells, never over self, so reference
        # counting alone frees the module
        cells: Mapping[Tuple[int, int], Tuple[Mono, ...]] = _LazyMap(
            dims, lambda cell: tuple(_enumerate_cell(*cell)))
        self.cells = cells
        self.index: Mapping[Tuple[int, int], Dict[Mono, int]] = _LazyMap(
            dims, lambda cell: {m: i for i, m in enumerate(cells[cell])})
        # (g, mono) -> image, and (g, y) -> bracket terms; see _act
        self._apply_cache: dict = {}

    def weight_space_dim(self, n: int, s: int) -> int:
        """Dimension of the (depth, charge) cell; OutOfWindow outside the
        truncation, 0 on in-window cells that are empty for weight reasons."""
        if n < 0 or n > self.depth_bound or s > self.charge_bound:
            raise OutOfWindow(f"cell ({n}, {s}) is outside the truncation")
        if s < -n:
            return 0
        return self._dims[(n, s)]

    def weight_of_cell(self, n: int, s: int) -> Tuple[Fraction, Fraction]:
        return self.hw.lam_d - n, self.hw.mu - 2 * s

    @cached_property
    def _tops(self) -> Tuple[Tuple[int, int], ...]:
        """The cells (a, b) of depth a <= N at which a factor of the
        Shapovalov determinant first vanishes; the maximal submodule meets
        cell (n, s) only if a <= n and s >= b + a - n for one of them.

        Affine factor: a real positive root beta with 2(lam + rho, beta) =
        m(beta, beta) for an integer m >= 1 vanishes from m beta on; beta =
        alpha + j delta (j >= 0) gives m = (mu + 1) + j(c + 2) at (mj, m),
        and beta = -alpha + j delta (j >= 1) gives m = -(mu + 1) + j(c + 2)
        at (mj, -m).  Coset factor: the Kac factors of (r, t) and (t, r)
        vanish at level rt, from (rt, 0) on, iff their product
        x^2 - (A + B)ux + AB(u^2 - 2) + A^2 + B^2 with x = h' + (rt - 1)/2,
        A = (r^2 - 1)/4, B = (t^2 - 1)/4 and u = (13 - c')/6 is zero.  At
        the critical level c = -2 there is no coset, and the single top
        (0, 0) keeps every cell.
        """
        lam_d, mu, c = self.hw.lam_d, self.hw.mu, self.hw.c
        depth_bound = self.depth_bound
        if c == -2:
            return ((0, 0),)
        tops = set()
        for j in range(depth_bound + 1):
            for sign in (1, -1) if j else (1,):
                m = sign * (mu + 1) + j * (c + 2)
                if m.denominator == 1 and 0 < m and m * j <= depth_bound:
                    tops.add((int(m) * j, sign * int(m)))
        c_coset = -c - 3 * c / (c + 2)
        h_coset = -lam_d - mu * (mu + 2) / (4 * (c + 2))
        u = (13 - c_coset) / 6
        for r in range(1, depth_bound + 1):
            for t in range(r, depth_bound // r + 1):
                x = h_coset + Fraction(r * t - 1, 2)
                a, b = Fraction(r * r - 1, 4), Fraction(t * t - 1, 4)
                if x * x - (a + b) * u * x + a * b * (u * u - 2) + a * a + b * b == 0:
                    tops.add((r * t, 0))
        return tuple(tops)

    def may_be_singular(self, n: int, s: int) -> bool:
        """False only when cell (n, s), n <= N, provably holds no singular
        vector: it is not the highest-weight cell and lies below no top of
        ``_tops``, which are found on the first call."""
        return (n, s) == (0, 0) or any(a <= n and s >= b + a - n for a, b in self._tops)

    def affine_columns(self, n: int, s: int) -> Optional[List[int]]:
        """The positions of cell (n, s)'s monomials with no d factor; None at
        c = -2 or when a coset Kac factor vanishes at a level rt <= N, i.e.
        when ``_tops`` has a top (a, 0) (an affine one has b = +-m != 0).
        Otherwise every singular vector of depth <= N lies in their span
        U(g^)v, so a kill-set kernel read on these columns and padded with
        zeros is the whole cell's, in the same canonical basis: each d column
        is a pivot column.  ``kill_set`` pairs them with their operators."""
        if any(not b for _, b in self._tops):
            return None
        return [j for j, mono in enumerate(self.cells[(n, s)])
                if all(fam != "d" for fam, _ in mono)]

    def kill_set(self, n: int, s: int) -> Tuple[Tuple[Gen, ...], Sequence[int]]:
        """The operators, in ``RAISING_KILL_SET`` order, and the columns a
        kill-set search of cell (n, s) reads.  With ``affine_columns``: those
        columns, and e_0 and f_1, whose joint kernel on U(g^)v is that of the
        whole kill set (module docstring).  d_1 or d_2 stays where its target
        cell is weight-empty: its matrix is empty there, and ``cell_matrix``
        checks that the images of the whole cell vanish.  Without them (c =
        -2, or a coset Kac zero): every column, and the whole kill set."""
        cols = self.affine_columns(n, s)
        if cols is None:
            return RAISING_KILL_SET, range(len(self.cells[(n, s)]))
        return tuple(g for g in RAISING_KILL_SET if g.family != "d"
                     or n < g.degree or s < g.degree - n), cols

    def apply_gen(self, g: Gen, mono: Mono) -> Dict[Mono, Coeff]:
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

    def cell_matrix(self, g: Gen, cell: Tuple[int, int],
                    columns: Optional[Sequence[int]] = None) -> List[Pairs]:
        """Matrix of g from the given cell to its shifted target cell, column
        by column: the ``image_pairs`` of each source monomial's image, or of
        the monomials at the positions ``columns`` only.

        A mathematically empty target (negative depth, or charge below
        -depth) yields empty columns after checking that the images of the
        whole cell really vanish; a nonzero image there is a defect of the
        action (InternalError).
        """
        n, s = cell
        source = self.cells.get(cell, ())
        read = source if columns is None else [source[j] for j in columns]
        n2 = n - g.degree
        s2 = s + charge_shift(g)
        if n2 < 0 or s2 < -n2:
            for mono in source:
                if self.apply_gen(g, mono):
                    raise InternalError(f"nonzero image of {g} from cell {cell} in "
                                        f"the weight-empty cell ({n2}, {s2})")
            return [()] * len(read)
        if n2 > self.depth_bound or s2 > self.charge_bound:
            raise OutOfWindow(
                f"matrix of {g} from cell {cell} targets ({n2}, {s2}) "
                f"outside the truncation")
        target = self.index[(n2, s2)]  # holds every image: g moves weights by a fixed shift
        return [image_pairs(self.apply_gen(g, mono), target) for mono in read]

    def find_singular_vectors(self, max_depth: int) -> List[SingularVector]:
        """Joint kernels of the raising kill set, cell by cell.

        The kill set generates everything of positive degree, so its joint
        kernel on a cell is the cell's singular vectors.
        Searches cells with depth <= max_depth <= N and charge <= S-1 (the
        top charge slice is excluded because the f_1 image would leave the
        kept cells); none is empty, since cell (n, s) holds e_-1^n f_0^(s+n).  Every kill-set operator has degree 0, 1 or 2, so its
        image from cell (n, s) has depth n, n - 1 or n - 2 and charge at
        most s + 1: kept for every searched cell, so any max_depth up to
        the depth bound is answered.  The cells, one weight space each, are
        walked as ``windows._joint_kernel`` walks h0 blocks: once one
        kill-set operator's ``cell_matrix`` alone has full rank mod p
        (``full_rank_mod_p``), it is injective on the cell, so the joint
        kernel is {0} and the rest of the kill set is never built.  A cell
        that no single operator certifies gets its whole ``stack_columns``
        stack to ``nullspace``.  The highest-weight line is always at (0, 0).
        A cell that ``may_be_singular`` rules out is skipped before it is
        enumerated or any of its matrices built.  Each other cell builds
        only the operators and columns of its ``kill_set``: with
        ``affine_columns``, the d-free columns and e_0 and f_1, and the
        kernel vectors get zeros at the other positions.
        """
        if max_depth < 0:
            raise InvalidBound("max_depth must be >= 0")
        if max_depth > self.depth_bound:
            raise OutOfWindow(
                f"max_depth {max_depth} exceeds the depth bound {self.depth_bound}")
        results: List[SingularVector] = []
        for n in range(max_depth + 1):
            for s in range(-n, self.charge_bound):
                if not self.may_be_singular(n, s):
                    continue
                basis = self.cells[(n, s)]
                ops, cols = self.kill_set(n, s)  # e_-1^n f_0^(s+n) is d-free: cols is never empty
                stacked: List[dict] = []
                for g in ops:
                    rows = stack_columns([self.cell_matrix(g, (n, s), cols)])
                    if full_rank_mod_p(rows, len(cols)):
                        break
                    stacked.extend(rows)
                else:
                    for v in nullspace(stacked, ncols=len(cols)):
                        coeffs = dict(zip(cols, v))
                        results.append(SingularVector(n, s, basis, tuple(
                            coeffs.get(j, Fraction(0)) for j in range(len(basis)))))
        return results


def build_verma(hw: HighestWeight, depth_bound: int,
                charge_bound: Optional[int] = None) -> TruncatedModule:
    """Build the truncation of the highest-weight module induced from hw.

    The default charge bound is depth_bound + 4: f_0 preserves depth, so a
    pure depth cut would leave infinite-dimensional slices.
    """
    if charge_bound is None:
        charge_bound = depth_bound + 4
    return TruncatedModule(hw, depth_bound, charge_bound)


def dims_rows(module: TruncatedModule) -> List[Tuple[int, int, int]]:
    """(depth, charge, dim) rows for every kept cell, sorted."""
    return [(n, s, dim) for (n, s), dim in module._dims.items()]
