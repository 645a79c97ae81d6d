"""The affine-Virasoro algebra of type A1 and its named subalgebras.

The algebra has basis {e_i, f_i, h_i, d_i : i in Z} together with one central
element C, and bracket

    [e_i, f_j] = h_{i+j} + i * delta_{i+j,0} C
    [h_i, e_j] = 2 e_{i+j}          [h_i, f_j] = -2 f_{i+j}
    [h_i, h_j] = 2 i delta_{i+j,0} C
    [d_i, x_j] = j x_{i+j}            for x in {e, f, h}
    [d_i, d_j] = (j - i) d_{i+j} + (j^3 - j)/12 * delta_{i+j,0} C
    [e_i, e_j] = [f_i, f_j] = 0       [C, -] = 0

Everything is exact over the rationals.  Elements are immutable and all
operations are pure functions, so concurrent use needs no locking.  The
module holds no cache: ``jacobi_defect`` takes an optional ``memo`` dict
that the caller creates for one sweep (``avw jacobi`` makes one per run)
and drops.  It maps a generator pair (x, y) to the terms of [x, y] as
``Vec.int_items``; a hit is one ``memo.get`` and a miss calls the live
``bracket_gens``.  The Jacobi sum of a triple is the same three terms for
each of its cyclic rotations, for any bracket, so a sweep over all triples
computes it once per orbit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

from .errors import InvalidArgument
from .linalg import Vec

FAMILY_ORDER = {"d": 0, "h": 1, "f": 2, "e": 3, "C": 4}


class Gen(NamedTuple):
    """One basis symbol: a family tag ('e','f','h','d','C') and a degree."""

    family: str
    degree: int = 0

    def sort_key(self):
        return (self.degree, FAMILY_ORDER[self.family])

    def __str__(self):
        if self.family == "C":
            return "C"
        return f"{self.family}_{self.degree}"


def e(i: int) -> Gen:
    return Gen("e", i)


def f(i: int) -> Gen:
    return Gen("f", i)


def h(i: int) -> Gen:
    return Gen("h", i)


def d(i: int) -> Gen:
    return Gen("d", i)


C = Gen("C", 0)


def as_element(x: Union[Gen, Vec]) -> Vec:
    return Vec.basis(x) if isinstance(x, Gen) else x


def bracket_gens(x: Gen, y: Gen) -> Vec:
    """Bracket of two basis generators from the defining relations; a pair
    out of (d, h, f, e) order is swapped and its sign flipped."""
    fx, fy = x.family, y.family
    out: dict = {}
    if fx != "C" != fy:
        sign = 1
        if FAMILY_ORDER[fx] > FAMILY_ORDER[fy]:
            x, y, fx, fy, sign = y, x, fy, fx, -1
        i, j = x.degree, y.degree
        if fx == fy == "d":
            if j != i:
                out[d(i + j)] = Fraction(j - i)
            if i + j == 0 and j ** 3 != j:
                out[C] = Fraction(j ** 3 - j, 12)
        elif fx == "d":  # [d_i, x_j] = j x_{i+j}
            if j:
                out[Gen(fy, i + j)] = Fraction(sign * j)
        elif fx == fy == "h":
            if i + j == 0 and i:
                out[C] = Fraction(2 * i)
        elif fx == "h":  # [h_i, e_j] = 2 e_{i+j}, [h_i, f_j] = -2 f_{i+j}
            out[Gen(fy, i + j)] = Fraction(2 * sign if fy == "e" else -2 * sign)
        elif fx == "f" and fy == "e":  # [f_i, e_j] = -h_{i+j} - j delta C
            out[h(i + j)] = Fraction(-sign)
            if i + j == 0 and j:
                out[C] = Fraction(-sign * j)
    vec = Vec.__new__(Vec)
    vec.terms = out
    return vec


def _bracket_items(memo: dict, x: Gen, y: Gen) -> tuple:
    """The terms of [x, y] through ``memo``, as ``Vec.int_items``."""
    items = memo.get((x, y))
    if items is None:
        items = memo[x, y] = bracket_gens(x, y).int_items()
    return items


def bracket(x: Union[Gen, Vec], y: Union[Gen, Vec]) -> Vec:
    """Bilinear extension of the defining relations to whole elements."""
    out: dict = {}
    for gx, cx in as_element(x):
        for gy, cy in as_element(y):
            s = cx * cy
            for g, c in bracket_gens(gx, gy):
                out[g] = out.get(g, 0) + s * c
    return Vec(out)


def jacobi_defect(x: Gen, y: Gen, z: Gen, memo: Optional[dict] = None) -> Vec:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]], summed into one coefficient dict;
    zero exactly when Jacobi holds.  The sum is invariant under rotating
    (x, y, z), so a sweep needs one call per cyclic orbit (``avw jacobi``
    calls it on the least rotation of generator indices).  ``memo`` is as in
    the module docstring."""
    if memo is None:
        memo = {}
    get = memo.get
    out: dict = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        inner = get((b, c))
        for g, cg in _bracket_items(memo, b, c) if inner is None else inner:
            outer = get((a, g))
            for k, ck in _bracket_items(memo, a, g) if outer is None else outer:
                out[k] = out.get(k, 0) + cg * ck
    return Vec(out) if any(out.values()) else Vec()


class AlgebraSpec(NamedTuple):
    """A named subalgebra given by its generating families and degree rules.

    ``families`` maps a family tag to the allowed degrees: "all" or a frozen
    set of specific degrees.  ``has_center`` states whether C belongs.
    """

    name: str
    families: tuple  # tuple of (family, "all" | frozenset of degrees)
    has_center: bool

    def contains(self, g: Gen) -> bool:
        if g.family == "C":
            return self.has_center
        for fam, degs in self.families:
            if fam == g.family and (degs == "all" or g.degree in degs):
                return True
        return False

    def generator_count(self, lo: int, hi: int) -> int:
        """The length of ``generators(lo, hi)`` for lo <= hi, without listing them."""
        return self.has_center + sum(hi - lo + 1 if degs == "all" else
                                     sum(lo <= k <= hi for k in degs)
                                     for _, degs in self.families)

    def generators(self, lo: int, hi: int) -> Iterator[Gen]:
        """Basis generators with degree in [lo, hi], C last if present.  A
        family with finitely many degrees lists those, not the range."""
        for fam, degs in self.families:
            degrees = (range(lo, hi + 1) if degs == "all"
                       else sorted(k for k in degs if lo <= k <= hi))
            for k in degrees:
                yield Gen(fam, k)
        if self.has_center:
            yield C


VIR = AlgebraSpec("Vir", (("d", "all"),), True)
HVIR = AlgebraSpec("D", (("d", "all"), ("h", "all")), True)
T2 = AlgebraSpec("T2", (("d", "all"), ("h", "all"), ("e", "all")), True)
SL2LOOP = AlgebraSpec(
    "Sl2Loop",
    (("e", "all"), ("f", "all"), ("h", "all"), ("d", frozenset({0}))),
    True,
)
SL2 = AlgebraSpec(
    "Sl2",
    (("e", frozenset({0})), ("f", frozenset({0})), ("h", frozenset({0}))),
    False,
)
FULL = AlgebraSpec("L", (("d", "all"), ("e", "all"), ("f", "all"), ("h", "all")), True)

ALGEBRAS = {a.name: a for a in (VIR, HVIR, T2, SL2LOOP, SL2, FULL)}


def algebra_by_name(name: str) -> AlgebraSpec:
    try:
        return ALGEBRAS[name]
    except KeyError:
        raise InvalidArgument(f"unknown algebra {name!r}; choose from {sorted(ALGEBRAS)}") from None


def in_subalgebra(x: Union[Gen, Vec], spec: AlgebraSpec) -> bool:
    """True iff every generator in the support of x lies in the subalgebra."""
    return all(spec.contains(g) for g, _ in as_element(x))


def element_str(x: Vec) -> str:
    """Canonical human-readable form, terms sorted by (degree, family)."""
    if not x:
        return "0"
    bits = []
    for g, coeff in sorted(x, key=lambda term: term[0].sort_key()):
        if coeff == 1:
            bits.append(str(g))
        elif coeff == -1:
            bits.append(f"-{g}")
        else:
            bits.append(f"{coeff}*{g}")
    return " + ".join(bits).replace("+ -", "- ")
