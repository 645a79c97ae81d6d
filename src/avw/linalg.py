"""Exact rational linear algebra: fraction-free elimination, ranks, nullspaces.

All matrices are lists of rows with ``fractions.Fraction`` entries.  Ranks and
kernels go through ``row_echelon_ff``, a sparse fraction-free elimination over
primitive integer rows, so no floating point appears anywhere.  ``nullspace``
returns the canonical kernel basis, which does not depend on the echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple


def frac(x, y=None) -> Fraction:
    """Coerce ints, strings like '7/6', and Fractions to an exact Fraction."""
    if y is not None:
        return Fraction(x, y)
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def row_echelon_ff(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon form by sparse row insertion.

    Zero rows are dropped.  Each other row becomes a primitive integer row
    ``{col: int}`` and is reduced against the pivot row ``p`` of its leading
    column ``c`` (``r <- (a/g) r - (b/g) p`` with ``a = p[c]``, ``b = r[c]``,
    ``g = gcd(a, b)``, then divided by its content) until it is zero or owns
    a new pivot.  Reading stops once every column has a pivot.  Returns the
    dense integer echelon rows and their pivot columns, in increasing order;
    the pivot columns are those of the reduced row echelon form.
    """
    ncols = len(rows[0]) if rows else 0
    pivot_rows: Dict[int, Dict[int, int]] = {}
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        if not nonzero:
            continue
        mult = lcm(*(x.denominator for _, x in nonzero))
        r = _primitive({j: x.numerator * (mult // x.denominator) for j, x in nonzero})
        while r:
            c = min(r)
            p = pivot_rows.get(c)
            if p is None:
                pivot_rows[c] = r
                break
            a, b = p[c], r[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            r = {j: a * x for j, x in r.items() if j != c}
            for j, x in p.items():
                if j != c:
                    v = r.get(j, 0) - b * x
                    if v:
                        r[j] = v
                    else:
                        del r[j]
            if r:
                r = _primitive(r)
    pivots = sorted(pivot_rows)
    return [[pivot_rows[c].get(j, 0) for j in range(ncols)] for c in pivots], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows or not rows[0]:
        return 0
    _, pivots = row_echelon_ff(rows)
    return len(pivots)


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> List[List[Fraction]]:
    """Exact basis of the right kernel {v : A v = 0}.

    ``ncols`` must be given when ``rows`` is empty (a 0 x n matrix has the
    full standard basis as kernel).  Basis vectors carry a 1 in their free
    coordinate, so the result is canonical for a fixed column order.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    n = len(rows[0])
    if ncols is not None and ncols != n:
        raise ValueError("ncols disagrees with row length")
    ech, pivots = row_echelon_ff(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        # back-substitute pivot coordinates from the bottom row up
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(0)
            for j in range(c + 1, n):
                if v[j]:
                    s += Fraction(ech[r][j]) * v[j]
            v[c] = -s / ech[r][c]
        basis.append(v)
    return basis


def mat_vec(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> List[Fraction]:
    return [sum((r[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for r in rows]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    n = len(b)
    m = len(b[0])
    return [[sum((row[k] * b[k][j] for k in range(n) if row[k]), Fraction(0))
             for j in range(m)] for row in a]


def mat_sub(a, b) -> List[List[Fraction]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


class Vec:
    """Finite formal linear combination with exact rational coefficients.

    Keys may be any hashable label; zero coefficients are never stored.
    Instances are treated as immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, v in (terms.items() if isinstance(terms, dict) else terms):
                v = frac(v)
                if v:
                    w = d.get(k)
                    if w is None:
                        d[k] = v
                    else:
                        w += v
                        if w:
                            d[k] = w
                        else:
                            del d[k]
        self.terms = d

    @classmethod
    def basis(cls, key, coeff=1) -> "Vec":
        return cls({key: frac(coeff)})

    @classmethod
    def zero(cls) -> "Vec":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def __add__(self, other: "Vec") -> "Vec":
        d = dict(self.terms)
        for k, v in other.terms.items():
            w = d.get(k)
            if w is None:
                d[k] = v
            else:
                w += v
                if w:
                    d[k] = w
                else:
                    del d[k]
        out = Vec.__new__(Vec)
        out.terms = d
        return out

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scaled(-1)

    def __neg__(self) -> "Vec":
        return self.scaled(-1)

    def scaled(self, s) -> "Vec":
        s = frac(s)
        out = Vec.__new__(Vec)
        out.terms = {} if s == 0 else {k: s * v for k, v in self.terms.items()}
        return out

    def __eq__(self, other):
        return isinstance(other, Vec) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def map_keys(self, fn) -> "Vec":
        return Vec([(fn(k), v) for k, v in self.terms.items()])

    def sorted_items(self, key=None):
        return sorted(self.terms.items(), key=(lambda kv: key(kv[0])) if key else None)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"{v}*{k}")
        return " + ".join(bits)
