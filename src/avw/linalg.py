"""Exact rational linear algebra: fraction-free elimination, ranks, nullspaces.

All matrices are lists of rows with exact entries (``int`` or
``fractions.Fraction``; kernels come back as ``Fraction``), or for kernels
dicts ``{col: coeff}``, which ``stack_columns`` builds from matrices given
column by column as ``(row, coeff)`` pairs.  Ranks and kernels go through
``row_echelon_ff``, a sparse fraction-free elimination over primitive
integer rows, so no floating point appears anywhere.  ``nullspace`` returns
the canonical kernel basis, which does not depend on the echelon form or the
row order.

``full_rank_mod_p`` is a one-sided certificate: the same elimination over
the prime field F_P, P = 2^61 - 1.  Every minor that is nonzero mod P is
nonzero over Q, so rank over F_P <= rank over Q, and rank ``ncols`` mod P
proves that the kernel over Q is {0}.  A "no" proves nothing and only sends
the matrix on to the exact elimination, which stays the only producer of a
nonzero kernel (Dumas-Saunders-Villard, J. Symbolic Comput. 32, 2001).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from .errors import InternalError


def frac(x) -> Fraction:
    """Coerce ints, strings like '7/6', and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _exact(x):
    """An exact value in its compact form: an ``int`` when it is integral."""
    return x.numerator if x.denominator == 1 else x


PRIME = 2 ** 61 - 1  # the modulus of full_rank_mod_p


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _nonzero_terms(row, ncols: int) -> list:
    """The ``(col, coeff)`` pairs of a dense or dict row's nonzero entries."""
    if isinstance(row, dict):
        if row and not 0 <= min(row) <= max(row) < ncols:
            raise InternalError(f"sparse row has a column outside 0..{ncols - 1}")
        return [(j, x) for j, x in row.items() if x]
    return [(j, x) for j, x in enumerate(row) if x]


def _width(rows: Sequence, ncols: int | None) -> int:
    """The number of columns: ``ncols``, which empty or sparse matrices
    need, or the length of the first dense row, which must agree with it."""
    if ncols is None:
        if not rows or isinstance(rows[0], dict):
            raise InternalError("ncols required for an empty or sparse matrix")
        return len(rows[0])
    if rows and not isinstance(rows[0], dict) and len(rows[0]) != ncols:
        raise InternalError("ncols disagrees with row length")
    return ncols


def row_echelon_ff(rows: Sequence, ncols: int | None = None) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon form by sparse row insertion.

    Rows are dense sequences or dicts ``{col: coeff}`` (which need
    ``ncols``).  Zero rows are dropped.  Each other row becomes a primitive
    integer row ``{col: int}`` and is reduced against the pivot row ``p`` of
    its leading column ``c`` (``r <- (a/g) r - (b/g) p`` with ``a = p[c]``,
    ``b = r[c]``, ``g = gcd(a, b)``, then divided by its content) until it is
    zero or owns a new pivot.  Reading stops once every column has a pivot.
    Returns the dense integer echelon rows and their pivot columns, in
    increasing order; the pivot columns are those of the reduced row echelon
    form.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivot_rows: Dict[int, Dict[int, int]] = {}
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        nonzero = _nonzero_terms(row, ncols)
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


def full_rank_mod_p(rows: Sequence, ncols: int) -> bool:
    """Do the rows have rank ``ncols`` modulo ``PRIME``?  Then the kernel
    over Q is {0} (see the module docstring).

    The same sparse insertion as ``row_echelon_ff``, over F_PRIME: a
    rational a/b becomes a * b^-1 mod PRIME, and pivot rows are scaled to a
    leading 1.  False when PRIME divides a denominator, or the rank mod PRIME
    is below ``ncols``; False never says anything about the rank over Q.
    Reading stops once every column has a pivot.
    """
    if len(rows) < ncols:
        return False
    pivot_rows: Dict[int, Dict[int, int]] = {}  # pivot column -> the rest of its row
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        r: Dict[int, int] = {}
        for j, x in _nonzero_terms(row, ncols):
            if isinstance(x, int):
                v = x % PRIME
            else:
                den = x.denominator % PRIME
                if not den:
                    return False
                v = x.numerator * pow(den, -1, PRIME) % PRIME
            if v:
                r[j] = v
        while r:
            c = min(r)
            b = r.pop(c)
            p = pivot_rows.get(c)
            if p is None:
                if b != 1:
                    inv = pow(b, -1, PRIME)
                    r = {j: x * inv % PRIME for j, x in r.items()}
                pivot_rows[c] = r
                break
            for j, x in p.items():
                v = (r.get(j, 0) - b * x) % PRIME
                if v:
                    r[j] = v
                else:
                    del r[j]
    return len(pivot_rows) == ncols


def stack_columns(matrices) -> List[Dict[int, object]]:
    """Sparse rows ``{col: coeff}`` of matrices given column by column, each
    column its ``(row, coeff)`` pairs, stacked in the order given: per matrix
    its nonempty rows in ascending order."""
    stacked: List[Dict[int, object]] = []
    for columns in matrices:
        rows: Dict[int, Dict[int, object]] = defaultdict(dict)
        for col, pairs in enumerate(columns):
            for r, x in pairs:
                rows[r][col] = x
        stacked.extend(rows[r] for r in sorted(rows))
    return stacked


def rank(rows: Sequence, ncols: int | None = None) -> int:
    """Exact rank.  Rows are dense sequences or dicts ``{col: coeff}``;
    ``ncols`` must be given when they are sparse, as for ``nullspace``."""
    if not rows:
        return 0
    _, pivots = row_echelon_ff(rows, _width(rows, ncols))
    return len(pivots)


def nullspace(rows: Sequence, ncols: int | None = None) -> List[List[Fraction]]:
    """Exact basis of the right kernel {v : A v = 0}.

    Rows are dense sequences or dicts ``{col: coeff}``; ``ncols`` must be
    given when ``rows`` is empty (a 0 x n matrix has the full standard basis
    as kernel) or sparse.  The rows are taken sparsest first (Markowitz's
    ordering), which keeps fill-in and entry growth small on tall sparse
    stacks.  ``full_rank_mod_p`` reads them first: full rank mod p proves
    the kernel is {0}, and most kernels the searches ask for are.  Any other
    matrix goes to ``row_echelon_ff``, the only producer of a nonzero kernel.
    Basis vectors carry a 1 in their free coordinate, so the result is
    canonical for a fixed column order.
    """
    ncols = _width(rows, ncols)
    ordered = sorted(rows, key=len)
    if full_rank_mod_p(ordered, ncols):
        return []
    ech, pivots = row_echelon_ff(ordered, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        support = [f]  # the nonzero coordinates of v
        # back-substitute pivot coordinates from the bottom row up
        for row, c in zip(reversed(ech), reversed(pivots)):
            s = sum(row[j] * v[j] for j in support)
            if s:
                v[c] = -s / row[c]
                support.append(c)
        basis.append(v)
    return basis


class Vec:
    """Finite formal linear combination with exact rational coefficients.

    Built from a dict ``{key: coeff}``.  Keys may be any hashable label;
    zero coefficients are never stored.  Instances are treated as immutable
    by convention; they compare by their terms and are unhashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, v in terms.items():
                v = frac(v)
                if v:
                    d[k] = v
        self.terms = d

    @classmethod
    def basis(cls, key, coeff=1) -> "Vec":
        return cls({key: frac(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def int_items(self) -> tuple:
        """The (key, coefficient) pairs as a tuple, integral coefficients as ``int``.

        Exact like the Fractions they replace, smaller than a dict, and
        products of ints are far cheaper: memoized sweeps keep their
        structure constants in this form and turn their sums back into a Vec.
        """
        return tuple((k, _exact(v)) for k, v in self.terms.items())

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

    def scaled(self, s) -> "Vec":
        s = frac(s)
        out = Vec.__new__(Vec)
        out.terms = {} if s == 0 else {k: s * v for k, v in self.terms.items()}
        return out

    def __eq__(self, other):
        return isinstance(other, Vec) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"{v}*{k}")
        return " + ".join(bits)
