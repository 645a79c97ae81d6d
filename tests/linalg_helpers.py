"""Dense matrix and Vec helpers that only the tests use."""

from fractions import Fraction
from typing import List, Sequence

from avw.linalg import Vec


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


def map_keys(v: Vec, fn) -> Vec:
    """v with every key k relabelled as fn(k)."""
    return Vec([(fn(k), c) for k, c in v])
