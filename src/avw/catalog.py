"""Catalog of the explicitly presented weight modules and their exact actions.

Rank-one families (basis v_i, i in Z, all weight spaces one-dimensional):

    IntAB(a, b):    d_m v_i = (a + i + b m) v_{m+i}                 over Vir
    IntA(a):        d_m v_i = (i + m) v_{m+i} (i != 0),
                    d_m v_0 = m (m + a) v_m                         over Vir
    IntB(a):        d_m v_i = i v_{m+i} (i != -m),
                    d_m v_{-m} = -m (m + a) v_0                     over Vir
    HVirABC(a,b,c): IntAB d-action plus h_n v_i = c v_{n+i}         over {d,h,C}
    T2Mod(a,b,c):   HVirABC action plus e_n v_i = 0                 over {d,h,e,C}

Loop family (basis u_k x t^i, 0 <= k <= lam, i in Z):

    LoopMod(lam,a,b): d_m (u x t^i) = (a + b m + i) u x t^{m+i},
                      x_m (u x t^i) = (x.u) x t^{m+i}  for x in {e,f,h}

C acts as 0 on every catalog module.  T2Corrupt is a deliberately broken
variant of T2Mod with e_n v_i = v_{n+i}; it violates the module axiom and
exists as a negative control for the defect harness.

Module vectors are ``Vec`` objects keyed by ``int`` labels (v_i) for rank-one
kinds and by ``(k, i)`` pairs (u_k x t^i) for the loop kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor
from typing import NamedTuple, Optional, Tuple, Union

from .algebra import FULL, HVIR, T2, VIR, AlgebraSpec, Gen, bracket_gens
from .errors import GeneratorOutsideAlgebra, NegativeHighestWeight, NotAModule
from .linalg import Vec


@dataclass(frozen=True)
class IntAB:
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class IntA:
    a: Fraction


@dataclass(frozen=True)
class IntB:
    a: Fraction


@dataclass(frozen=True)
class HVirABC:
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass(frozen=True)
class T2Mod:
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass(frozen=True)
class T2Corrupt:
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass(frozen=True)
class LoopMod:
    lam: int
    a: Fraction
    b: Fraction


ModuleSpec = Union[IntAB, IntA, IntB, HVirABC, T2Mod, T2Corrupt, LoopMod]

_KIND_TAG = {IntAB: "A", IntA: "A2", IntB: "B", HVirABC: "H",
             T2Mod: "T2", T2Corrupt: "T2corrupt", LoopMod: "loop"}


def spec_text(spec: ModuleSpec) -> str:
    """Canonical text form, e.g. ``A:a=1/2,b=1/3`` or ``loop:lambda=1,a=0,b=0``."""
    tag = _KIND_TAG[type(spec)]
    if isinstance(spec, (IntA, IntB)):
        return f"{tag}:a={spec.a}"
    if isinstance(spec, IntAB):
        return f"{tag}:a={spec.a},b={spec.b}"
    if isinstance(spec, (HVirABC, T2Mod, T2Corrupt)):
        return f"{tag}:a={spec.a},b={spec.b},c={spec.c}"
    return f"{tag}:lambda={spec.lam},a={spec.a},b={spec.b}"


def acting_algebra(spec: ModuleSpec) -> AlgebraSpec:
    if isinstance(spec, (IntAB, IntA, IntB)):
        return VIR
    if isinstance(spec, HVirABC):
        return HVIR
    if isinstance(spec, (T2Mod, T2Corrupt)):
        return T2
    return FULL


class Sl2Irrep(NamedTuple):
    """The (lam+1)-dimensional irreducible sl2-module on basis u_0..u_lam.

    Normalization: f.u_k = u_{k+1}, e.u_k = k(lam-k+1) u_{k-1},
    h.u_k = (lam-2k) u_k; all structure constants are integers.
    """

    lam: int
    e_mat: tuple
    f_mat: tuple
    h_mat: tuple


@lru_cache(maxsize=None)
def sl2_irrep(lam: int) -> Sl2Irrep:
    if lam < 0 or int(lam) != lam:
        raise NegativeHighestWeight(f"highest weight must be a nonnegative integer, got {lam}")
    n = lam + 1
    e_mat = [[Fraction(0)] * n for _ in range(n)]
    f_mat = [[Fraction(0)] * n for _ in range(n)]
    h_mat = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        h_mat[k][k] = Fraction(lam - 2 * k)
        if k + 1 < n:
            f_mat[k + 1][k] = Fraction(1)
        if k >= 1:
            e_mat[k - 1][k] = Fraction(k * (lam - k + 1))
    freeze = lambda m: tuple(tuple(row) for row in m)
    return Sl2Irrep(lam, freeze(e_mat), freeze(f_mat), freeze(h_mat))


def _sl2_image(spec: LoopMod, family: str, k: int) -> Tuple[Optional[int], Fraction]:
    """(target u-index, coefficient) of x.u_k in the fixed normalization."""
    lam = spec.lam
    if family == "h":
        return k, Fraction(lam - 2 * k)
    if family == "f":
        return (k + 1, Fraction(1)) if k + 1 <= lam else (None, Fraction(0))
    if family == "e":
        return (k - 1, Fraction(sl2_irrep(lam).e_mat[k - 1][k])) if k >= 1 else (None, Fraction(0))
    raise ValueError(family)


def act_basis(spec: ModuleSpec, g: Gen, label) -> Vec:
    """Action of one generator on one basis vector; C acts as 0."""
    if not acting_algebra(spec).contains(g):
        raise GeneratorOutsideAlgebra(
            f"{g} does not act on {spec_text(spec)} "
            f"(acting algebra {acting_algebra(spec).name})")
    if g.family == "C":
        return Vec.zero()
    m = g.degree
    if isinstance(spec, LoopMod):
        k, i = label
        if g.family == "d":
            coeff = spec.a + spec.b * m + i
            return Vec({(k, m + i): coeff}) if coeff else Vec.zero()
        kk, coeff = _sl2_image(spec, g.family, k)
        return Vec({(kk, m + i): coeff}) if coeff else Vec.zero()
    i = label
    if g.family == "d":
        if isinstance(spec, IntA):
            coeff = Fraction(i + m) if i != 0 else Fraction(m) * (m + spec.a)
            target = m + i
        elif isinstance(spec, IntB):
            if i != -m:
                coeff, target = Fraction(i), m + i
            else:
                coeff, target = -Fraction(m) * (m + spec.a), 0
        else:  # IntAB, HVirABC, T2Mod, T2Corrupt share the (a + i + b m) rule
            coeff, target = spec.a + i + spec.b * m, m + i
        return Vec({target: coeff}) if coeff else Vec.zero()
    if g.family == "h":
        return Vec({m + i: spec.c}) if spec.c else Vec.zero()
    if g.family == "e":
        if isinstance(spec, T2Corrupt):
            return Vec({m + i: Fraction(1)})
        return Vec.zero()
    raise GeneratorOutsideAlgebra(f"{g} does not act on {spec_text(spec)}")


def act(spec: ModuleSpec, g: Gen, v: Vec) -> Vec:
    """Linear extension of the generator action to module vectors."""
    out = Vec.zero()
    for label, coeff in v:
        out = out + act_basis(spec, g, label).scaled(coeff)
    return out


def act_element(spec: ModuleSpec, x: Vec, v: Vec) -> Vec:
    """Action of a whole algebra element (used for bracket images)."""
    out = Vec.zero()
    for g, coeff in x:
        out = out + act(spec, g, v).scaled(coeff)
    return out


def module_defect(spec: ModuleSpec, x: Gen, y: Gen, v: Vec) -> Vec:
    """act([x,y], v) - act(x, act(y, v)) + act(y, act(x, v)); 0 iff the
    module axiom holds on this triple."""
    return (act_element(spec, bracket_gens(x, y), v)
            - act(spec, x, act(spec, y, v))
            + act(spec, y, act(spec, x, v)))


def weight_of(spec: ModuleSpec, label) -> Tuple[Fraction, Fraction]:
    """(d0-eigenvalue, h0-eigenvalue) of a basis vector."""
    if isinstance(spec, LoopMod):
        k, i = label
        return spec.a + i, Fraction(spec.lam - 2 * k)
    i = label
    if isinstance(spec, (IntA, IntB)):
        d0 = Fraction(i)
    else:
        d0 = spec.a + i
    h0 = spec.c if isinstance(spec, (HVirABC, T2Mod, T2Corrupt)) else Fraction(0)
    return d0, h0


def label_str(spec: ModuleSpec, label) -> str:
    if isinstance(spec, LoopMod):
        k, i = label
        return f"u{k}*t^{i}"
    return f"v_{label}"


def canonicalize(spec: ModuleSpec) -> ModuleSpec:
    """Reduce the a-parameter mod 1 into [0,1); the shifted module is the
    same one with relabeled basis, so simplicity questions only depend on
    the class of a."""
    if isinstance(spec, (IntA, IntB)):
        return spec
    shift = floor(spec.a)
    if shift == 0:
        return spec
    a0 = spec.a - shift
    if isinstance(spec, IntAB):
        return IntAB(a0, spec.b)
    if isinstance(spec, HVirABC):
        return HVirABC(a0, spec.b, spec.c)
    if isinstance(spec, T2Mod):
        return T2Mod(a0, spec.b, spec.c)
    if isinstance(spec, LoopMod):
        return LoopMod(spec.lam, a0, spec.b)
    return spec


class SimplicityVerdict(NamedTuple):
    simple: bool
    reason: str


def is_simple(spec: ModuleSpec) -> SimplicityVerdict:
    """Decide simplicity from the intermediate-series criteria.

    Rank-one d-action families are simple iff a is not an integer or
    b is outside {0, 1}; a nonzero h-central parameter c also forces
    simplicity; a loop module over a nontrivial sl2 irrep is always simple.
    """
    if isinstance(spec, T2Corrupt):
        raise NotAModule("T2Corrupt is not a module; simplicity is undefined")
    spec = canonicalize(spec)
    if isinstance(spec, IntA):
        return SimplicityVerdict(False, "the span of v_0 is a quotient; the complement is a proper submodule")
    if isinstance(spec, IntB):
        return SimplicityVerdict(False, "the span of v_0 is a proper submodule")
    if isinstance(spec, LoopMod) and spec.lam >= 1:
        return SimplicityVerdict(True, f"loop module over a nontrivial {spec.lam + 1}-dimensional sl2 irrep")
    a, b = spec.a, spec.b
    if a.denominator != 1:
        return SimplicityVerdict(True, "a is not an integer")
    if b not in (0, 1):
        return SimplicityVerdict(True, "b is outside {0, 1}")
    if isinstance(spec, (HVirABC, T2Mod)) and spec.c != 0:
        return SimplicityVerdict(True, "h-central parameter c is nonzero")
    conds = ["a integral", "b in {0,1}"]
    if isinstance(spec, (HVirABC, T2Mod)):
        conds.append("c = 0")
    if isinstance(spec, LoopMod):
        conds.insert(0, "trivial sl2 part (lambda = 0)")
    role = "submodule" if b == 0 else "quotient"
    return SimplicityVerdict(False, ", ".join(conds) + f"; the trivial line is a {role}")


class StructureReport(NamedTuple):
    spec: ModuleSpec
    simple: bool
    trivial_line: Optional[str]       # label of the distinguished line
    line_role: Optional[str]          # "submodule" | "quotient"
    simple_subquotient: Optional[str]
    detail: str


def structure_report(spec: ModuleSpec) -> StructureReport:
    """Locate the distinguished trivial line in reducible catalog modules.

    The simple subquotient of every reducible rank-one case is the same
    module: the quotient (or submodule) on the labels away from the trivial
    line, written A'(0,0).
    """
    verdict = is_simple(spec)
    if verdict.simple:
        return StructureReport(spec, True, None, None, None, "simple: " + verdict.reason)
    subq = "A'(0,0)"
    if isinstance(spec, IntA):
        line, role = "v_0", "quotient"
    elif isinstance(spec, IntB):
        line, role = "v_0", "submodule"
    elif isinstance(spec, LoopMod):
        # lam = 0 and a integral, b in {0,1}: the line sits where a + i = 0
        i0 = -int(spec.a)
        line = f"u0*t^{i0}"
        role = "submodule" if spec.b == 0 else "quotient"
    else:
        i0 = -int(spec.a)
        line = f"v_{i0}"
        role = "submodule" if spec.b == 0 else "quotient"
    other = "quotient" if role == "submodule" else "submodule"
    return StructureReport(spec, False, line, role, subq,
                           f"the span of {line} is a {role}; the {other} is isomorphic to {subq}")
