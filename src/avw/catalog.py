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
kinds and by ``(k, i)`` pairs (u_k x t^i) for the loop kind; ``offset_labels``
lists the labels of one offset and ``offset_dim`` counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from math import floor, lcm
from typing import NamedTuple, Optional, Tuple, Union

from .algebra import FULL, HVIR, T2, VIR, AlgebraSpec, Gen, bracket_gens
from .errors import GeneratorOutsideAlgebra, InternalError, NegativeHighestWeight, NotAModule
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

# the spec grammar: kind tag -> class; a kind's keys are its fields in order
KINDS = {"A": IntAB, "A2": IntA, "B": IntB, "H": HVirABC, "T2": T2Mod,
         "T2corrupt": T2Corrupt, "loop": LoopMod}
_KIND_TAG = {cls: tag for tag, cls in KINDS.items()}


def spec_keys(cls) -> Tuple[str, ...]:
    """The spec keys of a kind's class, with ``LoopMod.lam`` written lambda."""
    return tuple("lambda" if fld.name == "lam" else fld.name for fld in fields(cls))


def spec_text(spec: ModuleSpec) -> str:
    """Canonical text form, e.g. ``A:a=1/2,b=1/3`` or ``loop:lambda=1,a=0,b=0``."""
    values = (getattr(spec, fld.name) for fld in fields(spec))
    return _KIND_TAG[type(spec)] + ":" + ",".join(
        f"{key}={value}" for key, value in zip(spec_keys(type(spec)), values))


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


def sl2_irrep(lam: int) -> Sl2Irrep:
    if lam < 0 or int(lam) != lam:
        raise NegativeHighestWeight(f"highest weight must be a nonnegative integer, got {lam}")
    spec, n = LoopMod(lam, Fraction(0), Fraction(0)), lam + 1
    mats = {fam: [[Fraction(0)] * n for _ in range(n)] for fam in "efh"}
    for fam in "efh":
        for k in range(n):
            target, coeff = _sl2_image(spec, fam, k)
            if coeff:
                mats[fam][target][k] = Fraction(coeff)
    return Sl2Irrep(lam, *(tuple(map(tuple, mats[fam])) for fam in "efh"))


def _sl2_image(spec: LoopMod, family: str, k: int) -> Tuple[int, int]:
    """(target u-index, coefficient) of x.u_k in the fixed normalization;
    x.u_k = 0 when the coefficient is 0."""
    lam = spec.lam
    if family == "h":
        return k, lam - 2 * k
    if family == "f":
        return k + 1, 1 if k < lam else 0
    if family == "e":
        return k - 1, k * (lam - k + 1)
    raise InternalError(f"{family}_m is not an sl2 generator")


def act_basis(spec: ModuleSpec, g: Gen, label) -> Vec:
    """Action of one generator on one basis vector; C acts as 0.  Pure, so
    a sweep over one spec may memoize it by (g, label), as DefectMemo does."""
    if not acting_algebra(spec).contains(g):
        raise GeneratorOutsideAlgebra(
            f"{g} does not act on {spec_text(spec)} "
            f"(acting algebra {acting_algebra(spec).name})")
    if g.family == "C":
        return Vec()
    m = g.degree
    if isinstance(spec, LoopMod):
        k, i = label
        if g.family == "d":
            coeff = spec.a + spec.b * m + i
            return Vec({(k, m + i): coeff}) if coeff else Vec()
        kk, coeff = _sl2_image(spec, g.family, k)
        return Vec({(kk, m + i): coeff}) if coeff else Vec()
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
        return Vec({target: coeff}) if coeff else Vec()
    if g.family == "h":
        return Vec({m + i: spec.c}) if spec.c else Vec()
    # only e is left: no acting algebra of these kinds holds f
    if isinstance(spec, T2Corrupt):
        return Vec({m + i: Fraction(1)})
    return Vec()


def act(spec: ModuleSpec, g: Gen, v: Vec) -> Vec:
    """Linear extension of the generator action to module vectors."""
    out = Vec()
    for label, coeff in v:
        out = out + act_basis(spec, g, label).scaled(coeff)
    return out


def axiom_defect(image, bracket, x: Gen, y: Gen, v) -> Optional[dict]:
    """[x,y] v - x (y v) + y (x v) as one coefficient dict over the labels;
    every value is 0 iff the module axiom holds on this triple.

    The one module-axiom sum: ``image[g, label]`` gives g applied to label
    as ``(label, coeff)`` pairs, or None when that image is not known
    (outside a window), so a per-run mapping whose ``__missing__`` computes
    and keeps a miss (``DefectMemo``) answers a hit with no Python call.
    ``bracket`` is [x, y] and ``v`` the vector, both as ``(key, coeff)``
    pairs.  Returns None when the sum needs an unknown image.
    """
    out: dict = {}
    get = out.get
    for g, cg in bracket:
        for label, c in v:
            img = image[g, label]
            if img is None:
                return None
            s = cg * c
            for target, ct in img:
                out[target] = get(target, 0) + s * ct
    for label, c in v:
        for inner, outer, s in ((y, x, -c), (x, y, c)):
            mids = image[inner, label]
            if mids is None:
                return None
            for mid, cm in mids:
                img = image[outer, mid]
                if img is None:
                    return None
                sc = s * cm
                for target, ct in img:
                    out[target] = get(target, 0) + sc * ct
    return out


class DefectMemo(dict):
    """One spec's per-run memo, the ``image`` of ``axiom_defect``: ``(g, label)``
    maps to D ``act_basis(spec, g, label)`` and a generator pair ``(x, y)`` to
    D [x, y], as ``Vec.int_items`` (a label is never a ``Gen``), computed by
    ``__missing__`` on a miss and kept.  D, the lcm of the denominators of the
    spec's parameters, clears every ``act_basis`` denominator, so the sum runs
    in integers and each of its terms is D^2 times its true value."""

    def __init__(self, spec: ModuleSpec):
        super().__init__()
        self.spec = spec
        self.scale = lcm(spec.a.denominator, getattr(spec, "b", 1).denominator,
                         getattr(spec, "c", 1).denominator)

    def __missing__(self, key) -> tuple:
        a, b = key
        vec = bracket_gens(a, b) if isinstance(b, Gen) else act_basis(self.spec, a, b)
        items = self[key] = vec.scaled(self.scale).int_items()
        return items

    def defect(self, bracket: tuple, x: Gen, y: Gen, v) -> Vec:
        """``axiom_defect`` over this memo, divided by D^2; ``bracket`` is
        ``self[x, y]`` and ``v`` the vector as ``(label, coeff)`` pairs."""
        out = axiom_defect(self, bracket, x, y, v)
        if not any(out.values()):
            return Vec()
        return Vec({label: Fraction(c, self.scale ** 2) for label, c in out.items()})


def module_defect(spec: ModuleSpec, x: Gen, y: Gen, v: Vec,
                  memo: Optional[DefectMemo] = None) -> Vec:
    """act([x,y], v) - act(x, act(y, v)) + act(y, act(x, v)) by
    ``axiom_defect``; 0 iff the module axiom holds on this triple.  ``memo``
    is an optional ``DefectMemo(spec)`` that the caller keeps for one sweep
    (``avw module-check`` makes one per run and calls its ``defect``)."""
    if memo is None:
        memo = DefectMemo(spec)
    return memo.defect(memo[x, y], x, y, v.int_items())


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


def offset_dim(spec: ModuleSpec) -> int:
    """The number of labels at each offset: lam + 1 on a loop module, else 1."""
    return spec.lam + 1 if isinstance(spec, LoopMod) else 1


def offset_labels(spec: ModuleSpec, i: int) -> list:
    """The basis labels at offset i: u_k x t^i for 0 <= k <= lam on a loop
    module, v_i on a rank-one one."""
    if isinstance(spec, LoopMod):
        return [(k, i) for k in range(offset_dim(spec))]
    return [i]


def canonicalize(spec: ModuleSpec) -> ModuleSpec:
    """Reduce the a-parameter mod 1 into [0,1); the shifted module is the
    same one with relabeled basis, so simplicity questions only depend on
    the class of a."""
    if isinstance(spec, (IntA, IntB)):
        return spec
    return replace(spec, a=spec.a - floor(spec.a))


class SimplicityVerdict(NamedTuple):
    simple: bool
    reason: str


def _classify(spec: ModuleSpec) -> Tuple[bool, str, Optional[str], Optional[str]]:
    """(simple, reason, trivial line, its role) by the intermediate-series
    criteria; line and role are None on a simple module.

    Rank-one d-action families are simple iff a is not an integer or
    b is outside {0, 1}; a nonzero h-central parameter c also forces
    simplicity; a loop module over a nontrivial sl2 irrep is always simple.
    The verdict reads a only through its denominator, so it is the same on
    ``canonicalize(spec)``; the line is where a + i = 0 for the a given.
    """
    if isinstance(spec, T2Corrupt):
        raise NotAModule("T2Corrupt is not a module; simplicity is undefined")
    if isinstance(spec, IntA):
        return (False, "the span of v_0 is a quotient; the complement is a proper submodule",
                "v_0", "quotient")
    if isinstance(spec, IntB):
        return False, "the span of v_0 is a proper submodule", "v_0", "submodule"
    if isinstance(spec, LoopMod) and spec.lam >= 1:
        return True, f"loop module over a nontrivial {spec.lam + 1}-dimensional sl2 irrep", None, None
    a, b = spec.a, spec.b
    if a.denominator != 1:
        return True, "a is not an integer", None, None
    if b not in (0, 1):
        return True, "b is outside {0, 1}", None, None
    central = isinstance(spec, (HVirABC, T2Mod))
    if central and spec.c != 0:
        return True, "h-central parameter c is nonzero", None, None
    loop = isinstance(spec, LoopMod)
    conds = ["trivial sl2 part (lambda = 0)"] * loop + ["a integral", "b in {0,1}"] + ["c = 0"] * central
    role = "submodule" if b == 0 else "quotient"
    line = label_str(spec, (0, -int(a)) if loop else -int(a))
    return False, ", ".join(conds) + f"; the trivial line is a {role}", line, role


def is_simple(spec: ModuleSpec) -> SimplicityVerdict:
    """Decide simplicity from the intermediate-series criteria (``_classify``)."""
    return SimplicityVerdict(*_classify(spec)[:2])


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
    simple, reason, line, role = _classify(spec)
    if simple:
        return StructureReport(spec, True, None, None, None, "simple: " + reason)
    subq, other = "A'(0,0)", "quotient" if role == "submodule" else "submodule"
    return StructureReport(spec, False, line, role, subq,
                           f"the span of {line} is a {role}; the {other} is isomorphic to {subq}")
