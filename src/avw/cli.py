"""Command-line front end: every library operation behind a subcommand.

Commands: jacobi, module-check, catalog, simple, structure, loop-dims,
verma, singular, injectivity, witness, match, support.

Exit codes: 0 = ran and all checks passed; 1 = ran but a check found a
defect/violation; 2 = usage or configuration error; 3 = internal error, a
defect in the workbench rather than in the input.  All numbers in reports
are exact fraction strings; identical configurations (including seeds)
produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog as cat
from . import verma as vm
from . import windows as win
from .algebra import ALGEBRAS, Gen, algebra_by_name, bracket_gens, element_str, in_subalgebra, jacobi_defect
from .catalog import KINDS, LoopMod, ModuleSpec, acting_algebra, label_str, spec_keys, spec_text
from .errors import (AvwError, InternalError, InvalidArgument, MissingParameter, SpecParseError,
                     UnknownKind, UnwritablePath)
from .linalg import Vec


def _parse_rational(text: str, pos: int) -> Fraction:
    if not re.fullmatch(r"-?\d+(/\d+)?", text):
        raise SpecParseError(f"expected a rational like 7/6 or -2, got {text!r}", pos)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SpecParseError("zero denominator", pos) from None
    except ValueError:  # the only other failure: int's digit limit for strings
        raise SpecParseError(f"numerals are limited to {sys.get_int_max_str_digits()} "
                             f"digits", pos) from None


def parse_spec(text: str) -> ModuleSpec:
    """Parse the module-spec grammar ``kind ':' key '=' rational (',' ...)*``."""
    colon = text.find(":")
    if colon < 0:
        raise SpecParseError("missing ':' after the kind", len(text))
    kind = text[:colon]
    if kind not in KINDS:
        raise UnknownKind(f"unknown kind {kind!r}; expected one of {tuple(KINDS)}", 0)
    cls = KINDS[kind]
    keys = spec_keys(cls)
    params: Dict[str, Fraction] = {}
    pos = colon + 1
    body = text[colon + 1:]
    if not body:
        raise MissingParameter(f"kind {kind!r} needs parameters {keys}", pos)
    for part in body.split(","):
        eq = part.find("=")
        if eq < 0:
            raise SpecParseError(f"expected key=value, got {part!r}", pos)
        key, value = part[:eq], part[eq + 1:]
        if key not in keys:
            raise SpecParseError(f"unknown parameter {key!r} for kind {kind!r}", pos)
        if key in params:
            raise SpecParseError(f"duplicate parameter {key!r}", pos)
        params[key] = _parse_rational(value, pos + eq + 1)
        pos += len(part) + 1
    for key in keys:
        if key not in params:
            raise MissingParameter(f"missing parameter {key!r} for kind {kind!r}",
                                   len(text))
    if cls is LoopMod:
        lam = params["lambda"]
        if lam.denominator != 1 or lam < 0:
            raise SpecParseError("lambda must be a nonnegative integer", colon + 1)
        params["lambda"] = int(lam)
    return cls(*(params[key] for key in keys))


@dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on; equal configs give identical bytes.
    Its defaults are the CLI's: ``build_parser`` leaves an omitted option
    None, and ``config_from_args`` drops it."""

    command: str
    module: Optional[str] = None
    algebra: str = "L"
    deg_range: Tuple[int, int] = (-3, 3)
    label_range: Tuple[int, int] = (-3, 3)
    window: Optional[Tuple[int, int]] = None  # None: the command's default (_window)
    k: int = 0
    i: int = 1
    lamd: Optional[Fraction] = None
    mu: Optional[Fraction] = None
    c: Optional[Fraction] = None
    depth: Optional[int] = None  # None: 4 (_build_module)
    charge: Optional[int] = None
    singular_depth: Optional[int] = None
    scramble_seed: Optional[int] = None
    out: Optional[str] = None
    emit: Optional[str] = None
    matrices: bool = False


def _range_arg(text: str) -> Tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    return int(m.group(1)), int(m.group(2))


# each command's --window when none is given; -3..3 for the others
_DEFAULT_WINDOWS = {"loop-dims": "-4..4", "injectivity": "-4..4"}


def _window(config: RunConfig) -> Tuple[int, int]:
    """The --window of the run, or its command's default."""
    return config.window or _range_arg(_DEFAULT_WINDOWS.get(config.command, "-3..3"))


def _nonempty(bounds: Tuple[int, int], flag: str) -> Tuple[int, int]:
    """The bounds of a sweep range, which must hold at least one value."""
    lo, hi = bounds
    if hi < lo:
        raise InvalidArgument(f"empty {flag} {lo}..{hi}")
    return bounds


def _rational_arg(text: str) -> Fraction:
    try:
        return _parse_rational(text, 0)
    except SpecParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _vec_json(spec: ModuleSpec, v: Vec) -> Dict[str, str]:
    return {label_str(spec, lab): str(coeff) for lab, coeff in
            sorted(v.terms.items(), key=lambda kv: label_str(spec, kv[0]))}


def _open_for_writing(path: str, **kwargs):
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise UnwritablePath(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_report(config: RunConfig, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if config.out:
        with _open_for_writing(config.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_jacobi(config: RunConfig) -> Tuple[dict, int]:
    alg = algebra_by_name(config.algebra)
    lo, hi = _nonempty(config.deg_range, "--range")
    win.bound_sweep(alg.generator_count(lo, hi) ** 3, "triples")
    gens = list(alg.generators(lo, hi))
    defects: List[dict] = []
    anti = grading = closure = 0
    for x in gens:
        for y in gens:
            br = bracket_gens(x, y)
            if bracket_gens(y, x) + br:
                anti += 1
            for g, _ in br:
                if g.degree != x.degree + y.degree:
                    grading += 1
            if not in_subalgebra(br, alg):
                closure += 1
    # jacobi_defect runs once per cyclic orbit of index triples, on its least
    # rotation: (i, i, k) with k >= i, (i, j, k) with j, k > i.  The ordered
    # walk over all triples, for the count and samples, runs only if some
    # orbit sum is nonzero.  The memo keeps generator brackets for this run.
    n, jac = len(gens), 0
    memo: dict = {}
    nonzero: dict = {}
    for i, x in enumerate(gens):
        for j in range(i, n):
            y = gens[j]
            for k in range(i + (j > i), n):
                dft = jacobi_defect(x, y, gens[k], memo)
                if dft:
                    nonzero[i, j, k] = dft
    triples = product(enumerate(gens), repeat=3) if nonzero else ()
    for (i, x), (j, y), (k, z) in triples:
        dft = nonzero.get(min((i, j, k), (j, k, i), (k, i, j)))
        if dft:
            jac += 1
            if len(defects) < 10:
                defects.append({"triple": [str(x), str(y), str(z)],
                                "defect": element_str(dft)})
    payload = {
        "algebra": alg.name,
        "range": list(config.deg_range),
        "generators": len(gens),
        "pairs": len(gens) ** 2,
        "triples": len(gens) ** 3,
        "antisymmetry_defects": anti,
        "grading_defects": grading,
        "closure_defects": closure,
        "jacobi_defects": jac,
        "defects": defects,
    }
    return payload, 0 if not (anti or grading or closure or jac) else 1


def _cmd_module_check(config: RunConfig) -> Tuple[dict, int]:
    spec = parse_spec(config.module)
    alg = acting_algebra(spec)
    lo, hi = _nonempty(config.deg_range, "--deg-range")
    lab_lo, lab_hi = _nonempty(config.label_range, "--label-range")
    n_labels = (lab_hi - lab_lo + 1) * cat.offset_dim(spec)
    win.bound_sweep(alg.generator_count(lo, hi) ** 2 * n_labels, "checks")
    gens = list(alg.generators(lo, hi))
    labels = [lab for i in range(lab_lo, lab_hi + 1) for lab in cat.offset_labels(spec, i)]
    n_defects = 0
    samples: List[dict] = []
    memo = cat.DefectMemo(spec)  # this run's brackets and images; dropped on return
    for x in gens:
        for y in gens:
            br = memo[x, y]
            for lab in labels:
                dft = memo.defect(br, x, y, ((lab, 1),))
                if dft:
                    n_defects += 1
                    if len(samples) < 10:
                        samples.append({
                            "x": str(x), "y": str(y),
                            "vector": label_str(spec, lab),
                            "defect": _vec_json(spec, dft),
                        })
    payload = {
        "module": spec_text(spec),
        "deg_range": list(config.deg_range),
        "label_range": list(config.label_range),
        "generator_pairs": len(gens) ** 2,
        "basis_vectors": len(labels),
        "checks": len(gens) ** 2 * len(labels),
        "defects": n_defects,
        "defect_samples": samples,
    }
    return payload, 0 if n_defects == 0 else 1


def _window_payload(wm: win.WindowedModule, matrices: bool) -> dict:
    p, q = wm.window
    payload: dict = {
        "window": [p, q],
        "families": sorted(wm.families),
        "dims": {str(k): wm.dim(k) for k in wm.offsets()},
        "labels": {str(k): [{"name": lab.name, "d0": str(lab.d0), "h0": str(lab.h0)}
                            for lab in wm.labels(k)] for k in wm.offsets()},
    }
    if matrices:
        blocks = {}
        for (fam, m, k), cols in sorted(wm.blocks.items()):
            rows = range(wm.dim(k + m))  # printed densely: "0" off the pairs
            entries = [None if col is None else dict(col) for col in cols]
            blocks[f"{fam}[{m}] from {k}"] = [
                None if e is None else [str(e.get(r, 0)) for r in rows] for e in entries]
        payload["blocks"] = blocks
    return payload


def _cmd_catalog(config: RunConfig) -> Tuple[dict, int]:
    spec = parse_spec(config.module)
    wm = win.from_catalog(spec, _window(config))
    # dense printouts: 3 dim^2 sl2 entries on a loop module, dim^2 per block with --matrices
    n_mats = 3 * isinstance(spec, LoopMod) + config.matrices * len(wm.blocks)
    win.bound_sweep(n_mats * cat.offset_dim(spec) ** 2, "printed entries")
    defects = win.bracket_consistency_defects(wm, degree_limit=2)
    payload = {
        "module": spec_text(spec),
        **_window_payload(wm, config.matrices),
        "bracket_consistency_defects": defects,
    }
    if isinstance(spec, LoopMod):
        rep = cat.sl2_irrep(spec.lam)
        payload["sl2_irrep"] = {
            "lambda": rep.lam,
            "e": [[str(x) for x in row] for row in rep.e_mat],
            "f": [[str(x) for x in row] for row in rep.f_mat],
            "h": [[str(x) for x in row] for row in rep.h_mat],
        }
    return payload, 0 if not defects else 1


def _cmd_simple(config: RunConfig) -> Tuple[dict, int]:
    spec = parse_spec(config.module)
    verdict = cat.is_simple(spec)
    return {
        "module": spec_text(spec),
        "canonical": spec_text(cat.canonicalize(spec)),
        "simple": verdict.simple,
        "reason": verdict.reason,
    }, 0


def _cmd_structure(config: RunConfig) -> Tuple[dict, int]:
    spec = parse_spec(config.module)
    rep = cat.structure_report(spec)
    return {
        "module": spec_text(spec),
        "simple": rep.simple,
        "trivial_line": rep.trivial_line,
        "line_role": rep.line_role,
        "simple_subquotient": rep.simple_subquotient,
        "detail": rep.detail,
    }, 0


def _cmd_loop_dims(config: RunConfig) -> Tuple[dict, int]:
    spec = parse_spec(config.module)
    if not isinstance(spec, LoopMod):
        raise InvalidArgument("loop-dims needs a loop:... module spec")
    window = _window(config)
    wm = win.from_catalog(spec, window)
    expected = spec.lam + 1
    rows = [{"offset": k, "dim": wm.dim(k)} for k in wm.offsets()]
    violations = [r for r in rows if r["dim"] != expected]
    return {
        "module": spec_text(spec),
        "window": list(window),
        "expected_dim": expected,
        "rows": rows,
        "violations": violations,
        "support": _support_json(wm),
    }, 0 if not violations else 1


def _support_json(wm: win.WindowedModule) -> List[List[str]]:
    return [[str(d0), str(h0)] for d0, h0 in win.support(wm)]


def _build_module(config: RunConfig) -> vm.TruncatedModule:
    if config.lamd is None or config.mu is None or config.c is None:
        raise InvalidArgument("--lamd, --mu and --c are all required")
    hw = vm.HighestWeight(config.lamd, config.mu, config.c)
    return vm.build_verma(hw, 4 if config.depth is None else config.depth, config.charge)


def _cartan_check(module: vm.TruncatedModule) -> dict:
    """Verify d0/h0/C act diagonally with the graded eigenvalues on the
    shallow cells; exercised by the verma command as a live self-check."""
    checked = 0
    failures = []
    for n in range(min(module.depth_bound, 2) + 1):
        for s in range(-n, module.charge_bound + 1):
            d0, h0 = module.weight_of_cell(n, s)
            for mono in module.cells[(n, s)]:
                v = Vec.basis(mono)
                if module.act(Gen("d", 0), v) != v.scaled(d0) \
                        or module.act(Gen("h", 0), v) != v.scaled(h0):
                    failures.append({"cell": [n, s], "monomial": vm.mono_str(mono)})
                checked += 1
    return {"checked": checked, "failures": failures}


def _singular_depth(config: RunConfig, module: vm.TruncatedModule) -> int:
    """The singular search depth: the flag's, by default N - 2 (at least 0)."""
    if config.singular_depth is None:
        return max(module.depth_bound - 2, 0)
    return config.singular_depth


def _highest_weight_json(module: vm.TruncatedModule) -> Dict[str, str]:
    return {"lamd": str(module.hw.lam_d), "mu": str(module.hw.mu), "c": str(module.hw.c)}


def _singular_json(vectors: List[vm.SingularVector]) -> List[dict]:
    return [{"depth": sv.depth, "charge": sv.charge,
             "coefficients": [str(c) for c in sv.coefficients],
             "basis": [vm.mono_str(m) for m in sv.basis]} for sv in vectors]


def _cmd_verma(config: RunConfig) -> Tuple[dict, int]:
    module = _build_module(config)
    if config.emit:
        with _open_for_writing(config.emit, newline="") as fh:
            fh.write("depth,charge,dim\n")
            for n, s, dim in vm.dims_rows(module):
                fh.write(f"{n},{s},{dim}\n")
    cartan = _cartan_check(module)
    singular = ([] if config.singular_depth is None and module.depth_bound < 2
                else module.find_singular_vectors(_singular_depth(config, module)))
    payload = {
        "highest_weight": _highest_weight_json(module),
        "depth_bound": module.depth_bound,
        "charge_bound": module.charge_bound,
        "basis_size": module.basis_size,
        "dims_csv": config.emit,
        "cartan_diagonal": cartan,
        "singular_vectors": _singular_json(singular),
    }
    if not config.emit:
        payload["dims"] = [{"depth": n, "charge": s, "dim": dim}
                           for n, s, dim in vm.dims_rows(module)]
    return payload, 0 if not cartan["failures"] else 1


def _cmd_singular(config: RunConfig) -> Tuple[dict, int]:
    module = _build_module(config)
    sing_depth = _singular_depth(config, module)
    return {
        "highest_weight": _highest_weight_json(module),
        "max_depth": sing_depth,
        "singular_vectors": _singular_json(module.find_singular_vectors(sing_depth)),
    }, 0


def _analysis_window(config: RunConfig,
                     degrees: Sequence[int] = range(-3, 4)) -> win.WindowedModule:
    """Shared input path: --module picks a catalog window, --lamd/--mu/--c a
    truncated highest-weight export with blocks of the given degrees.  Each
    input's own options (--window; --depth, --charge) go with it only; a mix
    of the two inputs raises InvalidArgument."""
    hw_given = any(x is not None for x in (config.lamd, config.mu, config.c))
    if config.module:
        if hw_given:
            raise InvalidArgument("--module and --lamd/--mu/--c name two modules; give one")
        if config.depth is not None or config.charge is not None:
            raise InvalidArgument("--depth and --charge apply to --lamd/--mu/--c only; "
                                  "a catalog window follows from --window")
        return win.from_catalog(parse_spec(config.module), _window(config))
    if hw_given and config.window is not None:
        raise InvalidArgument("--window applies to --module only; a highest-weight "
                              "window follows from --depth")
    return win.from_verma(_build_module(config), pad_top=max(abs(config.i) + 1, 3),
                          degrees=degrees)


def _cmd_injectivity(config: RunConfig) -> Tuple[dict, int]:
    wm = _analysis_window(config, (config.i, config.i + 1))
    report = win.stacked_shift_injectivity(wm, config.k, config.i)
    return {"module": wm.description, "k": report.k, "i": report.i,
            "dimV_k": report.dim_source, "kernel_dim": report.kernel_dim,
            "kernel_basis": [[str(x) for x in v] for v in report.kernel_basis]}, 0


def _extremal_json(v: win.ExtremalVector) -> dict:
    return {"offset": v.offset,
            "vector": {lab.name: str(c) for lab, c in zip(v.labels, v.coefficients) if c}}


def _cmd_witness(config: RunConfig) -> Tuple[dict, int]:
    wm = _analysis_window(config)
    report = win.submodule_witness(wm)
    each = "annihilated by every in-window weight-moving operator"
    payload = {"module": wm.description,
               "witnesses": [{**_extremal_json(w), "verdict": each} for w in report.witnesses],
               "verdict": report.verdict}
    extremal: Dict[str, object] = {}
    for direction in ("highest", "lowest"):
        try:
            vecs = win.find_extremal_vectors(wm, direction)
        except InternalError:
            raise  # a defect, not a limit of the window
        except AvwError as exc:
            extremal[direction] = {"not_searchable": str(exc)}
            continue
        extremal[direction] = [_extremal_json(v) for v in vecs]
    payload["extremal_vectors"] = extremal
    return payload, 0


def _cmd_match(config: RunConfig) -> Tuple[dict, int]:
    wm = _analysis_window(config)
    if config.scramble_seed is not None:
        wm = win.scramble_window(wm, config.scramble_seed)
    result = win.catalog_match(wm)
    return {"module": wm.description, "scramble_seed": config.scramble_seed,
            "spec": "NoMatch" if result.spec is None else spec_text(result.spec),
            "evidence": result.evidence}, 0


def _cmd_support(config: RunConfig) -> Tuple[dict, int]:
    wm = _analysis_window(config)
    return {"module": wm.description, "window": list(wm.window), "support": _support_json(wm)}, 0


_COMMANDS = {
    "jacobi": _cmd_jacobi,
    "module-check": _cmd_module_check,
    "catalog": _cmd_catalog,
    "simple": _cmd_simple,
    "structure": _cmd_structure,
    "loop-dims": _cmd_loop_dims,
    "verma": _cmd_verma,
    "singular": _cmd_singular,
    "injectivity": _cmd_injectivity,
    "witness": _cmd_witness,
    "match": _cmd_match,
    "support": _cmd_support,
}


class _Parser(argparse.ArgumentParser):
    """A parser, and subparsers, that refuse a command line with
    InvalidArgument, so ``main`` reports it as ``execute`` reports any
    AvwError, rather than exiting with the usage text."""

    def error(self, message):
        raise InvalidArgument(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="avw",
        description="Exact workbench for the affine-Virasoro algebra of type A1")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_module(p, required=True):
        p.add_argument("--module", required=required,
                       help="module spec, e.g. A:a=1/2,b=1/3 or loop:lambda=1,a=0,b=0")

    def add_window(p, command):
        default = _DEFAULT_WINDOWS.get(command, "-3..3")
        p.add_argument("--window", type=_range_arg,
                       help=f"inclusive offset window lo..hi (default {default})")

    def add_hw(p):
        p.add_argument("--lamd", type=_rational_arg, help="d0-eigenvalue of the highest weight")
        p.add_argument("--mu", type=_rational_arg, help="h0-eigenvalue of the highest weight")
        p.add_argument("--c", type=_rational_arg, help="central eigenvalue")
        p.add_argument("--depth", type=int, help="depth bound N (default 4)")
        p.add_argument("--charge", type=int, help="charge bound S (default N+4)")

    def add_analysis(p, command):
        """The inputs of a window analysis: a catalog module or a highest weight."""
        add_module(p, required=False)
        add_hw(p)
        add_window(p, command)

    p = sub.add_parser("jacobi", help="sweep Jacobi/antisymmetry/grading/closure")
    p.add_argument("--algebra", choices=sorted(ALGEBRAS))
    p.add_argument("--range", dest="deg_range", type=_range_arg, help="degree range lo..hi")

    p = sub.add_parser("module-check", help="exhaustive module-axiom defect sweep")
    add_module(p)
    p.add_argument("--deg-range", dest="deg_range", type=_range_arg)
    p.add_argument("--label-range", dest="label_range", type=_range_arg)

    p = sub.add_parser("catalog", help="materialize a module window as matrices")
    add_module(p)
    add_window(p, "catalog")
    p.add_argument("--matrices", action="store_true", help="include all blocks")

    p = sub.add_parser("simple", help="simplicity verdict with the matched criterion")
    add_module(p)

    p = sub.add_parser("structure", help="distinguished submodule/quotient report")
    add_module(p)

    p = sub.add_parser("loop-dims", help="weight-space dimensions of a loop module")
    add_module(p)
    add_window(p, "loop-dims")

    p = sub.add_parser("verma", help="build a truncated highest-weight module")
    add_hw(p)
    p.add_argument("--emit", help="write the depth,charge,dim CSV to this path")
    p.add_argument("--singular-depth", dest="singular_depth", type=int)

    p = sub.add_parser("singular", help="singular vectors of a truncation")
    add_hw(p)
    p.add_argument("--max-depth", dest="singular_depth", type=int)

    p = sub.add_parser("injectivity", help="kernel of the stacked degree-shift map")
    add_analysis(p, "injectivity")
    p.add_argument("--k", type=int, help="source offset")
    p.add_argument("--i", type=int, help="nonzero shift")

    p = sub.add_parser("witness", help="search for finitely-supported submodules")
    add_analysis(p, "witness")

    p = sub.add_parser("match", help="identify a window as a loop module")
    add_analysis(p, "match")
    p.add_argument("--scramble-seed", dest="scramble_seed", type=int,
                   help="disguise the basis with this seed before matching")

    p = sub.add_parser("support", help="weight labels of the nonzero slices")
    add_analysis(p, "support")

    for p in sub.choices.values():  # every command's last option
        p.add_argument("--out", help="write the JSON report to this path")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    chosen = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return RunConfig(**chosen)


def execute(config: RunConfig) -> int:
    """Run one command; returns the exit code and writes its reports."""
    try:
        handler = _COMMANDS.get(config.command)
        if handler is None:
            raise InvalidArgument(f"unknown command {config.command!r}")
        payload, code = handler(config)
        _write_report(config, {"command": config.command, **payload})
        return code
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except AvwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# flags whose values may start with '-' (ranges, rationals, negative ints);
# argparse would misread a separate "-5..5" token as an option
_DASH_VALUE_FLAGS = {"--range", "--deg-range", "--label-range", "--window",
                     "--lamd", "--mu", "--c", "--k", "--i"}


def _merge_dash_values(argv: List[str]) -> List[str]:
    out: List[str] = []
    for tok in argv:
        if tok.startswith("-") and out and out[-1] in _DASH_VALUE_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_merge_dash_values(list(argv)))
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return execute(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
