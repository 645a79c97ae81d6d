"""Per-layer tracing of avw from outside the program.

``Tracer.installed()`` rebinds public avw names to timing or counting
wrappers and restores them on exit.  Names are wrapped where they are looked
up: ``from .linalg import nullspace`` binds ``nullspace`` in each importing
module, so ``avw.verma.nullspace`` and ``avw.windows.nullspace`` are both
wrapped, while the CLI reaches ``avw.windows.from_verma`` through the module
attribute.

A span wrapper records calls, total time and self time (total minus the
time of the spans it encloses).  Functions called about 10^5 times per pass
or more (``bracket_gens``, ``act_basis``, ``apply_gen``) only count calls, so
their time stays in the enclosing span's self time.  Spans of at least
``KEEP_SPAN_NS`` are also kept in memory with their parent and job, and
written out once the run ends; shorter ones only add to the totals.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import avw.algebra
import avw.catalog
import avw.cli
import avw.linalg
import avw.verma
import avw.windows

KEEP_SPAN_NS = 1_000_000

ANALYSIS = ("windows.stacked_shift_injectivity", "windows.submodule_witness",
            "windows.find_extremal_vectors", "windows.catalog_match",
            "windows.bracket_consistency_defects")
LAYERS = ("cli", "algebra", "catalog", "verma", "windows", "linalg")

# (name, unit, better); the per_layer list of BENCHMARK.json
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("verma.pbw_straighten.calls", "count", "lower"),
    ("verma.pbw_straighten.self_s", "s", "lower"),
    ("verma.apply_gen.calls", "count", "lower"),
    ("verma.apply_gen.hit_ratio", "ratio", "higher"),
    ("verma.apply_gen.distinct_keys", "count", "lower"),
    ("verma.cell_matrix.self_s", "s", "lower"),
    ("verma.find_singular_vectors.s", "s", "lower"),
    ("verma.build.s", "s", "lower"),
    ("verma.basis_size", "count", "lower"),
    ("verma.self_s", "s", "lower"),
    ("windows.from_verma.s", "s", "lower"),
    ("windows.from_verma.columns", "count", "lower"),
    ("windows.column_read_ratio", "ratio", "higher"),
    ("windows.analysis.self_s", "s", "lower"),
    ("windows.catalog_match.s", "s", "lower"),
    ("windows.from_catalog.s", "s", "lower"),
    ("windows.bracket_consistency_defects.s", "s", "lower"),
    ("windows.self_s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.nullspace.trivial_ratio", "ratio", "lower"),
    ("linalg.nullspace.entries", "count", "lower"),
    ("linalg.nullspace.density", "ratio", "higher"),
    ("linalg.max_pivot_bits", "bits", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("algebra.bracket_gens.calls", "count", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("catalog.act_basis.calls", "count", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("cli.execute.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.stats: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []  # (id, parent id, name, start ns, end ns, job)
        self.job: Optional[int] = None
        self._stack: List[List[int]] = []  # [span id, child ns]
        self._next_id = 0
        # per-job state, cleared by end_job
        self._keys: set = set()
        self._verma_windows: Dict[int, avw.windows.WindowedModule] = {}
        self._read: set = set()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        calls, total, own = self.calls, self.total_ns, self.self_ns
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                total[name] += dur
                own[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if dur >= KEEP_SPAN_NS:
                    spans.append((frame[0], parent, name, t0, t1, self.job))
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that read shapes and sizes ----------------------------------

    def _nullspace_in(self, rows, ncols=None):
        ncols = len(rows[0]) if rows else ncols
        self.stats["nullspace.entries"] += len(rows) * ncols
        self.stats["nullspace.nonzeros"] += sum(1 for row in rows for x in row if x)

    def _nullspace_out(self, kernel):
        if not kernel:
            self.stats["nullspace.trivial"] += 1

    def _echelon_out(self, result):
        rows, _ = result
        bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
        self.stats["max_pivot_bits"] = max(self.stats["max_pivot_bits"], bits)

    def _built(self, module):
        self.stats["basis_size"] += module.basis_size

    def _exported(self, wm):
        self._verma_windows[id(wm)] = wm
        self.stats["from_verma.columns"] += sum(len(c) for c in wm.blocks.values())

    def _patches(self):
        cli, alg, cat = avw.cli, avw.algebra, avw.catalog
        vm, win, lin = avw.verma, avw.windows, avw.linalg
        span, count = self._span, self._count
        patches = [
            (cli, "execute", lambda f: span("cli.execute", f)),
            (cli, "bracket_gens", lambda f: span("algebra.bracket_gens", f)),
            (cli, "jacobi_defect", lambda f: span("algebra.jacobi_defect", f)),
            (cli, "in_subalgebra", lambda f: span("algebra.in_subalgebra", f)),
            (alg, "bracket", lambda f: count("algebra.bracket", f)),
            (cat, "module_defect", lambda f: span("catalog.module_defect", f)),
            (vm, "build_verma", lambda f: span("verma.build", f, after=self._built)),
            (vm, "pbw_straighten", lambda f: span("verma.pbw_straighten", f)),
            (vm.TruncatedModule, "cell_matrix", lambda f: span("verma.cell_matrix", f)),
            (vm.TruncatedModule, "find_singular_vectors",
             lambda f: span("verma.find_singular_vectors", f)),
            (vm.TruncatedModule, "apply_gen", self._apply_gen),
            (lin, "row_echelon_ff",
             lambda f: span("linalg.row_echelon_ff", f, after=self._echelon_out)),
            (win, "from_verma", lambda f: span("windows.from_verma", f, after=self._exported)),
            (win, "from_catalog", lambda f: span("windows.from_catalog", f)),
            (win, "scramble_window", lambda f: span("windows.scramble_window", f)),
            (win.WindowedModule, "block", self._block),
        ]
        for mod in (alg, vm, win, cat):
            patches.append((mod, "bracket_gens", lambda f: count("algebra.bracket_gens", f)))
        for mod in (cat, win):
            patches.append((mod, "act_basis", lambda f: count("catalog.act_basis", f)))
        for mod in (vm, win):
            patches.append((mod, "nullspace", lambda f: span(
                "linalg.nullspace", f, before=self._nullspace_in, after=self._nullspace_out)))
        for name in ANALYSIS:
            attr = name.split(".", 1)[1]
            patches.append((win, attr, lambda f, name=name: span(name, f)))
        return patches

    def _apply_gen(self, fn):
        calls, keys = self.calls, self._keys

        def apply_gen(module, g, mono):
            calls["verma.apply_gen"] += 1
            keys.add((id(module), g, mono))
            return fn(module, g, mono)
        return apply_gen

    def _block(self, fn):
        exported, read = self._verma_windows, self._read

        def block(wm, family, m, k):
            if id(wm) in exported:
                read.add((id(wm), (family, m, k)))
            return fn(wm, family, m, k)
        return block

    @contextlib.contextmanager
    def installed(self):
        """Wrap the avw names for the duration of the block."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- jobs and results --------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job

    def end_job(self) -> None:
        self.stats["apply_gen.distinct_keys"] += len(self._keys)
        for wid, key in self._read:
            self.stats["columns_read"] += len(self._verma_windows[wid].blocks.get(key, ()))
        self._keys.clear()
        self._read.clear()
        self._verma_windows.clear()
        self.job = None

    def totals(self) -> Dict[str, dict]:
        return {name: {"calls": self.calls[name],
                       "total_s": self.total_ns.get(name, 0) / 1e9,
                       "self_s": self.self_ns.get(name, 0) / 1e9}
                for name in sorted(self.calls)}

    def metrics(self, passes: int, overhead_s: float) -> Dict[str, float]:
        """Per-layer values per traced pass; ratios are over all passes."""
        calls, stats = self.calls, self.stats

        def secs(table, *names):
            return sum(table.get(n, 0) for n in names) / 1e9 / passes

        def layer_self(layer):
            return secs(self.self_ns, *[n for n in self.self_ns if n.startswith(layer + ".")])

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "verma.pbw_straighten.calls": calls["verma.pbw_straighten"] / passes,
            "verma.pbw_straighten.self_s": secs(self.self_ns, "verma.pbw_straighten"),
            "verma.apply_gen.calls": calls["verma.apply_gen"] / passes,
            "verma.apply_gen.hit_ratio": ratio(
                calls["verma.apply_gen"] - calls["verma.pbw_straighten"], calls["verma.apply_gen"]),
            "verma.apply_gen.distinct_keys": stats["apply_gen.distinct_keys"] / passes,
            "verma.cell_matrix.self_s": secs(self.self_ns, "verma.cell_matrix"),
            "verma.find_singular_vectors.s": secs(self.total_ns, "verma.find_singular_vectors"),
            "verma.build.s": secs(self.total_ns, "verma.build"),
            "verma.basis_size": stats["basis_size"] / passes,
            "windows.from_verma.s": secs(self.total_ns, "windows.from_verma"),
            "windows.from_verma.columns": stats["from_verma.columns"] / passes,
            "windows.column_read_ratio": ratio(stats["columns_read"],
                                               stats["from_verma.columns"]),
            "windows.analysis.self_s": secs(self.self_ns, *ANALYSIS),
            "windows.catalog_match.s": secs(self.total_ns, "windows.catalog_match"),
            "windows.from_catalog.s": secs(self.total_ns, "windows.from_catalog"),
            "windows.bracket_consistency_defects.s":
                secs(self.total_ns, "windows.bracket_consistency_defects"),
            "linalg.nullspace.calls": calls["linalg.nullspace"] / passes,
            "linalg.nullspace.s": secs(self.total_ns, "linalg.nullspace"),
            "linalg.nullspace.trivial_ratio": ratio(stats["nullspace.trivial"],
                                                    calls["linalg.nullspace"]),
            "linalg.nullspace.entries": stats["nullspace.entries"] / passes,
            "linalg.nullspace.density": ratio(stats["nullspace.nonzeros"],
                                              stats["nullspace.entries"]),
            "linalg.max_pivot_bits": stats["max_pivot_bits"],
            "algebra.bracket_gens.calls": calls["algebra.bracket_gens"] / passes,
            "catalog.act_basis.calls": calls["catalog.act_basis"] / passes,
            "cli.execute.s": secs(self.total_ns, "cli.execute"),
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self(layer)
        return values
