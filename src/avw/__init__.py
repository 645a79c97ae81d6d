"""Exact-arithmetic workbench for the affine-Virasoro algebra of type A1.

Layers:

- :mod:`avw.algebra`  -- structure constants, grading, bracket, subalgebras
- :mod:`avw.catalog`  -- the explicitly presented weight modules
- :mod:`avw.verma`    -- truncated highest-weight modules via PBW straightening
- :mod:`avw.windows`  -- windowed matrix analysis (injectivity, witnesses, matching)
- :mod:`avw.cli`      -- the ``avw`` command-line front end
"""

from .algebra import (ALGEBRAS, C, FULL, HVIR, SL2, SL2LOOP, T2, VIR, Gen,
                      bracket, bracket_gens, d, degree, e, element_str, f, h,
                      in_subalgebra, jacobi_defect)
from .catalog import (DefectMemo, HVirABC, IntA, IntAB, IntB, LoopMod, Sl2Irrep, T2Corrupt,
                      T2Mod, act, act_basis, canonicalize, is_simple,
                      module_defect, sl2_irrep, spec_text, structure_report)
from .cli import RunConfig, execute, main, parse_spec
from .errors import (AvwError, GeneratorOutsideAlgebra, MissingParameter,
                     NegativeHighestWeight, OutOfWindow, ResourceBound,
                     SpecParseError, UnknownKind, WindowTooNarrow, ZeroShift)
from .linalg import Vec, frac, nullspace, rank
from .verma import (HighestWeight, SingularVector, TruncatedModule, build_verma,
                    pbw_straighten)
from .windows import (WindowedModule, catalog_match, stacked_shift_injectivity,
                      find_extremal_vectors, from_catalog, from_verma,
                      scramble_window, submodule_witness, support)

__version__ = "0.1.0"
