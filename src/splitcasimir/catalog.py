"""Algebra catalog: name parsing and cached access to every construction.

Accepted names: sl(N) N>=2, so(N) N>=3, sp(N) even N>=2, g2, f4, e6, e7, e8
(also series-rank forms like A3, B2, E8).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .algebras import LieAlgebra, Representation
from .casimir import (
    SplitCasimir,
    TensorAdjoint,
    adjoint_split_casimir,
    invariant_set,
    sl_adjoint_tensor,
    sosp_adjoint_tensor,
    split_casimir,
)
from .chevalley import build_chevalley_adjoint
from .classical import build_classical
from .kernel import SparseOp
from .rootdata import EXCEPTIONAL, algebra_name, series_rank


class UnknownAlgebraError(Exception):
    pass


@dataclass(frozen=True)
class AlgebraName:
    family: str  # sl | so | sp | g2 | f4 | e6 | e7 | e8
    n: int = 0   # matrix size for classical families

    def __str__(self) -> str:
        return self.family if not self.n else f"{self.family}({self.n})"

    @property
    def is_exceptional(self) -> bool:
        return self.family in EXCEPTIONAL

    @property
    def series_rank(self) -> Tuple[str, int]:
        return series_rank(self.family, self.n)


_NAME_RE = re.compile(r"^(sl|so|sp)\s*\(?\s*(\d+)\s*\)?$")
_SERIES_RE = re.compile(r"^([A-Ga-g])\s*_?\s*(\d+)$")


def parse_name(text: str) -> AlgebraName:
    s = text.strip().lower()
    if s in EXCEPTIONAL:
        return AlgebraName(s)
    m = _NAME_RE.match(s)
    if m:
        fam, n = m.group(1), int(m.group(2))
        if fam == "sl" and n < 2:
            raise UnknownAlgebraError("sl needs N >= 2")
        if fam == "so" and n < 3:
            raise UnknownAlgebraError("so needs N >= 3")
        if fam == "sp" and (n < 2 or n % 2):
            raise UnknownAlgebraError("sp needs even N >= 2")
        return AlgebraName(fam, n)
    m = _SERIES_RE.match(text.strip())
    if m:
        return parse_name(algebra_name(m.group(1).upper(), int(m.group(2))))
    raise UnknownAlgebraError(f"cannot parse algebra name {text!r}")


@lru_cache(maxsize=None)
def defining(name: str) -> Tuple[LieAlgebra, Representation]:
    """The minimal fundamental (defining) representation."""
    an = parse_name(name)
    if an.family in ("sl", "so", "sp"):
        return build_classical(*an.series_rank)
    if an.family == "g2":
        from .exceptional import build_g2_defining
        return build_g2_defining()
    if an.family == "f4":
        from .exceptional import build_f4_defining
        return build_f4_defining()
    if an.family == "e6":
        from .exceptional import build_e6_defining
        return build_e6_defining()
    if an.family == "e7":
        from .exceptional import build_e7_defining
        return build_e7_defining()
    # e8: the minimal fundamental representation is the adjoint
    alg, rep = build_chevalley_adjoint("E", 8)
    return alg, rep


@lru_cache(maxsize=None)
def invariants(name: str) -> Mapping[str, SparseOp]:
    """The invariant operator set of the defining representation, built once
    per process and shared read-only."""
    return MappingProxyType(invariant_set(defining(name)[1]))


@lru_cache(maxsize=None)
def chevalley(name: str) -> Tuple[LieAlgebra, Representation]:
    an = parse_name(name)
    return build_chevalley_adjoint(*an.series_rank)


@dataclass
class AdjointContext:
    """Everything needed to verify adjoint-representation statements."""

    name: str
    algebra: LieAlgebra
    sc: SplitCasimir
    big_k: SparseOp
    ops: Dict[str, SparseOp]

    @property
    def dim_g(self) -> int:
        return self.algebra.dim


@lru_cache(maxsize=None)
def adjoint_context(name: str) -> AdjointContext:
    """sl/so/sp use the V^(x4) realization (paper formulas verbatim);
    exceptional algebras are assembled from Chevalley structure constants."""
    an = parse_name(name)
    if an.family == "sl":
        ta = sl_adjoint_tensor(an.n)
        return AdjointContext(str(an), ta.casimir.algebra, ta.casimir,
                              ta.ops["K"], ta.ops)
    if an.family in ("so", "sp"):
        ta = sosp_adjoint_tensor(an.n, +1 if an.family == "so" else -1)
        return AdjointContext(str(an), ta.casimir.algebra, ta.casimir,
                              ta.ops["K"], ta.ops)
    alg, rep = chevalley(str(an))
    sc = adjoint_split_casimir(alg)
    inv = invariant_set(rep)
    ops = {"I": sc.unit, "P": sc.swap, "K": inv["K"]}
    return AdjointContext(str(an), alg, sc, inv["K"], ops)
