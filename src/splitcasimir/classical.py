"""Defining representations of sl(N), so(N) and sp(N).

sl(N) uses the true basis {e_ij (i != j), h_k = e_kk - e_k+1,k+1}.
so/sp are built in the unified metric form M_ij = e_ij - eps e_ji with c the
identity (eps = +1) or the standard symplectic form (eps = -1).  Structure
constants come from the generator matrices through a readout map
(`algebras.structure_from_generators`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np

from .algebras import (
    ConstructionError,
    LieAlgebra,
    Representation,
    algebra_from_struct,
    structure_from_generators,
)
from .kernel import SparseOp
from .rootdata import CLASSICAL_SERIES, RootDataError, root_system, series_rank


def build_sl(n_rank: int) -> Tuple[LieAlgebra, Representation]:
    """sl(N) with N = n_rank + 1.  Basis order: e_ij (i != j, row-major),
    then h_k, k = 0..N-2."""
    n = n_rank + 1
    if n < 2:
        raise ConstructionError("sl needs N >= 2")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    dim = n * n - 1
    gens = [SparseOp.from_triplets(n, n, [(i, j, 1)]) for i, j in pairs] + \
        [SparseOp.from_triplets(n, n, [(k, k, 1), (k + 1, k + 1, -1)])
         for k in range(n - 1)]
    # the e_ij coefficient of M is M_ij, the h_k one M_00 + ... + M_kk
    h, m = np.tril_indices(n - 1)
    row = np.concatenate([np.arange(len(pairs)), len(pairs) + h])
    col = np.concatenate([[i * n + j for i, j in pairs], m * (n + 1)])
    readout = SparseOp(dim, n * n, row, col, np.ones(len(row), dtype=np.int64))
    struct = structure_from_generators(gens, readout)
    labels = [f"E{i + 1}{j + 1}" for i, j in pairs] + \
        [f"H{k + 1}" for k in range(n - 1)]
    alg = algebra_from_struct(f"sl({n})", "A", n_rank, dim, struct,
                              root_data=root_system("A", n_rank),
                              labels=labels)
    rep = Representation(alg, n, gens, "defining",
                         module_metric=None)
    return alg, rep


def _metric_c(n_total: int, eps: int) -> SparseOp:
    if eps == 1:
        return SparseOp.identity(n_total)
    half = n_total // 2
    trips = [(i, half + i, 1) for i in range(half)] + \
            [(half + i, i, -1) for i in range(half)]
    return SparseOp.from_triplets(n_total, n_total, trips)


def build_so_sp(n_total: int, eps: int) -> Tuple[LieAlgebra, Representation]:
    """so(N) for eps = +1, sp(N) for eps = -1 (N even)."""
    if eps == 1 and n_total < 3:
        raise ConstructionError("so needs N >= 3")
    if eps == -1 and (n_total < 2 or n_total % 2):
        raise ConstructionError("sp needs even N >= 2")
    # c has one entry per row, c[j, partner[j]] = cj[j]
    c = _metric_c(n_total, eps)
    partner, cj = c.col, c.data
    iu, ju = np.triu_indices(n_total, 1 if eps == 1 else 0)
    dim = len(iu)
    # M_ij = e_i c_j^T - eps e_j c_i^T; the two triplets add up when i == j
    gens = [SparseOp(n_total, n_total, np.array([i, j]), partner[[j, i]],
                     np.array([cj[j], -eps * cj[i]]))
            for i, j in zip(iu, ju)]
    # no other generator touches entry (i, partner[j]) of M_ij; the M_ij
    # coefficient is that entry over cj[j] = +-1, halved when i == j
    readout = SparseOp(dim, n_total * n_total, np.arange(dim),
                       iu * n_total + partner[ju],
                       cj[ju] * (2 - (iu == ju)), Fraction(1, 2))
    struct = structure_from_generators(gens, readout)
    family = "so" if eps == 1 else "sp"
    series, rank = series_rank(family, n_total)
    rd = None
    try:
        rd = root_system(series, rank)
    except RootDataError:
        pass  # so(3), so(4): outside the B/D rank range; metrics still fine
    labels = [f"M{i + 1}{j + 1}" for i, j in zip(iu, ju)]
    alg = algebra_from_struct(f"{family}({n_total})", series, rank, dim,
                              struct, root_data=rd, labels=labels)
    rep = Representation(alg, n_total, gens, "defining",
                         module_metric=c)
    return alg, rep


@lru_cache(maxsize=None)
def build_classical(series: str, n: int) -> Tuple[LieAlgebra, Representation]:
    """Defining construction by series letter and rank (the sizes are
    `rootdata.CLASSICAL_SERIES`): A: sl(n+1), n >= 1; B: so(2n+1), n >= 1;
    C: sp(2n), n >= 1; D: so(2n), n >= 2.
    """
    if series not in CLASSICAL_SERIES:
        raise ConstructionError(f"not a classical series: {series!r}")
    family, a, b = CLASSICAL_SERIES[series]
    if family == "sl":
        return build_sl(n)
    return build_so_sp(a * n + b, +1 if family == "so" else -1)
