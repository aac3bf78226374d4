"""Defining representations of sl(N), so(N) and sp(N).

sl(N) uses the true basis {e_ij (i != j), h_k = e_kk - e_k+1,k+1}; the
paper-style pair-indexed spanning set T_ij = e_ij - delta_ij I/N survives as
closed-form metric functions used by tests and by the tensor-space adjoint
realization.  so/sp are built in the unified metric form M_ij = e_ij -
eps e_ji with c the identity (eps = +1) or the standard symplectic form
(eps = -1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Tuple

from .algebras import (
    ConstructionError,
    LieAlgebra,
    Representation,
    algebra_from_struct,
    structure_constants_from_brackets,
)
from .kernel import SparseOp
from .rootdata import RootDataError, root_system


def _sl_basis_index(n: int):
    """Basis order: e_ij (i != j, row-major), then h_k, k = 0..n-2."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {p: k for k, p in enumerate(pairs)}
    return pairs, index


def _sl_expand_traceless(n, index, offdiag, diag):
    """Expand a traceless matrix given as (offdiag dict, diagonal list)."""
    out = [(index[(i, j)], v) for (i, j), v in offdiag.items() if v]
    base = n * (n - 1)
    partial = Fraction(0)
    for k in range(n - 1):
        partial += diag[k]
        if partial:
            out.append((base + k, partial))
    return out


def build_sl(n_rank: int) -> Tuple[LieAlgebra, Representation]:
    """sl(N) with N = n_rank + 1."""
    n = n_rank + 1
    if n < 2:
        raise ConstructionError("sl needs N >= 2")
    pairs, index = _sl_basis_index(n)
    dim = n * n - 1

    def gen_matrix(a: int) -> SparseOp:
        if a < len(pairs):
            i, j = pairs[a]
            return SparseOp.from_triplets(n, n, [(i, j, 1)])
        k = a - len(pairs)
        return SparseOp.from_triplets(n, n, [(k, k, 1), (k + 1, k + 1, -1)])

    def basis_pair(a: int):
        # matrix content as (offdiag dict, diag list)
        if a < len(pairs):
            return {pairs[a]: Fraction(1)}, [Fraction(0)] * n
        k = a - len(pairs)
        d = [Fraction(0)] * n
        d[k], d[k + 1] = Fraction(1), Fraction(-1)
        return {}, d

    def bracket(a: int, b: int):
        # [A, B] for sparse matrix contents, expanded back into the basis
        oa, da = basis_pair(a)
        ob, db = basis_pair(b)
        off = {}
        diag = [Fraction(0)] * n

        def acc(i, j, v):
            if i == j:
                diag[i] += v
            else:
                off[(i, j)] = off.get((i, j), Fraction(0)) + v

        for (i, j), v in oa.items():
            for (k, l), w in ob.items():
                if j == k:
                    acc(i, l, v * w)
                if l == i:
                    acc(k, j, -v * w)
            acc(i, j, v * (db[j] - db[i]))
        for (k, l), w in ob.items():
            acc(k, l, w * (da[k] - da[l]))
        return _sl_expand_traceless(n, index, off, diag)

    struct = structure_constants_from_brackets(dim, bracket)
    labels = [f"E{i + 1}{j + 1}" for i, j in pairs] + \
        [f"H{k + 1}" for k in range(n - 1)]
    alg = algebra_from_struct(f"sl({n})", "A", n_rank, dim, struct,
                              root_data=root_system("A", n_rank),
                              labels=labels)
    gens = [gen_matrix(a) for a in range(dim)]
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
    c = _metric_c(n_total, eps).to_dense_fractions()
    if eps == 1:
        pairs = [(i, j) for i in range(n_total) for j in range(i + 1, n_total)]
    else:
        pairs = [(i, j) for i in range(n_total) for j in range(i, n_total)]
    index = {p: k for k, p in enumerate(pairs)}
    dim = len(pairs)

    def canon(i, j, v):
        # M_ji = -eps M_ij; M_ii = 0 for so
        if i == j and eps == 1:
            return None
        if (i, j) in index:
            return index[(i, j)], v
        return index[(j, i)], -eps * v

    def gen_matrix(a: int) -> SparseOp:
        i, j = pairs[a]
        trips = []
        for k in range(n_total):
            for l in range(n_total):
                v = c[j][l] * (k == i) - eps * c[i][l] * (k == j)
                if v:
                    trips.append((k, l, v))
        return SparseOp.from_triplets(n_total, n_total, trips)

    def bracket(a: int, b: int):
        i, j = pairs[a]
        k, l = pairs[b]
        raw = [(c[j][k], (i, l)), (-eps * c[i][k], (j, l)),
               (-eps * c[j][l], (i, k)), (c[i][l], (j, k))]
        acc = {}
        for coef, (x, y) in raw:
            if coef == 0:
                continue
            got = canon(x, y, coef)
            if got is not None:
                d, v = got
                acc[d] = acc.get(d, Fraction(0)) + v
        return [(d, v) for d, v in acc.items() if v]

    struct = structure_constants_from_brackets(dim, bracket)
    if eps == 1:
        name = f"so({n_total})"
        series = "B" if n_total % 2 else "D"
        rank = (n_total - 1) // 2 if n_total % 2 else n_total // 2
    else:
        name = f"sp({n_total})"
        series, rank = "C", n_total // 2
    rd = None
    try:
        rd = root_system(series, rank)
    except RootDataError:
        pass  # so(3), so(4): outside the B/D rank range; metrics still fine
    labels = [f"M{i + 1}{j + 1}" for i, j in pairs]
    alg = algebra_from_struct(name, series, rank, dim, struct,
                              root_data=rd, labels=labels)
    gens = [gen_matrix(a) for a in range(dim)]
    rep = Representation(alg, n_total, gens, "defining",
                         module_metric=_metric_c(n_total, eps))
    return alg, rep


@lru_cache(maxsize=None)
def build_classical(series: str, n: int) -> Tuple[LieAlgebra, Representation]:
    """Defining construction by series letter and rank.

    A: sl(n+1), n >= 1; B: so(2n+1), n >= 1; C: sp(2n), n >= 1;
    D: so(2n), n >= 2.
    """
    if series == "A":
        return build_sl(n)
    if series == "B":
        return build_so_sp(2 * n + 1, +1)
    if series == "C":
        return build_so_sp(2 * n, -1)
    if series == "D":
        return build_so_sp(2 * n, +1)
    raise ConstructionError(f"not a classical series: {series!r}")


# ---------------------------------------------------------------------------
# closed-form pair-indexed metrics (spanning-set conventions of the defining
# constructions; used as oracles and by the tensor-space adjoint realization)
# ---------------------------------------------------------------------------

def sl_pair_metric(n: int) -> Callable[[int, int, int, int], Fraction]:
    def g(i, j, k, l):
        return Fraction(2 * (n * (j == k) * (i == l) - (i == j) * (k == l)))
    return g


def sl_pair_metric_inv(n: int) -> Callable[[int, int, int, int], Fraction]:
    def ginv(i, j, k, l):
        return (Fraction((j == k) * (i == l)) - Fraction((i == j) * (k == l), n)) \
            / (2 * n)
    return ginv


def sosp_pair_metric(n: int, eps: int) -> Callable[[int, int, int, int], Fraction]:
    c = _metric_c(n, eps).to_dense_fractions()

    def g(i1, i2, j1, j2):
        return 2 * (n - 2 * eps) * (c[i2][j1] * c[j2][i1]
                                    - eps * c[i1][j1] * c[j2][i2])
    return g
