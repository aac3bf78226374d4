"""Exceptional algebras in their minimal fundamental representations.

Every module here is a weight basis of the Chevalley algebra that
`chevalley.build_chevalley_adjoint` builds.  e6 and e7 act on the Weyl
orbit of a minuscule weight (27- and 56-dim, ``_minuscule_simples``): h_i
is diagonal, every simple e_i moves a weight to the next with coefficient
1, f = e^T, and no sign is chosen.  g2 and f4 are the fixed points of a
diagram automorphism (Kac, Infinite-Dimensional Lie Algebras, 7.9): g2 of
the triality of D4 and f4 of the involution of E6.  Their simple h_i and
e_i are sums of those of D4 on its 8-dim, and of E6 on its 27-dim,
minuscule module over the diagram orbits (``_folded_module``); these
modules split as 7 + 1 and 26 + 1, and the invariant vector is quotiented
out.  Every non-simple root vector is a bracket of simple ones divided by
its Chevalley constant (``_chevalley_module``).  e8's minimal fundamental
representation is the adjoint and lives in `chevalley`.

The invariant tensors of these modules (the g2 and f4 metrics, the g2
3-form f, the f4 cubic d and the e7 symplectic form J) are each the one-
dimensional nullspace of one sparse integer system (``invariant_tensor``):
invariance under the simple e_i and f_i, with the index tuples whose
weights sum to zero as the only unknowns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebras import (
    ConstructionError,
    LieAlgebra,
    Representation,
    _is_rational_square,
    sparse_nullspace,
)
from .casimir import _perm_sign
from .chevalley import build_chevalley_adjoint, chevalley_constants
from .kernel import SparseOp, combine
from .rootdata import cartan_matrix, root_system


# ---------------------------------------------------------------------------
# invariant tensors on weight bases
# ---------------------------------------------------------------------------

def _distinct_rows(op: SparseOp) -> List[Dict[int, int]]:
    """The nonzero rows of an integer system op x = 0 as {column: value},
    each divided by the gcd of its entries with its first entry made
    positive, repeats dropped (the scale of op plays no part)."""
    _, starts = op.segments
    counts = np.diff(starts, append=op.nnz)
    data = op.data.astype(np.int64)
    norm = np.gcd.reduceat(np.abs(data), starts) * np.sign(data[starts])
    data = data // np.repeat(norm, counts)
    keyed = np.stack([op.col, data], axis=1)
    rows: Dict[bytes, Dict[int, int]] = {}
    for s, e in zip(starts.tolist(), (starts + counts).tolist()):
        key = keyed[s:e].tobytes()
        if key not in rows:
            rows[key] = dict(zip(op.col[s:e].tolist(), data[s:e].tolist()))
    return list(rows.values())


def invariant_tensor(rep: Representation, rank: int, sign: int) -> SparseOp:
    """The invariant tensor t_(i_1..i_k), k = ``rank``, of the module:
    symmetric for sign = 1, antisymmetric for sign = -1, and unique up to
    scale.  It comes as an n^(k-1) x n operator with t at row
    (i_1..i_(k-1)) and column i_k, every permutation of a tuple stored,
    scaled as `sparse_nullspace` leaves it.

    The unknowns are t at the sorted index tuples (strictly increasing for
    sign = -1) in lexicographic order, and the equations
        sum_s sum_m T_(m, i_s) t_(i_1..m..i_k) = 0   (all T, all i)
    are one integer sparse operator, row (T, i), built from the triplets
    of the generators (each generator's integer data; its scale plays no
    part), whose distinct rows go to `sparse_nullspace`.  A module of a
    Chevalley algebra is a weight basis (its h_i are diagonal): only the
    simple e_i and f_i enter, and only the tuples whose weights sum to zero
    are unknowns.  Any other algebra brings every generator and every
    tuple."""
    n, gens = rep.dim_module, rep.generators
    if rep.algebra.convention == "chevalley":
        r = rep.algebra.rank
        if any(not np.array_equal(h.row, h.col) for h in gens[:r]):
            raise ConstructionError("the h_i are not diagonal")
        # h_i's integer data: a positive scale per h_i leaves "the weights
        # sum to zero" as it is
        weights = np.zeros((n, r), dtype=np.int64)
        for i, h in enumerate(gens[:r]):
            weights[h.row, i] = h.data
        gens = gens[r:3 * r]
    else:
        weights = np.zeros((n, 0), dtype=np.int64)
    size = n ** rank
    flat = np.arange(size)
    idx = np.indices((n,) * rank).reshape(rank, -1)
    place = n ** np.arange(rank - 1, -1, -1)
    ordered = np.sort(idx, axis=0)
    canon = place @ ordered
    coef = np.ones(size, dtype=np.int64)
    if sign == -1:  # a repeated index forces t to zero
        coef = _perm_sign(idx.T) * (np.diff(ordered, axis=0) > 0).all(axis=0)
    balanced = ~weights[idx].sum(axis=0).any(axis=1)
    is_unknown = (canon == flat) & (coef != 0) & balanced
    count = int(is_unknown.sum())
    unknown = np.full(size, -1)
    unknown[is_unknown] = np.arange(count)
    col_of = unknown[canon]
    m, c, v, first = (np.concatenate(x) for x in zip(*(
        (t.row, t.col, t.data, np.full(t.nnz, g * size))
        for g, t in enumerate(gens))))
    rows, cols, vals = [], [], []
    for s in range(rank):
        # T_mc enters equation (.., c, ..) through the tuple (.., m, ..),
        # both with slot s set
        rest = flat[idx[s] == 0]
        tup = rest + (m * place[s])[:, None]
        hit = col_of[tup] >= 0
        rows.append((first[:, None] + rest + (c * place[s])[:, None])[hit])
        cols.append(col_of[tup][hit])
        vals.append((v[:, None] * coef[tup])[hit])
    system = SparseOp(len(gens) * size, count, np.concatenate(rows),
                      np.concatenate(cols), np.concatenate(vals))
    basis, _ = sparse_nullspace(_distinct_rows(system), count)
    if len(basis) != 1:
        kind = "symmetric" if sign == 1 else "antisymmetric"
        raise ConstructionError(
            f"{kind} invariant space of rank {rank} has dim {len(basis)}")
    live = np.flatnonzero(col_of >= 0)
    x = basis[0]
    return SparseOp.from_triplets(size // n, n, (
        (i // n, i % n, int(coef[i]) * x.get(int(col_of[i]), 0))
        for i in live.tolist()))


# ---------------------------------------------------------------------------
# minuscule modules, their folds, and the Chevalley extension
# ---------------------------------------------------------------------------

def _minuscule_simples(series: str, rank: int, size: int
                       ) -> Tuple[List[SparseOp], List[SparseOp]]:
    """(h, e): the simple h_i and e_i of the simply-laced type series-rank
    on the Weyl orbit of its minuscule fundamental weight, which must have
    ``size`` weights.

    Every <mu, alpha_i^vee> of a minuscule weight is -1, 0 or 1, so
    h_i = diag<mu, alpha_i^vee>, e_i v_mu = v_(mu + alpha_i) with unit
    coefficients and f_i = e_i^T satisfy the Chevalley relations."""
    rs = root_system(series, rank)
    # a minuscule weight of a simply-laced type sits at a node of mark 1 in
    # the highest root
    node = rs.highest_root.index(1)
    minuscule = rs.weyl_orbit(tuple(int(i == node) for i in range(rank)))
    if len(minuscule) != size:
        raise ConstructionError(
            f"the minuscule Weyl orbit is not {size} weights")
    widx = {w: k for k, w in enumerate(minuscule)}
    h = [SparseOp.from_triplets(
        size, size, [(widx[w], widx[w], w[i]) for w in minuscule if w[i]])
        for i in range(rank)]
    e = []
    for up in rs.cartan:
        moves = ((widx.get(tuple(x + y for x, y in zip(w, up))), k)
                 for k, w in enumerate(minuscule))
        e.append(SparseOp.from_triplets(
            size, size, [(j, k, 1) for j, k in moves if j is not None]))
    return h, e


def _chevalley_module(series: str, rank: int, h: Sequence[SparseOp],
                      e: Sequence[SparseOp]) -> Representation:
    """The Chevalley algebra of type series-rank acting through diagonal
    simple h_i and simple e_i, with f_i = e_i^T.

    A non-simple root gamma gets e_gamma = [e_a, e_(gamma - a)] / N_(a, gamma - a)
    for the first simple a that leaves a positive root, and
    f_gamma = e_gamma^T (x -> -x^T is the Chevalley involution on the
    simple generators, hence on all)."""
    alg, _ = build_chevalley_adjoint(series, rank)
    rs = alg.root_data
    cc = chevalley_constants(series, rank)
    simples = rs.positive_roots[:rank]
    e_mats = {root: e[root.index(1)] for root in simples}
    gens = list(h)
    for root in rs.positive_roots:
        if root not in e_mats:
            a, b = next((a, b) for a in simples
                        for b in [tuple(x - y for x, y in zip(root, a))]
                        if b in rs.pos_index)
            e_mats[root] = (e_mats[a] @ e_mats[b] - e_mats[b] @ e_mats[a]
                            ).scaled(Fraction(1, cc.n_pos(a, b)))
        gens += [e_mats[root], e_mats[root].transpose()]
    return Representation(alg, h[0].rows, gens, "defining")


def _folded_module(series: str, rank: int, source: Tuple[str, int, int],
                   orbits: Sequence[Sequence[int]]) -> Representation:
    """The type series-rank as the fixed points of a diagram automorphism
    of the type source[:2], on the latter's minuscule module (of source[2]
    weights) modulo its one invariant vector.

    H_I and E_I are the sums of the simple h_i and e_i over the orbit I
    (0-based Bourbaki nodes); no two nodes of an orbit are joined, so
    [E_I, F_I] = H_I, and [H_J, E_I] = A_IJ E_I with the Cartan matrix A of
    series-rank is checked here."""
    h, e = _minuscule_simples(*source)
    big_h = [combine((1, h[i]) for i in orbit) for orbit in orbits]
    big_e = [combine((1, e[i]) for i in orbit) for orbit in orbits]
    cartan = cartan_matrix(series, rank)
    for i, e_i in enumerate(big_e):
        for j, h_j in enumerate(big_h):
            if h_j @ e_i - e_i @ h_j != e_i.scaled(cartan[i][j]):
                raise ConstructionError(
                    f"folded Cartan relation [H_{j}, E_{i}] = "
                    f"{cartan[i][j]} E_{i} fails")
    return _quotient(_chevalley_module(series, rank, big_h, big_e))


def _quotient(rep: Representation) -> Representation:
    """rep modulo its one invariant vector v, on the classes of the basis
    vectors other than the last one, k, at which v is nonzero: the class of
    e_k is -sum_(j != k) (v_j / v_k) e_j.  The classes stay weight vectors,
    and the module carries its invariant metric."""
    n = rep.dim_module
    v = invariant_tensor(rep, 1, 1)
    k, v_k = int(v.col[-1]), v.data[-1] * v.scale
    keep = np.delete(np.arange(n), k)
    inc = SparseOp(n, n - 1, keep, np.arange(n - 1),
                   np.ones(n - 1, dtype=np.int64))
    # v vanishes past k, so its other entries sit at the classes of their
    # own basis vectors
    proj = inc.transpose() + SparseOp.from_triplets(
        n - 1, n, [(c, k, -x / v_k) for _, c, x in v.entries() if c != k])
    gens = [proj @ t @ inc for t in rep.generators]
    out = Representation(rep.algebra, n - 1, gens, "defining")
    out.module_metric = invariant_tensor(out, 2, 1)
    return out


@lru_cache(maxsize=1)
def build_g2_defining() -> Tuple[LieAlgebra, Representation]:
    """g2 on its 7-dim module: the triality-fixed part of D4, nodes
    {0, 2, 3} and {1}, on the 8-dim minuscule module (``_folded_module``)."""
    rep = _folded_module("G", 2, ("D", 4, 8), ((0, 2, 3), (1,)))
    return rep.algebra, rep


@lru_cache(maxsize=1)
def build_f4_defining() -> Tuple[LieAlgebra, Representation]:
    """f4 on its 26-dim module: the involution-fixed part of E6, nodes {1},
    {3}, {2, 4} and {0, 5}, on the 27-dim minuscule module
    (``_folded_module``)."""
    rep = _folded_module("F", 4, ("E", 6, 27), ((1,), (3,), (2, 4), (0, 5)))
    return rep.algebra, rep


@lru_cache(maxsize=1)
def build_e6_defining() -> Tuple[LieAlgebra, Representation]:
    """e6 on its 27-dim minuscule module."""
    rep = _chevalley_module("E", 6, *_minuscule_simples("E", 6, 27))
    return rep.algebra, rep


@lru_cache(maxsize=1)
def build_e7_defining() -> Tuple[LieAlgebra, Representation]:
    """e7 on its 56-dim minuscule module."""
    rep = _chevalley_module("E", 7, *_minuscule_simples("E", 7, 56))
    return rep.algebra, rep


def invariant_antisymmetric_form(rep: Representation) -> SparseOp:
    """The unique invariant antisymmetric bilinear form J (T^t J + J T = 0,
    `invariant_tensor`), normalized so that J @ J = -1: J^2 must be a
    scalar -c and c a rational square."""
    n = rep.dim_module
    j_op = invariant_tensor(rep, 2, -1)
    sq = j_op @ j_op
    c = -sq.data[0] * sq.scale
    if sq != SparseOp.identity(n, scale=-c):
        raise ConstructionError("J^2 is not scalar")
    root = _is_rational_square(c)
    if root is None:
        raise ConstructionError("J^2 scalar is not a rational square")
    return j_op.scaled(Fraction(1) / root)
