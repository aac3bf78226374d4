"""Exceptional algebras in their minimal fundamental representations.

g2 comes from octonion derivations (7-dim module) and f4 from derivations
of the exceptional Jordan algebra J3 (26-dim).  e6 and e7 act through
their Chevalley bases on the weight basis of a minuscule Weyl orbit (27-
and 56-dim, ``_minuscule_module``): every simple e_i moves a weight to the
next with coefficient 1, f = e^T, and no sign is chosen.  e8's minimal
fundamental representation is the adjoint and lives in `chevalley`.

g2 and f4 start from the integer octonion table.  The Jordan product of J3
is an integer bilinear map on 3x3 octonion matrices, halved once and read
in the J3 basis (`j3_tensor`); the trace-form metric and d_ijk are index
arithmetic on that tensor.  The derivations of f_ijk (g2) and of d_ijk
(f4), and the invariant symplectic form of the e7 module, are the
nullspace of one sparse constraint operator each, and the structure
constants of g2 and f4 come from all generator commutators at once through
a readout map (`algebras.structure_from_generators`).  e6 and e7 share the
structure constants of their Chevalley adjoints.

The J3 basis keeps the second diagonal element unnormalized
(diag(1, 1, -2) instead of the orthonormal 1/sqrt(3) version) so every
entry stays rational; the diagonal trace-form metric is threaded through
all contractions, and metric-raised tensor identities coincide with the
orthonormal-basis component identities.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebras import (
    ConstructionError,
    LieAlgebra,
    Representation,
    _is_rational_square,
    algebra_from_struct,
    sparse_nullspace,
    structure_from_generators,
)
from .chevalley import build_chevalley_adjoint, chevalley_constants
from .kernel import SparseOp, kron
from .rootdata import root_system


# ---------------------------------------------------------------------------
# octonions
# ---------------------------------------------------------------------------

_F_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
              (2, 5, 7), (3, 4, 7), (3, 6, 5))


@lru_cache(maxsize=1)
def octonion_f() -> Dict[Tuple[int, int, int], int]:
    """Fully antisymmetric structure tensor f_ijk on indices 1..7."""
    f = {}
    for triple in _F_TRIPLES:
        for perm in itertools.permutations((0, 1, 2)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            key = tuple(triple[p] for p in perm)
            f[key] = sign
    return f


def octonion_f_tensor() -> SparseOp:
    """f_ijk as a 49 x 7 operator on 0-based imaginary units: entry
    (i * 7 + j, k)."""
    f = octonion_f()
    ijk = np.array(list(f), dtype=np.int64) - 1
    return SparseOp(49, 7, ijk[:, 0] * 7 + ijk[:, 1], ijk[:, 2],
                    np.array(list(f.values()), dtype=np.int64))


@lru_cache(maxsize=1)
def octonion_table() -> np.ndarray:
    """Integer M with e_i e_j = sum_k M[i, j, k] e_k; index 0 is the real
    unit, 1..7 the imaginary units (read-only)."""
    m = np.zeros((8, 8, 8), dtype=np.int64)
    units = np.arange(8)
    m[0, units, units] = 1
    m[units, 0, units] = 1
    m[units[1:], units[1:], 0] = -1
    for (i, j, k), s in octonion_f().items():
        m[i, j, k] = s
    m.flags.writeable = False
    return m


# ---------------------------------------------------------------------------
# derivations of a trilinear invariant
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


def _antisymmetric_unknowns(n: int) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
    """Layout of the unknowns A_pq, p < q, of an antisymmetric n x n matrix
    in lexicographic order, as (iu, ju, unknown, sign): unknown k sits at
    (iu[k], ju[k]), and for every p, q the entry A_pq is sign[p, q] times
    unknown number unknown[p, q] (sign is 0 on the diagonal)."""
    iu, ju = np.triu_indices(n, 1)
    unknown = np.zeros((n, n), dtype=np.int64)
    unknown[iu, ju] = unknown[ju, iu] = np.arange(len(iu))
    idx = np.arange(n)
    sign = np.sign(idx[None, :] - idx[:, None])  # A_qp = -A_pq, A_pp = 0
    return iu, ju, unknown, sign


def _derivations(t: SparseOp, gram: Sequence[int], dim: int, name: str
                 ) -> Tuple[List[SparseOp], SparseOp]:
    """Derivations D of a trilinear form t that keep the diagonal metric
    G = diag(gram), as (generators, readout).

    t is n^2 x n with t_ijk at (i * n + j, k), every permutation of a
    nonzero triple stored.  The unknowns are A_pq, p < q, of the
    antisymmetric A = G D in lexicographic order (D_pq = A_pq / g_p), and
    the equations
        sum_m D_mi t_mjk + D_mj t_imk + D_mk t_ijm = 0   (all i, j, k)
    are one sparse operator built from the triplets of t (scaled by
    lcm(gram) to integers), whose distinct rows go to `sparse_nullspace`.
    The readout holds g_p at vec position p * n + q for free unknown
    k = (p, q): it reads the coefficient of generator k off a derivation,
    which is its G-lowered free coordinate."""
    n = t.cols
    iu, ju, unknown, sign = _antisymmetric_unknowns(n)
    g = np.array(gram, dtype=np.int64)
    lowered = math.lcm(*gram) // g
    triple = (*np.divmod(t.row, n), t.col)
    other = np.arange(n)[:, None]
    eqs, unknowns, values = [], [], []
    # a nonzero t_xyz enters equation (i, y, z) through D_xi, (x, j, z)
    # through D_yj and (x, y, k) through D_zk
    for slot in range(3):
        m = triple[slot]
        ijk = [np.broadcast_to(x, (n, t.nnz)) for x in triple]
        ijk[slot] = np.broadcast_to(other, (n, t.nnz))
        eqs.append(((ijk[0] * n + ijk[1]) * n + ijk[2]).ravel())
        unknowns.append(unknown[m, other].ravel())
        values.append((t.data * lowered[m] * sign[m, other]).ravel())
    system = SparseOp(n ** 3, len(iu), np.concatenate(eqs),
                      np.concatenate(unknowns), np.concatenate(values))
    basis, free = sparse_nullspace(_distinct_rows(system), len(iu))
    if len(basis) != dim:
        raise ConstructionError(
            f"{name} derivation space has dim {len(basis)}")
    gens = []
    for vec in basis:
        trips = []
        for k, v in vec.items():
            p, q = int(iu[k]), int(ju[k])
            trips.append((p, q, v / gram[p]))
            trips.append((q, p, -v / gram[q]))
        gens.append(SparseOp.from_triplets(n, n, trips))
    free = np.array(free, dtype=np.int64)
    readout = SparseOp(dim, n * n, np.arange(dim), iu[free] * n + ju[free],
                       g[iu[free]])
    return gens, readout


# ---------------------------------------------------------------------------
# g2 = der(O)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_g2_defining() -> Tuple[LieAlgebra, Representation]:
    """Antisymmetric 7x7 matrices preserving f_ijk; must come out 14-dim."""
    gens, readout = _derivations(octonion_f_tensor(), [1] * 7, 14, "g2")
    struct = structure_from_generators(gens, readout)
    alg = algebra_from_struct("g2", "G", 2, 14, struct,
                              root_data=root_system("G", 2))
    rep = Representation(alg, 7, gens, "defining",
                         module_metric=SparseOp.identity(7))
    return alg, rep


# ---------------------------------------------------------------------------
# the Jordan algebra J3 and f4 = der(J3)
# ---------------------------------------------------------------------------

# paper offsets of the octonion slots (p, q), p < q: basis index
# offset + u - 1 holds the unit u = 1..7 in slot (p, q) (its conjugate in
# (q, p)), and offset + 7 the real unit
_J3_SLOTS = {1: (0, 1), 9: (0, 2), 18: (1, 2)}


def _grid(a: int, b: int, u: int) -> int:
    """Index of octonion component u of entry (a, b) in the 72-dim grid of
    3x3 octonion matrices."""
    return (a * 3 + b) * 8 + u


def _j3_embedding() -> Tuple[SparseOp, SparseOp]:
    """(embed, readout): the basis [b_0..b_25, I3] as columns in the grid
    (72 x 27), and the coordinates of a Hermitian grid matrix (27 x 72),
    so that readout @ embed = 1."""
    x = [_grid(a, a, 0) for a in range(3)]
    embed = [(x[0], 0, 1), (x[1], 0, -1),
             (x[0], 17, 1), (x[1], 17, 1), (x[2], 17, -2)]
    embed += [(x[a], 26, 1) for a in range(3)]
    half, sixth, third = Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)
    readout = [(0, x[0], half), (0, x[1], -half),
               (17, x[0], sixth), (17, x[1], sixth), (17, x[2], -2 * sixth)]
    readout += [(26, x[a], third) for a in range(3)]
    for offset, (p, q) in _J3_SLOTS.items():
        for k in range(8):
            unit = (k + 1) % 8
            embed.append((_grid(p, q, unit), offset + k, 1))
            embed.append((_grid(q, p, unit), offset + k, -1 if unit else 1))
            readout.append((offset + k, _grid(p, q, unit), 1))
    return (SparseOp.from_triplets(72, 27, embed),
            SparseOp.from_triplets(27, 72, readout))


@lru_cache(maxsize=1)
def j3_tensor() -> SparseOp:
    """The Jordan product x o y = (xy + yx) / 2 of J3 over the basis
    [b_0..b_25, I3] (b_0 = diag(1, -1, 0), b_17 = diag(1, 1, -2), index 26
    the identity) as a 27^2 x 27 operator: row i * 27 + j holds the
    coordinates of b_i o b_j.

    The grid product (xy)_ab = sum_c x_ac y_cb is the integer octonion
    table; xy + yx is symmetrised on the grid, halved once, and read in the
    basis."""
    table = octonion_table()
    u, v, w = np.nonzero(table)
    a, c, b = (x.ravel()[:, None] for x in np.indices((3, 3, 3)))
    left = (a * 3 + c) * 8 + u
    right = (c * 3 + b) * 8 + v
    out = np.broadcast_to((a * 3 + b) * 8 + w, left.shape).ravel()
    coef = np.broadcast_to(table[u, v, w], left.shape).ravel()
    left, right = left.ravel(), right.ravel()
    sym = SparseOp(72 * 72, 72,
                   np.concatenate([left * 72 + right, right * 72 + left]),
                   np.concatenate([out, out]), np.concatenate([coef, coef]))
    embed, readout = _j3_embedding()
    pairs = kron(embed, embed).transpose()
    return (pairs @ sym @ readout.transpose()).scaled(Fraction(1, 2))


@lru_cache(maxsize=1)
def j3_structure() -> Tuple[List[int], SparseOp]:
    """(gram, d) on the traceless basis b_0..b_25, read off `j3_tensor`:
    gram[i] = Tr(b_i o b_i) and d_ijk = -Tr((b_i o b_j) o b_k) as a
    676 x 26 operator with d_ijk at (i * 26 + j, k).  Only I3 has a trace
    (3), and the basis is orthogonal for the trace form, so the trace of a
    product is three times its I3 coordinate and d_ijk = -T^k_ij g_k."""
    t = j3_tensor()
    i, j = np.divmod(t.row, 27)
    square = (i == j) & (i < 26) & (t.col == 26)
    gram = [int(x) for x in t.data[square] * (3 * t.scale)]
    keep = (i < 26) & (j < 26) & (t.col < 26)
    col = t.col[keep]
    d = SparseOp(676, 26, i[keep] * 26 + j[keep], col,
                 -t.data[keep] * np.array(gram, dtype=np.int64)[col], t.scale)
    return gram, d


@lru_cache(maxsize=1)
def j3_derivations() -> Tuple[List[SparseOp], SparseOp]:
    """der(J3) on the traceless part: the 52 f4 generators and their
    readout (`_derivations` of d_ijk with the trace-form metric)."""
    gram, d = j3_structure()
    return _derivations(d, gram, 52, "f4")


@lru_cache(maxsize=1)
def build_f4_defining() -> Tuple[LieAlgebra, Representation]:
    """Derivations of J3 acting on its 26-dim traceless part."""
    gram, _ = j3_structure()
    gens, readout = j3_derivations()
    struct = structure_from_generators(gens, readout)
    alg = algebra_from_struct("f4", "F", 4, 52, struct,
                              root_data=root_system("F", 4))
    idx = np.arange(26)
    gram_op = SparseOp(26, 26, idx, idx, np.array(gram, dtype=np.int64))
    rep = Representation(alg, 26, gens, "defining", module_metric=gram_op)
    return alg, rep


# ---------------------------------------------------------------------------
# e6 and e7: minuscule modules over the Chevalley basis
# ---------------------------------------------------------------------------

def _minuscule_module(rank: int, size: int
                      ) -> Tuple[LieAlgebra, Representation]:
    """e_rank on the Weyl orbit of its minuscule fundamental weight, which
    must have ``size`` weights.

    Every <mu, alpha_i^vee> of a minuscule weight is -1, 0 or 1, so
    h_i = diag<mu, alpha_i^vee>, e_i v_mu = v_(mu + alpha_i) with unit
    coefficients and f_i = e_i^T satisfy the Chevalley relations.  A
    non-simple root gamma gets e_gamma = [e_a, e_(gamma - a)] / N_(a, gamma - a)
    for the first simple a that leaves a positive root, and f_gamma =
    e_gamma^T."""
    alg, _ = build_chevalley_adjoint("E", rank)
    rs = alg.root_data
    cc = chevalley_constants("E", rank)
    # a minuscule weight of a simply-laced type sits at a node of mark 1 in
    # the highest root
    node = rs.highest_root.index(1)
    minuscule = rs.weyl_orbit(tuple(int(i == node) for i in range(rank)))
    if len(minuscule) != size:
        raise ConstructionError(
            f"the minuscule Weyl orbit is not {size} weights")
    widx = {w: k for k, w in enumerate(minuscule)}
    simples = rs.positive_roots[:rank]
    gens = [SparseOp.from_triplets(
        size, size, [(widx[w], widx[w], w[i]) for w in minuscule if w[i]])
        for i in range(rank)]
    e_mats: Dict[Tuple[int, ...], SparseOp] = {}
    for root in rs.positive_roots:
        if root in simples:
            up = rs.cartan[root.index(1)]
            moves = ((widx.get(tuple(x + y for x, y in zip(w, up))), k)
                     for k, w in enumerate(minuscule))
            e = SparseOp.from_triplets(
                size, size, [(j, k, 1) for j, k in moves if j is not None])
        else:
            a, b = next((a, b) for a in simples
                        for b in [tuple(x - y for x, y in zip(root, a))]
                        if b in rs.pos_index)
            e = (e_mats[a] @ e_mats[b] - e_mats[b] @ e_mats[a]).scaled(
                Fraction(1, cc.n_pos(a, b)))
        e_mats[root] = e
        gens += [e, e.transpose()]
    rep = Representation(alg, size, gens, "defining")
    return alg, rep


@lru_cache(maxsize=1)
def build_e6_defining() -> Tuple[LieAlgebra, Representation]:
    """e6 on its 27-dim minuscule module (``_minuscule_module``)."""
    return _minuscule_module(6, 27)


@lru_cache(maxsize=1)
def build_e7_defining() -> Tuple[LieAlgebra, Representation]:
    """e7 on its 56-dim minuscule module (``_minuscule_module``)."""
    return _minuscule_module(7, 56)


def invariant_antisymmetric_form(rep: Representation) -> SparseOp:
    """The unique invariant antisymmetric bilinear form J (T^t J + J T = 0),
    normalized so that J @ J = -1.

    The unknowns are J_ab, a < b, in lexicographic order
    (`_antisymmetric_unknowns`), and the equations
        (T^t J + J T)_kl = sum_m T_mk J_ml + J_km T_ml = 0   (all T, k, l)
    are one integer sparse operator, row (t * n + k) * n + l for generator
    t, built from the triplets of the generators (each generator's integer
    data; its scale plays no part), whose distinct rows go to
    `sparse_nullspace`.  The solution space must be one-dimensional, J^2 a
    scalar -c and c a rational square."""
    n = rep.dim_module
    iu, ju, unknown, sign = _antisymmetric_unknowns(n)
    gens = rep.generators
    first = np.repeat(np.arange(len(gens)) * n * n, [t.nnz for t in gens])
    m, c, v = (np.concatenate(x) for x in
               zip(*((t.row, t.col, t.data) for t in gens)))
    other = np.arange(n)[:, None]
    # T_mc enters (T^t J)_cl through J_ml and (J T)_lc through J_lm
    system = SparseOp(
        len(gens) * n * n, len(iu),
        np.concatenate([(first + c * n + other).ravel(),
                        (first + other * n + c).ravel()]),
        np.concatenate([unknown[m, other].ravel(), unknown[other, m].ravel()]),
        np.concatenate([(v * sign[m, other]).ravel(),
                        (v * sign[other, m]).ravel()]))
    basis, _ = sparse_nullspace(_distinct_rows(system), len(iu))
    if len(basis) != 1:
        raise ConstructionError(
            f"antisymmetric invariant space has dim {len(basis)}")
    trips = []
    for k, x in basis[0].items():
        trips += [(iu[k], ju[k], x), (ju[k], iu[k], -x)]
    j_op = SparseOp.from_triplets(n, n, trips)
    sq = j_op @ j_op
    if sq.nnz != n or not np.array_equal(sq.row, sq.col):
        raise ConstructionError("J^2 is not scalar")
    c = -next(iter(sq.entries()))[2]
    if sq != SparseOp.identity(n, scale=-c):
        raise ConstructionError("J^2 is not scalar")
    root = _is_rational_square(c)
    if root is None:
        raise ConstructionError("J^2 scalar is not a rational square")
    return j_op.scaled(Fraction(1) / root)
