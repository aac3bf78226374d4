"""Exceptional algebras in their minimal fundamental representations.

g2 comes from octonion derivations (7-dim module), f4 from derivations of
the exceptional Jordan algebra J3 (26-dim), e6 from adding the traceless
Jordan multiplications (27-dim), e7 from the minuscule weight construction
over its Chevalley basis (56-dim).  e8's minimal fundamental representation
is the adjoint and lives in `chevalley`.

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
    expand_in_echelon_basis,
    sparse_nullspace,
    structure_constants_from_brackets,
)
from .chevalley import build_chevalley_adjoint, chevalley_constants
from .kernel import SparseOp
from .rootdata import root_system, _neg


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


def oct_mul(x: Sequence[Fraction], y: Sequence[Fraction]) -> List[Fraction]:
    """Octonion product; index 0 is the real unit, 1..7 the imaginary units."""
    f = octonion_f()
    out = [Fraction(0)] * 8
    for i in range(8):
        xi = x[i]
        if not xi:
            continue
        for j in range(8):
            yj = y[j]
            if not yj:
                continue
            if i == 0:
                out[j] += xi * yj
            elif j == 0:
                out[i] += xi * yj
            elif i == j:
                out[0] -= xi * yj
            else:
                for k in range(1, 8):
                    s = f.get((i, j, k))
                    if s:
                        out[k] += s * xi * yj
    return out


def oct_conj(x: Sequence[Fraction]) -> List[Fraction]:
    return [x[0]] + [-v for v in x[1:]]


def _commutator_coeffs(bracket):
    """Wrap a matrix-commutator bracket (a, b) -> [(d, value), ...] so each
    unordered pair is evaluated once: [T_b, T_a] = -[T_a, T_b] exactly, so
    (b, a) reads the negation of (a, b), and (a, a) is zero."""
    upper = lru_cache(maxsize=None)(bracket)

    def coeffs(a: int, b: int):
        if a == b:
            return []
        if a > b:
            return [(d, -v) for d, v in upper(b, a)]
        return upper(a, b)

    return coeffs


# ---------------------------------------------------------------------------
# g2 = der(O)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_g2_defining() -> Tuple[LieAlgebra, Representation]:
    """Antisymmetric 7x7 matrices preserving f_ijk; must come out 14-dim."""
    f = octonion_f()
    pairs = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]
    pidx = {p: k for k, p in enumerate(pairs)}

    def unknown(i, m):
        if i == m:
            return None
        return (pidx[(i, m)], 1) if i < m else (pidx[(m, i)], -1)

    rows = []
    for i, j, k in itertools.product(range(1, 8), repeat=3):
        row: Dict[int, Fraction] = {}
        for m in range(1, 8):
            for (a, b, coef) in ((i, m, f.get((m, j, k), 0)),
                                 (j, m, f.get((i, m, k), 0)),
                                 (k, m, f.get((i, j, m), 0))):
                if coef:
                    u = unknown(a, b)
                    if u:
                        idx, sgn = u
                        row[idx] = row.get(idx, Fraction(0)) + sgn * coef
        row = {k2: v for k2, v in row.items() if v}
        if row:
            rows.append(row)
    basis, free = sparse_nullspace(rows, len(pairs))
    if len(basis) != 14:
        raise ConstructionError(f"g2 derivation space has dim {len(basis)}")

    def to_matrix(vec: Dict[int, Fraction]) -> SparseOp:
        trips = []
        for idx, v in vec.items():
            i, j = pairs[idx]
            trips.append((i - 1, j - 1, v))
            trips.append((j - 1, i - 1, -v))
        return SparseOp.from_triplets(7, 7, trips)

    gens = [to_matrix(vec) for vec in basis]

    def vec_of(mat: SparseOp) -> Dict[int, Fraction]:
        out = {}
        for r, c, v in mat.entries():
            if r < c:
                out[pidx[(r + 1, c + 1)]] = v
        return out

    def bracket(a: int, b: int):
        comm = gens[a] @ gens[b] - gens[b] @ gens[a]
        coeffs, ok = expand_in_echelon_basis(vec_of(comm), free, basis)
        if not ok:
            raise ConstructionError("g2 bracket left the derivation span")
        return [(d, v) for d, v in enumerate(coeffs) if v]

    struct = structure_constants_from_brackets(14, _commutator_coeffs(bracket))
    alg = algebra_from_struct("g2", "G", 2, 14, struct,
                              root_data=root_system("G", 2))
    rep = Representation(alg, 7, gens, "defining",
                         module_metric=SparseOp.identity(7))
    return alg, rep


# ---------------------------------------------------------------------------
# the Jordan algebra J3 and f4 = der(J3)
# ---------------------------------------------------------------------------

def _oct_unit(a: int) -> List[Fraction]:
    # slot basis u_1..u_7 imaginary, u_8 the real unit
    v = [Fraction(0)] * 8
    v[a % 8] = Fraction(1)
    return v


class _J3:
    """Hermitian 3x3 octonion matrix as a 3x3 grid of 8-vectors."""

    __slots__ = ("m",)

    def __init__(self, m=None):
        self.m = m or [[[Fraction(0)] * 8 for _ in range(3)] for _ in range(3)]

    @staticmethod
    def diag(x1, x2, x3) -> "_J3":
        out = _J3()
        for a, x in zip(range(3), (x1, x2, x3)):
            out.m[a][a][0] = Fraction(x)
        return out

    @staticmethod
    def off(slot: Tuple[int, int], o: Sequence[Fraction]) -> "_J3":
        a, b = slot
        out = _J3()
        out.m[a][b] = list(o)
        out.m[b][a] = oct_conj(o)
        return out

    def jordan(self, other: "_J3") -> "_J3":
        out = _J3()
        for a in range(3):
            for b in range(3):
                acc = [Fraction(0)] * 8
                for c in range(3):
                    p = oct_mul(self.m[a][c], other.m[c][b])
                    q = oct_mul(other.m[a][c], self.m[c][b])
                    for k in range(8):
                        acc[k] += (p[k] + q[k]) / 2
                out.m[a][b] = acc
        return out

    def trace(self) -> Fraction:
        return self.m[0][0][0] + self.m[1][1][0] + self.m[2][2][0]


_J3_SLOTS = {1: (0, 1), 9: (0, 2), 18: (1, 2)}  # paper offsets for octonion slots


@lru_cache(maxsize=1)
def j3_basis() -> List[_J3]:
    """Traceless J3 basis in the paper's index order (0-based); index 17 is
    the rescaled diag(1, 1, -2)."""
    basis: List[_J3] = [None] * 26
    basis[0] = _J3.diag(1, -1, 0)
    basis[17] = _J3.diag(1, 1, -2)
    for offset, slot in _J3_SLOTS.items():
        for a in range(1, 9):
            basis[offset + a - 1] = _J3.off(slot, _oct_unit(a))
    return basis


def j3_vectorize(x: _J3, with_identity: bool = True) -> List[Fraction]:
    """Coordinates over [b_0..b_25, I3]; exact structural readout."""
    out = [Fraction(0)] * (27 if with_identity else 26)
    x0, x1, x2 = x.m[0][0][0], x.m[1][1][0], x.m[2][2][0]
    ci = (x0 + x1 + x2) / 3
    y0, y1 = x0 - ci, x1 - ci
    out[0] = (y0 - y1) / 2
    out[17] = (y0 + y1) / 2
    if with_identity:
        out[26] = ci
    elif ci != 0:
        raise ConstructionError("tried to project a non-traceless element")
    for offset, (a, b) in _J3_SLOTS.items():
        o = x.m[a][b]
        for u in range(1, 8):
            out[offset + u - 1] = o[u]
        out[offset + 7] = o[0]
    return out


@lru_cache(maxsize=1)
def j3_structure():
    """(gram diag, fully-lowered symmetric d_ijk dict over the 26 basis)."""
    basis = j3_basis()
    prods = {}
    for i in range(26):
        for j in range(i, 26):
            prods[(i, j)] = basis[i].jordan(basis[j])
    gram = [prods[(i, i)].trace() for i in range(26)]
    d: Dict[Tuple[int, int, int], Fraction] = {}
    for (i, j), p in prods.items():
        vec = j3_vectorize(p, with_identity=True)
        for k in range(26):
            if vec[k]:
                val = -vec[k] * gram[k]  # d_ijk = -Tr((b_i o b_j) o b_k)
                for key in set(itertools.permutations((i, j, k))):
                    d[key] = val
    return gram, d


_J3_PAIRS = [(i, j) for i in range(26) for j in range(i + 1, 26)]
_J3_PIDX = {p: k for k, p in enumerate(_J3_PAIRS)}


@lru_cache(maxsize=1)
def j3_derivations() -> Tuple[List[Dict[int, Fraction]], List[int]]:
    """der(J3) as (basis, free) from `sparse_nullspace` over the unknowns
    A_ij (i < j, pair index in `_J3_PAIRS`) of A = G D antisymmetric; the
    constraint system must have a 52-dim kernel.  Basis vector k is the
    strict upper triangle of G times f4 generator k, so f4 and e6 expand
    G-lowered derivations in it by reading the free coordinates."""
    gram, d = j3_structure()

    def unknown(i, m):
        if i == m:
            return None
        return (_J3_PIDX[(i, m)], 1) if i < m else (_J3_PIDX[(m, i)], -1)

    by_pair: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
    for (i, j, k), v in d.items():
        by_pair.setdefault((j, k), []).append((i, v))

    rows = []
    # sum_m A_mi d_mjk / g_m + sum_m A_mj d_imk / g_m
    #   - sum_m d_ijm A_km / g_m = 0   (A = G D antisymmetric)
    for i in range(26):
        for j in range(i, 26):
            for k in range(26):
                row: Dict[int, Fraction] = {}
                for m, v in by_pair.get((j, k), ()):
                    u = unknown(m, i)
                    if u:
                        row[u[0]] = row.get(u[0], Fraction(0)) \
                            + u[1] * v / gram[m]
                for m, v in by_pair.get((i, k), ()):
                    u = unknown(m, j)
                    if u:
                        row[u[0]] = row.get(u[0], Fraction(0)) \
                            + u[1] * v / gram[m]
                for m, v in by_pair.get((i, j), ()):
                    u = unknown(k, m)
                    if u:
                        row[u[0]] = row.get(u[0], Fraction(0)) \
                            - u[1] * v / gram[m]
                row = {k2: v for k2, v in row.items() if v}
                if row:
                    rows.append(row)
    basis, free = sparse_nullspace(rows, len(_J3_PAIRS))
    if len(basis) != 52:
        raise ConstructionError(f"f4 derivation space has dim {len(basis)}")
    return basis, free


@lru_cache(maxsize=1)
def build_f4_defining() -> Tuple[LieAlgebra, Representation]:
    """Derivations of J3 acting on its 26-dim traceless part."""
    gram, _ = j3_structure()
    basis, free = j3_derivations()

    def to_matrix(vec: Dict[int, Fraction]) -> SparseOp:
        # D = G^-1 A
        trips = []
        for idx, v in vec.items():
            i, j = _J3_PAIRS[idx]
            trips.append((i, j, v / gram[i]))
            trips.append((j, i, -v / gram[j]))
        return SparseOp.from_triplets(26, 26, trips)

    gens = [to_matrix(vec) for vec in basis]
    gram_op = SparseOp.from_triplets(26, 26,
                                     [(i, i, gram[i]) for i in range(26)])

    def vec_of(mat: SparseOp) -> Dict[int, Fraction]:
        out = {}
        for r, c, v in (gram_op @ mat).entries():
            if r < c:
                out[_J3_PIDX[(r, c)]] = v
        return out

    def bracket(a: int, b: int):
        comm = gens[a] @ gens[b] - gens[b] @ gens[a]
        coeffs, ok = expand_in_echelon_basis(vec_of(comm), free, basis)
        if not ok:
            raise ConstructionError("f4 bracket left the derivation span")
        return [(dd, v) for dd, v in enumerate(coeffs) if v]

    struct = structure_constants_from_brackets(52, _commutator_coeffs(bracket))
    alg = algebra_from_struct("f4", "F", 4, 52, struct,
                              root_data=root_system("F", 4))
    rep = Representation(alg, 26, gens, "defining", module_metric=gram_op)
    return alg, rep


# ---------------------------------------------------------------------------
# e6 = der(J3) + traceless Jordan multiplications, acting on all of J3
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_e6_defining() -> Tuple[LieAlgebra, Representation]:
    f4_alg, f4_rep = build_f4_defining()
    basis = j3_basis()
    gram, _ = j3_structure()
    # 27-dim module coordinates: [b_0..b_25, I3]
    ident = _J3.diag(1, 1, 1)

    def embed_derivation(mat26: SparseOp) -> SparseOp:
        return SparseOp.from_triplets(
            27, 27, [(r, c, v) for r, c, v in mat26.entries()])

    def l_operator(i: int) -> SparseOp:
        cols = []
        for j in range(26):
            cols.append(j3_vectorize(basis[i].jordan(basis[j])))
        cols.append(j3_vectorize(basis[i].jordan(ident)))
        trips = [(r, c, col[r]) for c, col in enumerate(cols)
                 for r in range(27) if col[r]]
        return SparseOp.from_triplets(27, 27, trips)

    d_gens = [embed_derivation(m) for m in f4_rep.generators]
    l_gens = [l_operator(i) for i in range(26)]
    gens = d_gens + l_gens
    dim = 78

    f4_basis, f4_free = j3_derivations()

    def decompose(mat: SparseOp):
        """Split an e6 element into derivation + L_z coefficients."""
        # z = action on the identity coordinate; derivations kill it
        z = [Fraction(0)] * 27
        for r, c, v in mat.entries():
            if c == 26:
                z[r] = v
        if z[26] != 0:
            raise ConstructionError("e6 bracket hit the identity trace part")
        l_part = SparseOp.zero(27, 27)
        for i in range(26):
            if z[i]:
                l_part = l_part + l_gens[i].scaled(z[i])
        d_part = mat - l_part
        vec = {}
        for r, c, v in d_part.entries():
            if r == 26 or c == 26:
                raise ConstructionError("e6 derivation part is not traceless")
            w = gram[r] * v
            if r < c:
                vec[_J3_PIDX[(r, c)]] = w
        coeffs, ok = expand_in_echelon_basis(vec, f4_free, f4_basis)
        if not ok:
            raise ConstructionError("e6 bracket left der(J3) + L(J3_0)")
        return coeffs, z[:26]

    def bracket(a: int, b: int):
        comm = gens[a] @ gens[b] - gens[b] @ gens[a]
        d_coeffs, z = decompose(comm)
        out = [(k, v) for k, v in enumerate(d_coeffs) if v]
        out += [(52 + k, v) for k, v in enumerate(z) if v]
        return out

    struct = structure_constants_from_brackets(dim, _commutator_coeffs(bracket))
    alg = algebra_from_struct("e6", "E", 6, dim, struct,
                              root_data=root_system("E", 6))
    rep = Representation(alg, 27, gens, "defining")
    return alg, rep


# ---------------------------------------------------------------------------
# e7: 56-dim minuscule module over the Chevalley basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_e7_defining() -> Tuple[LieAlgebra, Representation]:
    alg, _ = build_chevalley_adjoint("E", 7)
    rs = alg.root_data
    cc = chevalley_constants("E", 7)
    # a minuscule weight of a simply-laced type sits at a node of mark 1 in
    # the highest root
    node = rs.highest_root.index(1)
    minuscule = rs.weyl_orbit(tuple(int(i == node) for i in range(rs.rank)))
    if len(minuscule) != 56:
        raise ConstructionError("the minuscule Weyl orbit is not 56 weights")
    widx = {w: k for k, w in enumerate(minuscule)}
    highest = next(w for w in minuscule if all(x >= 0 for x in w))

    # edge (mu, i): mu and mu + alpha_i both weights
    edges = []
    eidx = {}
    for w in minuscule:
        for i in range(rs.rank):
            up = tuple(w[k] + rs.cartan[i][k] for k in range(rs.rank))
            if up in widx:
                eidx[(w, i)] = len(edges)
                edges.append((w, i))

    # GF(2) sign solve: tree edges 0, orthogonal squares sum to 0
    pinned: Dict[int, int] = {}
    seen = {highest}
    frontier = [highest]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                down = tuple(w[k] - rs.cartan[i][k] for k in range(rs.rank))
                if down in widx and down not in seen:
                    seen.add(down)
                    pinned[eidx[(down, i)]] = 0
                    nxt.append(down)
        frontier = nxt
    if len(seen) != 56:
        raise ConstructionError("weight graph is not connected")

    constraints = []
    for w in minuscule:
        for i in range(rs.rank):
            for j in range(i + 1, rs.rank):
                if rs.cartan[i][j] != 0:
                    continue
                e1 = eidx.get((w, i))
                e2 = eidx.get((w, j))
                if e1 is None or e2 is None:
                    continue
                up_i = tuple(w[k] + rs.cartan[i][k] for k in range(rs.rank))
                up_j = tuple(w[k] + rs.cartan[j][k] for k in range(rs.rank))
                e3 = eidx.get((up_i, j))
                e4 = eidx.get((up_j, i))
                if e3 is None or e4 is None:
                    continue
                constraints.append((e1, e3, e2, e4))
    signs = _solve_gf2(len(edges), pinned, constraints)

    def edge_sign(w, i) -> int:
        return -1 if signs[eidx[(w, i)]] else 1

    r = rs.rank
    pos = rs.positive_roots
    dim = alg.dim
    gens: List[SparseOp] = [None] * dim
    for i in range(r):
        gens[i] = SparseOp.from_triplets(
            56, 56, [(widx[w], widx[w], w[i]) for w in minuscule if w[i]])
    simple_e = {}
    simple_f = {}
    for i in range(r):
        te, tf = [], []
        for (w, ii), k in eidx.items():
            if ii != i:
                continue
            up = tuple(w[kk] + rs.cartan[i][kk] for kk in range(r))
            s = edge_sign(w, i)
            te.append((widx[up], widx[w], s))
            tf.append((widx[w], widx[up], s))
        simple_e[i] = SparseOp.from_triplets(56, 56, te)
        simple_f[i] = SparseOp.from_triplets(56, 56, tf)

    simple_idx = {tuple(int(i == j) for j in range(r)): i for i in range(r)}
    e_mats: Dict[Tuple[int, ...], SparseOp] = {}
    f_mats: Dict[Tuple[int, ...], SparseOp] = {}
    order = rs.pos_index
    for root in pos:
        if sum(root) == 1:
            i = simple_idx[root]
            e_mats[root] = simple_e[i]
            f_mats[root] = simple_f[i]
            continue
        # extraspecial decomposition root = a + b, a minimal in root order
        a = b = None
        for p in pos:
            rest = tuple(x - y for x, y in zip(root, p))
            if min(rest) >= 0 and rs.is_root(rest) and order[p] <= order[rest]:
                a, b = p, rest
                break
        n = cc.n_pos(a, b)
        e_mats[root] = (e_mats[a] @ e_mats[b]
                        - e_mats[b] @ e_mats[a]).scaled(Fraction(1, n))
        f_mats[root] = (f_mats[b] @ f_mats[a]
                        - f_mats[a] @ f_mats[b]).scaled(Fraction(1, n))
    for k, root in enumerate(pos):
        gens[r + 2 * k] = e_mats[root]
        gens[r + 2 * k + 1] = f_mats[root]

    rep = Representation(alg, 56, gens, "defining")
    return alg, rep


def _solve_gf2(n_vars: int, pinned: Dict[int, int],
               constraints: List[Tuple[int, ...]]) -> List[int]:
    """Solve x_e1+..+x_e4 = 0 (mod 2) with some variables pinned; free
    variables default to 0 (deterministic gauge)."""
    rows = []
    for cons in constraints:
        acc: Dict[int, int] = {}
        rhs = 0
        for e in cons:
            if e in pinned:
                rhs ^= pinned[e]
            else:
                acc[e] = acc.get(e, 0) ^ 1
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            rows.append((acc, rhs))
        elif rhs:
            raise ConstructionError("inconsistent sign constraints")
    lead: Dict[int, Tuple[Dict[int, int], int]] = {}
    for acc, rhs in rows:
        acc = dict(acc)
        while acc:
            p = min(acc)
            if p in lead:
                base, brhs = lead[p]
                for k, v in base.items():
                    acc[k] = acc.get(k, 0) ^ v
                    if not acc[k]:
                        del acc[k]
                rhs ^= brhs
            else:
                lead[p] = (acc, rhs)
                break
        if not acc and rhs:
            raise ConstructionError("inconsistent sign constraints")
    out = [0] * n_vars
    for e, v in pinned.items():
        out[e] = v
    for p in sorted(lead, reverse=True):
        base, rhs = lead[p]
        val = rhs
        for k, v in base.items():
            if k != p and v:
                val ^= out[k]
        out[p] = val
    return out


def invariant_antisymmetric_form(rep: Representation) -> SparseOp:
    """The unique invariant antisymmetric bilinear form J (T^t J + J T = 0),
    normalized so that J @ J = -1."""
    n = rep.dim_module
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pidx = {p: k for k, p in enumerate(pairs)}
    row_list = []
    for t in rep.generators:
        # equations M_{kl} = 0 (k < l) for M = T^t J + J T, which is
        # antisymmetric whenever J is, so k < l is exhaustive
        eq: Dict[Tuple[int, int], Dict[int, Fraction]] = {}

        def add(k, l, a, b, coef):
            # M_{kl} += coef * J_{ab}
            if k == l or a == b or coef == 0:
                return
            sgn = 1
            if k > l:
                k, l, sgn = l, k, -1
            if a > b:
                a, b, sgn = b, a, -sgn
            row = eq.setdefault((k, l), {})
            u = pidx[(a, b)]
            row[u] = row.get(u, Fraction(0)) + sgn * coef

        for m, c, v in t.entries():
            for l in range(n):
                add(c, l, m, l, v)   # (T^t J)_{c,l} += T_mc J_ml
                add(l, c, l, m, v)   # (J T)_{l,c}  += J_lm T_mc
        for row in eq.values():
            row = {k: v for k, v in row.items() if v}
            if row:
                row_list.append(row)
    basis, _ = sparse_nullspace(row_list, len(pairs))
    if len(basis) != 1:
        raise ConstructionError(
            f"antisymmetric invariant space has dim {len(basis)}")
    vec = basis[0]
    den = math.lcm(*(v.denominator for v in vec.values()))
    trips = []
    for idx, v in vec.items():
        i, j = pairs[idx]
        trips.append((i, j, v * den))
        trips.append((j, i, -v * den))
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
