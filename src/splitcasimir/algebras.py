"""Lie algebra and representation containers plus the generic exact machinery
shared by every construction: structure constants from generator matrices,
Killing metrics and their block inverses, invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .kernel import SparseOp, combine, kron, vec_columns
from .rootdata import RootSystem, invert_fraction_matrix

# generators per block of the all-pairs commutator products
BRACKET_BLOCK = 16


class ConstructionError(Exception):
    pass


@dataclass
class LieAlgebra:
    """Structure constants C^d_{ab} as a (dim^2 x dim) sparse tensor:
    row a*dim+b, column d."""

    name: str
    series: str
    rank: int
    dim: int
    struct: SparseOp
    killing: SparseOp
    killing_inv: SparseOp
    convention: str = "natural"
    root_data: Optional[RootSystem] = None
    labels: Optional[List[str]] = None
    _ad: Optional[List[SparseOp]] = field(default=None, repr=False)

    def ad_matrices(self) -> List[SparseOp]:
        """ad(X_a)^d_b = C^d_{ab} as dim x dim operators."""
        if self._ad is None:
            t = self.struct
            mats = []
            a_of = t.row // self.dim
            b_of = t.row % self.dim
            for a in range(self.dim):
                mask = a_of == a
                mats.append(SparseOp(self.dim, self.dim, t.col[mask],
                                     b_of[mask], t.data[mask], t.scale))
            self._ad = mats
        return self._ad

    def adjoint_rep(self) -> "Representation":
        return Representation(self, self.dim, self.ad_matrices(), "adjoint")


@dataclass
class Representation:
    algebra: LieAlgebra
    dim_module: int
    generators: List[SparseOp]
    kind: str  # defining | adjoint | other
    module_metric: Optional[SparseOp] = None  # invariant bilinear form on V
    _d2: Optional[Fraction] = field(default=None, repr=False)

    def d2(self) -> Fraction:
        """Tr(T_a T_b) = d2 * killing_ab; computed and verified entrywise."""
        if self._d2 is None:
            self._d2 = _trace_form_ratio(self.generators, self.algebra.killing)
        return self._d2


# ---------------------------------------------------------------------------
# generic construction helpers
# ---------------------------------------------------------------------------

def trace_form(generators: Sequence[SparseOp]) -> SparseOp:
    """B_ab = Tr(T_a T_b) = sum_rc (T_a)_cr (T_b)_rc, that is X^T Y with
    the columns vec(T_a^t) of X and vec(T_b) of Y."""
    x = vec_columns([t.transpose() for t in generators])
    return x.transpose() @ vec_columns(generators)


def _commutator_block(x_t: SparseOp, block: Sequence[SparseOp]) -> SparseOp:
    """[T_a, T_b] for the n x n operators T_a of ``block`` and every T_b, as
    one product: entry (b, a * n^2 + r * n + c) is [T_a, T_b]_rc, with a
    counted within the block and x_t = vec_columns(all T_b)^T.

    vec([T_a, M]) = (T_a (x) 1 - 1 (x) T_a^t) vec(M); the transposes of these
    maps, side by side, come straight from the triplets of the T_a."""
    n = block[0].rows
    nn = n * n
    x = vec_columns(block)
    r, c = np.divmod(x.row, n)
    r, c, shift = r[:, None], c[:, None], (x.col * nn)[:, None]
    j = np.arange(n)
    # (T_a^t (x) 1)[(c, j), (a, r, j)] = T_a[r, c] and
    # (1 (x) T_a)[(j, r), (a, j, c)] = T_a[r, c]
    rows = np.concatenate([(c * n + j).ravel(), (j * n + r).ravel()])
    cols = np.concatenate([(shift + r * n + j).ravel(),
                           (shift + j * n + c).ravel()])
    data = np.repeat(x.data, n)
    maps = SparseOp(nn, len(block) * nn, rows, cols,
                    np.concatenate([data, -data]), x.scale)
    return x_t @ maps


def _bracket_blocks(gens: Sequence[SparseOp], x: SparseOp
                    ) -> Iterator[Tuple[int, SparseOp, SparseOp]]:
    """(lo, comm, spread) for each block of BRACKET_BLOCK generators from
    lo: comm from `_commutator_block`, and spread = 1_k (x) X^T with
    X = vec_columns(gens) = x.  Coefficients C with C[b, (a - lo) dim + d]
    = C^d_ab satisfy C @ spread == comm exactly when every
    [T_a, T_b] = C^d_ab T_d in the block."""
    x_t = x.transpose()
    for lo in range(0, len(gens), BRACKET_BLOCK):
        block = gens[lo:lo + BRACKET_BLOCK]
        yield (lo, _commutator_block(x_t, block),
               kron(SparseOp.identity(len(block)), x_t))


def structure_from_generators(gens: Sequence[SparseOp], readout: SparseOp
                              ) -> SparseOp:
    """C^d_{ab} of the matrix Lie algebra spanned by ``gens``.

    ``readout`` (dim x n^2) reads basis coefficients off vec(M); it must
    satisfy readout @ vec_columns(gens) == 1.  The coefficients of all
    commutators come from one product per block, and reconstructing the
    commutators from them is the exact check that each bracket stays in the
    span."""
    dim = len(gens)
    x = vec_columns(gens)
    if readout @ x != SparseOp.identity(dim):
        raise ConstructionError("the readout does not invert the generators")
    blocks = []
    for lo, comm, spread in _bracket_blocks(gens, x):
        width = spread.rows // dim
        coeffs = comm @ kron(SparseOp.identity(width), readout.transpose())
        if coeffs @ spread != comm:
            raise ConstructionError("a bracket left the span of the "
                                    "generators")
        a, d = np.divmod(coeffs.col, dim)
        blocks.append((1, SparseOp(dim * dim, dim, (a + lo) * dim + coeffs.row,
                                   d, coeffs.data, coeffs.scale)))
    return combine(blocks)


def killing_from_struct(struct: SparseOp, dim: int) -> SparseOp:
    """kappa_ab = Tr(ad_a ad_b) with ad(X_a)^d_b = C^d_{ab}: vec(ad_a) has
    C^d_{ab} at row d*dim + b and vec(ad_a^t) at row b*dim + d."""
    a_of, b_of = np.divmod(struct.row, dim)
    x_t = SparseOp(dim, dim * dim, a_of, b_of * dim + struct.col,
                   struct.data, struct.scale)
    y = SparseOp(dim * dim, dim, struct.col * dim + b_of, a_of, struct.data,
                 struct.scale)
    return x_t @ y


def symmetric_block_inverse(m: SparseOp) -> SparseOp:
    """Exact inverse of a symmetric matrix, blockwise over the connected
    components of its sparsity graph (Killing metrics are block-sparse)."""
    n = m.rows
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(m.row, m.col):
        ra, rb = find(int(r)), find(int(c))
        if ra != rb:
            parent[ra] = rb
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    dense = m.to_dense_fractions()
    trips = []
    for members in groups.values():
        k = len(members)
        block = [[dense[i][j] for j in members] for i in members]
        inv = invert_fraction_matrix(block)
        if inv is None:
            raise ConstructionError("metric block is singular")
        for x in range(k):
            for y in range(k):
                if inv[x][y] != 0:
                    trips.append((members[x], members[y], inv[x][y]))
    return SparseOp.from_triplets(n, n, trips)


def _trace_form_ratio(generators: Sequence[SparseOp], killing: SparseOp) -> Fraction:
    tf = trace_form(generators)
    if tf.nnz == 0 or killing.nnz == 0:
        raise ConstructionError("degenerate trace form")
    r0, c0 = int(killing.row[0]), int(killing.col[0])
    k0 = int(killing.data[0]) * killing.scale
    t0 = next((v for r, c, v in tf.entries() if (r, c) == (r0, c0)), Fraction(0))
    d2 = t0 / k0
    if tf != killing.scaled(d2):
        raise ConstructionError("Tr(T_a T_b) is not proportional to the "
                                "Killing metric")
    return d2


def algebra_from_struct(name: str, series: str, rank: int, dim: int,
                        struct: SparseOp, convention: str = "natural",
                        root_data: Optional[RootSystem] = None,
                        labels: Optional[List[str]] = None) -> LieAlgebra:
    killing = killing_from_struct(struct, dim)
    return LieAlgebra(name, series, rank, dim, struct, killing,
                      symmetric_block_inverse(killing), convention,
                      root_data, labels)


def sparse_nullspace(rows: List[Dict[int, Fraction]], n_unknowns: int
                     ) -> Tuple[List[Dict[int, Fraction]], List[int]]:
    """Exact nullspace of a sparse linear system as (basis, free_columns).

    The basis is reduced-echelon over the free columns: vector k has
    coordinate 1 at free_columns[k] and 0 at every other free column, so
    expanding a vector in this basis is reading its free coordinates.
    Rows are dicts unknown-index -> coefficient.  Every row is reduced once
    against the echelon; rows implied by earlier ones reduce to zero.
    """
    echelon: Dict[int, Dict[int, Fraction]] = {}  # pivot col -> row

    def reduce_row(row: Dict[int, Fraction]) -> Dict[int, Fraction]:
        row = dict(row)
        while row:
            piv = min(row)
            base = echelon.get(piv)
            if base is None:
                inv = Fraction(1) / row[piv]
                return {k: v * inv for k, v in row.items()}
            f = row[piv]
            for k, v in base.items():
                nv = row.get(k, Fraction(0)) - f * v
                if nv == 0:
                    row.pop(k, None)
                else:
                    row[k] = nv
        return row

    for row in rows:
        rr = reduce_row(row)
        if rr:
            echelon[min(rr)] = rr
    # back substitution to fully reduced form
    for piv in sorted(echelon, reverse=True):
        row = echelon[piv]
        for piv2, row2 in echelon.items():
            if piv2 != piv and piv in row2:
                f = row2[piv]
                for k, v in row.items():
                    nv = row2.get(k, Fraction(0)) - f * v
                    if nv == 0:
                        row2.pop(k, None)
                    else:
                        row2[k] = nv
    pivots = set(echelon)
    free = [j for j in range(n_unknowns) if j not in pivots]
    basis = []
    for j in free:
        vec = {j: Fraction(1)}
        for piv, row in echelon.items():
            if j in row:
                vec[piv] = -row[j]
        basis.append(vec)
    return basis, free


# ---------------------------------------------------------------------------
# invariant verification
# ---------------------------------------------------------------------------

def check_antisymmetry(alg: LieAlgebra) -> bool:
    t = alg.struct
    a_of = t.row // alg.dim
    b_of = t.row % alg.dim
    swapped = SparseOp(t.rows, t.cols, b_of * alg.dim + a_of, t.col,
                       t.data, t.scale)
    return (t + swapped).is_zero()


def check_jacobi(alg: LieAlgebra) -> bool:
    """Jacobi identity as ad([a,b]) = [ad a, ad b]."""
    return _check_brackets(alg, alg.ad_matrices())


def _check_brackets(alg: LieAlgebra, gens: Sequence[SparseOp]) -> bool:
    """[T_a, T_b] = C^d_{ab} T_d for the operators T = gens, exactly, for
    every ordered pair (a, b): per block of BRACKET_BLOCK generators, the
    rows a*dim + b of ``struct`` re-indexed as C[b, (a - lo) dim + d] times
    1_k (x) X^T must equal the commutators of `_commutator_block`."""
    dim, t = alg.dim, alg.struct
    for lo, comm, spread in _bracket_blocks(gens, vec_columns(gens)):
        hi = lo + spread.rows // dim
        sel = slice(*np.searchsorted(t.row, [lo * dim, hi * dim]))
        a, b = np.divmod(t.row[sel], dim)
        coeffs = SparseOp(dim, spread.rows, b, (a - lo) * dim + t.col[sel],
                          t.data[sel], t.scale)
        if coeffs @ spread != comm:
            return False
    return True


def check_killing(alg: LieAlgebra) -> bool:
    recomputed = killing_from_struct(alg.struct, alg.dim)
    if recomputed != alg.killing:
        return False
    prod = alg.killing @ alg.killing_inv
    return prod == SparseOp.identity(alg.dim)


def check_adjoint_casimir_is_identity(alg: LieAlgebra) -> bool:
    """kappa^{ab} ad_a ad_b = 1, equivalent to c2(adjoint) = 1, as one
    product: with ad_a[d, b] = C^d_{ab}, the ad matrices side by side are
    struct^T (column a*dim + b), and stacked they are V[b*dim + s, c] =
    C^s_{bc}, so the sum is struct^T (kappa^-1 (x) 1) V."""
    dim, t = alg.dim, alg.struct
    b, c = np.divmod(t.row, dim)
    stacked = SparseOp(dim * dim, dim, b * dim + t.col, c, t.data, t.scale)
    total = (t.transpose() @ kron(alg.killing_inv, SparseOp.identity(dim))
             @ stacked)
    return total == SparseOp.identity(dim)


def check_representation(rep: Representation) -> bool:
    """[T_a, T_b] = C^d_{ab} T_d for the representation's generators."""
    return _check_brackets(rep.algebra, rep.generators)


# ---------------------------------------------------------------------------
# rational squares
# ---------------------------------------------------------------------------

def _is_rational_square(f: Fraction) -> Optional[Fraction]:
    if f <= 0:
        return None
    import math
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None
