"""Split Casimir operators on tensor squares, their symmetric and
antisymmetric parts, the per-algebra invariant operator sets, and the trace
suite.

Two realizations coexist.  Generic representations give Chat = kappa^{ab}
T_a (x) T_b on V (x) V as one sparse product X kappa^-1 Y^T over the
columns X = vec(T1_a) and Y = vec(T2_b), realigned to V (x) V (for
defining representations of the exceptional algebras the operator is
divided by d2, matching the convention in which their characteristic
identities are stated).  For sl/so/sp adjoints the operator is realized on
V_N^(x4) with the subspace projector playing the unit, which keeps the
Kronecker structure of P_13, K_23 etc.  Every split Casimir carries a row
basis of its unit (``SplitCasimir.basis``), the one form in which a unit
is passed: ``RowBasis.identity`` for the identity, and for a projector
its representative rows, on which every product whose left factor lies
in the unit's image runs before it is expanded.  Both realizations carry
the coordinate involution sigma behind the swap, P = sigma unit, whose
eigenspace blocks (``SwapBlock``) carry C+ and C-.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebras import LieAlgebra, Representation, symmetric_block_inverse
from .classical import _metric_c, build_classical
from .kernel import (
    KernelError,
    ScalarLike,
    SparseOp,
    Vec,
    combine,
    compress,
    expand,
    kron,
    permutes_to,
    trace_word,
    vec_columns,
)
from .rootdata import RootSystem, series_rank


class CasimirError(Exception):
    pass


class RowBasisError(CasimirError):
    """A fact a row basis rests on fails; ``witness`` is [row, col] of an
    entry where it fails."""

    def __init__(self, detail: str, witness: list):
        super().__init__(f"{detail} at {witness}")
        self.detail = detail
        self.witness = witness


def _first_difference(a: SparseOp, b: SparseOp) -> Optional[list]:
    """None if a == b (same shape); else [row, col] of an entry where they
    differ."""
    if a == b:
        return None
    diff = a - b
    return [int(diff.row[0]), int(diff.col[0])]


@dataclass(eq=False)
class RowBasis:
    """Representative rows of a projector ``unit`` and their integer
    expansion: the one way a unit is passed.

    S selects the coordinates ``rows`` and B = ``expansion`` (n x len(rows))
    writes every row of the unit's image in terms of them.  ``head``
    proves three facts exactly: S B = 1, B (S unit) = unit and unit B = B.
    Then X = B (S X) holds exactly when unit X = X, and for such an X,
    X @ Y = B ((S X) @ Y): a product whose left factor lies in the image
    runs on len(rows) rows and is expanded (``kernel.expand``), and B is
    injective.  Vectors of the image are B a for a = S unit v
    (``restrict``), and x acts on them as (S x) B acts on a
    (``compress``): the randomized checks run there.  The facts are
    checked on first use and remembered.

    ``RowBasis.identity(n)`` is the basis of the identity (S = B = 1), whose
    facts hold by construction: its methods return their argument, or op
    itself, without building, copying or comparing anything.
    """

    unit: SparseOp
    rows: Optional[np.ndarray]
    expansion: SparseOp
    _head: Optional[SparseOp] = field(default=None, init=False, repr=False)

    @staticmethod
    def identity(n: int) -> "RowBasis":
        """The basis of the identity on n coordinates."""
        return _IdentityBasis(SparseOp.identity(n))

    @staticmethod
    def of_pairs(unit: SparseOp, pair_rows: np.ndarray,
                 pair_expansion: SparseOp) -> "RowBasis":
        """The basis of a unit on V^2 (x) V^2 that is the product of one
        projector on each site pair, from the basis (S_2, B_2) of that
        projector: rows (r1, r2) for representatives r1, r2 and
        B = kron(B_2, B_2)."""
        d = pair_expansion.rows
        rows = (pair_rows[:, None] * d + pair_rows[None, :]).ravel()
        return RowBasis(unit, rows, kron(pair_expansion, pair_expansion))

    def select(self, x: SparseOp) -> SparseOp:
        """S x: the representative rows of x."""
        return compress(x, self.rows, np.arange(x.cols, dtype=np.int64),
                        None, x.cols)

    def expand(self, m: SparseOp) -> SparseOp:
        """B m."""
        return expand(self.expansion, m)

    @property
    def head(self) -> SparseOp:
        """S unit, once the facts hold (RowBasisError otherwise)."""
        if self._head is None:
            self._head = self._checked_head()
        return self._head

    def _checked_head(self) -> SparseOp:
        b, m = self.expansion, self.expansion.cols
        k = min(len(self.rows), m)
        idx = np.arange(k, dtype=np.int64)
        eye = SparseOp(len(self.rows), m, idx, idx,
                       np.ones(k, dtype=np.int64), _canonical=True)
        where = _first_difference(self.select(b), eye)
        if where is None and len(self.rows) != m:
            where = [k, k]
        if where is not None:
            raise RowBasisError("S B != 1", where)
        # unit B = B, transposed so the product runs on the len(rows) rows
        # of B^T
        bt = b.transpose()
        where = _first_difference(bt @ self.unit.transpose(), bt)
        if where is not None:
            raise RowBasisError("unit B != B", where[::-1])
        head = self.select(self.unit)
        where = _first_difference(self.expand(head), self.unit)
        if where is not None:
            raise RowBasisError("B S unit != unit", where)
        return head

    def image_mismatch(self, x: SparseOp) -> Tuple[SparseOp, Optional[list]]:
        """(S x, witness): the witness is None when x == B (S x), that is
        unit x = x, and else [row, col] of an entry where they differ."""
        self.head
        sx = self.select(x)
        return sx, _first_difference(self.expand(sx), x)

    def lift(self, x: SparseOp, name: str = "X") -> SparseOp:
        """S x, once x == B (S x) holds (RowBasisError naming ``name``
        otherwise)."""
        sx, where = self.image_mismatch(x)
        if where is not None:
            raise RowBasisError(f"{name} is not in the unit's image", where)
        return sx

    def compress(self, x: SparseOp, name: str = "X") -> SparseOp:
        """(S x) B, the operator an x in the unit's image induces on the
        image in the coordinates of the representative rows, once
        x == B (S x) holds (RowBasisError naming ``name`` otherwise, as in
        ``lift``).  Then x B = B ((S x) B), and B is injective, so a
        statement about x on the image holds exactly when it holds for
        (S x) B on the rows: x u = w for u = B a and w = B c exactly when
        ((S x) B) a = c."""
        return self.lift(x, name) @ self.expansion

    def matmul(self, x: SparseOp, y: SparseOp, name: str = "X") -> SparseOp:
        """x @ y as B ((S x) @ y), for an x in the unit's image."""
        return self.expand(self.lift(x, name) @ y)

    def powers(self, x: SparseOp, top: int) -> List[SparseOp]:
        """[x^2, ..., x^top] for an x in the unit's image: x is checked
        once and each power is B ((S x^(k-1)) @ x), the rows
        S x^k = (S x^(k-1)) x running from S x."""
        rows = self.lift(x)
        out = []
        for _ in range(top - 1):
            rows = rows @ x
            out.append(self.expand(rows))
        return out

    def chain(self, op: SparseOp) -> Tuple[SparseOp, SparseOp]:
        """(S unit, (S unit) @ op), the start of a chain that builds
        polynomials p(op) unit as B sum_k p_k (S unit) op^k, once its
        premises hold exactly: op lies in the unit's image, op == B (S op)
        (one pass; RowBasisError with a witness otherwise), and commutes
        with the unit, checked on the rows as (S op) @ unit ==
        (S unit) @ op (KernelError with a witness otherwise).  Then
        S (p(op) unit) = (S unit) p(op), and B restores the other rows."""
        head = self.head
        first = head @ op
        where = _first_difference(self.lift(op, "op") @ self.unit, first)
        if where is not None:
            raise KernelError(f"unit does not commute with op at {where}")
        return head, first

    def project(self, v: Vec) -> Vec:
        """unit v."""
        return self.unit.matvec(v)

    def restrict(self, v: Vec) -> Vec:
        """S unit v = (S unit) v, the representative rows of unit v (which
        is B times them), in one matvec on len(rows) rows."""
        return self.head.matvec(v)

    def shift(self, block: SwapBlock) -> Optional[SparseOp]:
        """The unit's block S unit B, the shift of
        ``kernel.apply_poly_factors`` for vectors in ``block`` coordinates;
        None for the identity, whose matvecs the loop skips."""
        return block.compress(self.unit)


class _IdentityBasis(RowBasis):
    """The basis of an identity ``unit``: S = B = 1 (``rows`` is None), and
    every operator lies in the image and commutes with the unit."""

    def __init__(self, unit: SparseOp):
        super().__init__(unit, None, unit)

    @property
    def head(self) -> SparseOp:
        return self.unit

    def select(self, x: SparseOp) -> SparseOp:
        return x

    def expand(self, m: SparseOp) -> SparseOp:
        return m

    def image_mismatch(self, x: SparseOp) -> Tuple[SparseOp, Optional[list]]:
        return x, None

    def chain(self, op: SparseOp) -> Tuple[SparseOp, SparseOp]:
        return self.unit, op

    def compress(self, x: SparseOp, name: str = "X") -> SparseOp:
        return x

    def project(self, v: Vec) -> Vec:
        return v

    def restrict(self, v: Vec) -> Vec:
        return v

    def shift(self, block: SwapBlock) -> Optional[SparseOp]:
        return None


def product_of_shifts(op: SparseOp, roots: Sequence[ScalarLike],
                      unit: RowBasis) -> SparseOp:
    """Materialize prod_i (op - r_i * unit) * unit for the unit of a row
    basis.  The first root acts first, as in ``kernel.apply_poly_factors``,
    so column j is that function's image of ``unit`` e_j.

    ``RowBasis.chain`` checks the premises (op in the unit's image and
    commuting with it).  Every partial product is then a polynomial in op
    times unit, so a shift needs no product, and the chain
    M <- M @ op - r M runs on the representative rows from the chain's
    start; the basis expands the result."""
    acc, first = unit.chain(op)
    for k, r in enumerate(roots):
        acc = combine([(1, first if k == 0 else acc @ op), (-r, acc)])
    return unit.expand(acc)


def pair_basis(kind: str, n: int) -> Tuple[np.ndarray, SparseOp]:
    """Representatives S_2 and expansion B_2 of the projector of one site
    pair (i, j) of V_N (x) V_N, coordinate i N + j: for "so" the
    antisymmetric part (representatives i < j; row (j, i) is -1 times row
    (i, j), and the diagonal rows vanish), for "sp" the symmetric part
    (i <= j; row (j, i) equals row (i, j)), for "sl" the traceless part
    (every (i, j) but (N-1, N-1), whose row is -1 times the sum of the
    other diagonal rows)."""
    i, j = np.divmod(np.arange(n * n, dtype=np.int64), n)
    if kind == "sl":
        reps = np.flatnonzero((i != n - 1) | (j != n - 1))
    else:
        reps = np.flatnonzero(i < j if kind == "so" else i <= j)
    col = np.arange(len(reps), dtype=np.int64)
    ri, rj = i[reps], j[reps]
    rows, cols, data = [reps], [col], [np.ones(len(reps), dtype=np.int64)]
    if kind == "sl":
        diag = ri == rj
        rows.append(np.full(int(diag.sum()), n * n - 1, dtype=np.int64))
        cols.append(col[diag])
        data.append(-np.ones(int(diag.sum()), dtype=np.int64))
    else:
        off = ri != rj
        rows.append(rj[off] * n + ri[off])
        cols.append(col[off])
        data.append(np.full(int(off.sum()), -1 if kind == "so" else 1,
                            dtype=np.int64))
    return reps, SparseOp(n * n, len(reps), np.concatenate(rows),
                          np.concatenate(cols), np.concatenate(data))


@dataclass
class SplitCasimir:
    """Split Casimir operator with the structural operators of its ambient
    space: ``row_basis`` is the row basis of ``unit``, the identity of the
    (sub)space the operator lives on; ``swap`` the adjoint-space
    permutation P used to split it, and ``sigma`` the coordinate involution
    behind it, P = sigma unit, as an index array: (sigma w)[i] = w[sigma[i]]."""

    operator: SparseOp
    rep_pair: Tuple[Representation, Representation]
    convention: str  # killing | d2_normalized
    row_basis: RowBasis
    swap: Optional[SparseOp] = None
    sigma: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)
    _parts: Optional[Tuple[SparseOp, SparseOp]] = field(default=None, repr=False)
    # outcome of the sign-independent facts of ``swap_block``: None until
    # they are checked, then () if they hold, else (detail, witness)
    _swap_fault: Optional[tuple] = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.rep_pair[0].algebra

    @property
    def unit(self) -> SparseOp:
        return self.row_basis.unit

    def basis(self) -> RowBasis:
        """The row basis of the unit: ``RowBasis.of_pairs`` on the V^(x4)
        realisations (facts checked on first use), ``RowBasis.identity``
        elsewhere.  Pass it where a unit goes."""
        return self.row_basis

    def parts(self) -> Tuple[SparseOp, SparseOp]:
        """(C_plus, C_minus) = (1/2)(1 +- P) Chat, with P Chat formed on
        the unit's representative rows (``RowBasis.matmul``)."""
        if self._parts is None:
            if self.swap is None:
                raise CasimirError("no permutation operator: rep1 != rep2")
            pc = self.basis().matmul(self.swap, self.operator, "P")
            half = Fraction(1, 2)
            self._parts = ((self.operator + pc).scaled(half),
                           (self.operator - pc).scaled(half))
        return self._parts


def weighted_kron_sum(coeffs: SparseOp, left: Sequence[SparseOp],
                      right: Sequence[SparseOp]) -> SparseOp:
    """sum_ab coeffs[a, b] * kron(left[a], right[b]) as one product.

    With X = vec_columns(left) and Y = vec_columns(right), entry
    (i1 c1 + j1, i2 c2 + j2) of M = X coeffs Y^T is entry
    (i1 r2 + i2, j1 c2 + j2) of the sum, for left operators of shape
    (r1, c1) and right ones of shape (r2, c2); the result realigns M.

    M is sorted by (i1, j1, i2, j2), so within each output row (i1, i2) its
    entries already run in output-column order, and one stable sort of the
    output rows orders the result.  M is reduced and zero-free, and the
    realignment is a bijection, so the result needs no normalising.
    """
    x = vec_columns(left)
    y = x if right is left else vec_columns(right)
    m = x @ coeffs @ y.transpose()
    r1, c1 = left[0].rows, left[0].cols
    r2, c2 = right[0].rows, right[0].cols
    data, scale = m.data, m.scale
    row = m.row // c1
    row *= r2
    row += m.col // c2
    col = m.row % c1
    col *= c2
    col += m.col % c2
    # free M's index arrays before the sort
    del m
    order = np.argsort(row, kind="stable")
    row = row[order]
    col = col[order]
    data = data[order]
    return SparseOp(r1 * r2, c1 * c2, row, col, data, scale, _canonical=True)


def swap_permutation(d: int) -> np.ndarray:
    """The swap of V_d (x) V_d as an index array: entry i d + j is j d + i."""
    i, j = np.divmod(np.arange(d * d, dtype=np.int64), d)
    return j * d + i


def swap_operator(d: int) -> SparseOp:
    return SparseOp(d * d, d * d, np.arange(d * d, dtype=np.int64),
                    swap_permutation(d), np.ones(d * d, dtype=np.int64),
                    _canonical=True)


class SwapBlockError(CasimirError):
    """A fact a swap block rests on fails; ``witness`` says where."""

    def __init__(self, detail: str, witness: list):
        super().__init__(detail)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class SwapBlock:
    """The sign eigenspace of a coordinate involution sigma of C^dim, in
    the basis of its orbits.

    ``reps`` are the orbit representatives x (ascending, x <= sigma x) and
    ``partner`` their images sigma x; the + block keeps the fixed points,
    the - block drops them.  B has the columns e_x + sign e_{sigma x} (e_x
    at a fixed point) and S selects the representatives, so S B = 1 and
    B S w = w whenever sigma w = sign w.  An operator X that commutes with
    sigma keeps the eigenspace, and there X B = B (S X B): the block
    S X B carries X on it exactly, and B is injective.
    """

    sign: int
    reps: np.ndarray
    partner: np.ndarray
    dim: int

    def restrict(self, v: Vec) -> Vec:
        """S Pi v with Pi = (1 + sign sigma) / 2, the block coordinates of
        the part of v in the eigenspace: (v_x + sign v_{sigma x}) / 2."""
        x = Vec(v.data[self.reps], v.scale)
        y = Vec(v.data[self.partner], v.scale)
        return (x + y if self.sign > 0 else x - y).scaled(Fraction(1, 2))

    def compress(self, op: SparseOp) -> SparseOp:
        """S op B, built in row chunks (``kernel.compress``)."""
        m = len(self.reps)
        target = np.full(self.dim, -1, dtype=np.int64)
        target[self.partner] = np.arange(m)
        target[self.reps] = np.arange(m)
        coef = None
        if self.sign < 0:
            coef = np.ones(self.dim, dtype=np.int64)
            coef[self.partner] = -1
        return compress(op, self.reps, target, coef, m)


def _permuted_mismatch(op: SparseOp, target: SparseOp,
                       row_perm: Optional[np.ndarray],
                       col_perm: Optional[np.ndarray]) -> Optional[list]:
    """None if op with its rows and columns renumbered by the given
    permutations of the coordinates (``kernel.permutes_to``) equals
    ``target``; else [row, col] of an entry where they differ."""
    idx = np.arange(op.rows, dtype=np.int64)
    rows = idx if row_perm is None else row_perm
    cols = idx if col_perm is None else col_perm
    if permutes_to(op, rows, cols, target):
        return None
    diff = compress(op, rows, cols, None, op.cols) - target
    return [int(diff.row[0]), int(diff.col[0])]


def swap_block(sc: SplitCasimir, sign: int,
               big_k: Optional[SparseOp] = None) -> SwapBlock:
    """The ``sign`` block of ``sc.sigma``, once these facts hold exactly:
    sigma is an involution of the coordinates; sigma unit = unit sigma =
    swap; sigma Chat sigma = Chat; unit Chat = Chat; and, when ``big_k`` is
    given, sigma K = K = K sigma.  Then C_sign = (1/2)(1 + sign P) Chat =
    Chat Pi acts on the block as S Chat B and vanishes on the other one,
    the unit keeps both blocks, and K vanishes on the - block.

    The facts that read neither the sign nor K are checked once per split
    Casimir, and only their outcome is kept.  Raises SwapBlockError naming
    the first fact that fails and where.
    """
    s = sc.sigma
    if s is None:
        raise CasimirError("no permutation operator: rep1 != rep2")
    if sc._swap_fault is None:
        try:
            _check_swap_facts(sc)
            sc._swap_fault = ()
        except SwapBlockError as err:
            sc._swap_fault = (str(err), err.witness)
    if sc._swap_fault:
        raise SwapBlockError(*sc._swap_fault)
    if big_k is not None:
        for detail, row_perm, col_perm in (("sigma K != K", s, None),
                                           ("K sigma != K", None, s)):
            where = _permuted_mismatch(big_k, big_k, row_perm, col_perm)
            if where is not None:
                raise SwapBlockError(detail, where)
    idx = np.arange(len(s))
    reps = np.flatnonzero(idx <= s if sign > 0 else idx < s)
    return SwapBlock(sign, reps, s[reps], len(s))


def _check_swap_facts(sc: SplitCasimir) -> None:
    """The facts of ``swap_block`` that read neither the sign nor K;
    raises SwapBlockError."""
    s = sc.sigma
    n = sc.operator.rows
    if len(s) != n:
        raise SwapBlockError(f"sigma permutes {len(s)} coordinates, "
                             f"not {n}", [len(s)])
    outside = np.flatnonzero((s < 0) | (s >= n))
    if len(outside):
        raise SwapBlockError("sigma leaves the coordinates", [int(outside[0])])
    moved = np.flatnonzero(s[s] != np.arange(n))
    if len(moved):
        raise SwapBlockError("sigma is not an involution", [int(moved[0])])
    checks = [("sigma unit != P", sc.unit, sc.swap, s, None),
              ("unit sigma != P", sc.unit, sc.swap, None, s),
              ("sigma Chat sigma != Chat", sc.operator, sc.operator, s, s)]
    for detail, op, target, row_perm, col_perm in checks:
        where = _permuted_mismatch(op, target, row_perm, col_perm)
        if where is not None:
            raise SwapBlockError(detail, where)
    # unit Chat = Chat iff Chat == B (S Chat)
    _, where = sc.basis().image_mismatch(sc.operator)
    if where is not None:
        raise SwapBlockError("unit Chat != Chat", where)


_EXCEPTIONAL_SERIES = ("G", "F", "E")


def split_casimir(rep1: Representation, rep2: Representation) -> SplitCasimir:
    """Chat = kappa^{ab} T1_a (x) T2_b, one ``weighted_kron_sum``.

    Non-adjoint representations of exceptional algebras are divided by d2
    (the normalization their characteristic identities are stated in);
    everything else keeps the Killing-metric operator, whose adjoint value
    is c2 = 1.  ``SplitCasimir.convention`` records which.
    """
    if rep1.algebra is not rep2.algebra:
        if rep1.algebra.name != rep2.algebra.name:
            raise CasimirError("representations of different algebras")
    alg = rep1.algebra
    op = weighted_kron_sum(alg.killing_inv, rep1.generators, rep2.generators)
    convention = "killing"
    if (alg.series in _EXCEPTIONAL_SERIES and rep1.kind != "adjoint"
            and rep2.kind != "adjoint"):
        convention = "d2_normalized"
        op = op.scaled(Fraction(1) / rep1.d2())
    d1, d2m = rep1.dim_module, rep2.dim_module
    unit = RowBasis.identity(d1 * d2m)
    if d1 != d2m:
        return SplitCasimir(op, (rep1, rep2), convention, unit)
    return SplitCasimir(op, (rep1, rep2), convention, unit, swap_operator(d1),
                        swap_permutation(d1))


def split_parts(c: SplitCasimir) -> Tuple[SparseOp, SparseOp]:
    return c.parts()


def adjoint_split_casimir(alg: LieAlgebra) -> SplitCasimir:
    """Adjoint Chat assembled directly from structure constants."""
    rep = alg.adjoint_rep()
    return split_casimir(rep, rep)


# ---------------------------------------------------------------------------
# multi-site toolbox on V^(x n)
# ---------------------------------------------------------------------------

def two_site(op2: SparseOp, a: int, b: int, n_sites: int, d: int) -> SparseOp:
    """Embed a two-site operator so it acts on factors (a, b) of V^(x n)."""
    strides = [d ** (n_sites - 1 - k) for k in range(n_sites)]
    # offset of every index of the other sites
    extra = np.zeros(1, dtype=np.int64)
    for k in range(n_sites):
        if k not in (a, b):
            extra = (extra[:, None] + np.arange(d) * strides[k]).ravel()
    i1, i2 = np.divmod(op2.row, d)
    j1, j2 = np.divmod(op2.col, d)
    base_r = i1 * strides[a] + i2 * strides[b]
    base_c = j1 * strides[a] + j2 * strides[b]
    return SparseOp(d ** n_sites, d ** n_sites,
                    (base_r[:, None] + extra[None, :]).ravel(),
                    (base_c[:, None] + extra[None, :]).ravel(),
                    np.repeat(op2.data, len(extra)), op2.scale)


def perm_two_site(a: int, b: int, n_sites: int, d: int) -> SparseOp:
    return two_site(swap_operator(d), a, b, n_sites, d)


def k_two_site(a: int, b: int, n_sites: int, d: int,
               metric: Optional[SparseOp] = None) -> SparseOp:
    """K_ab with components cbar^{i_a i_b} c_{j_a j_b} (delta metric default)."""
    if metric is None:
        ident = SparseOp.identity(d)
        k2 = _outer_vec(ident, ident)
    else:
        k2 = _outer_vec(symmetric_block_inverse(metric), metric)
    return two_site(k2, a, b, n_sites, d)


# ---------------------------------------------------------------------------
# sl(N) and so/sp adjoint realizations on V^(x4)
# ---------------------------------------------------------------------------

@dataclass
class TensorAdjoint:
    """Adjoint-representation operators realized inside V_N^(x4)."""

    casimir: SplitCasimir
    ops: Dict[str, SparseOp]  # unit, swap, K, plus building blocks


def sl_adjoint_tensor(n: int) -> TensorAdjoint:
    """sl(N) adjoint on the traceless subspace Ibar (V_N (x) V_N)."""
    if n < 2:
        raise CasimirError("sl(N) needs N >= 2")
    d = n
    p13 = perm_two_site(0, 2, 4, d)
    p24 = perm_two_site(1, 3, 4, d)
    k12 = k_two_site(0, 1, 4, d)
    k13 = k_two_site(0, 2, 4, d)
    k14 = k_two_site(0, 3, 4, d)
    k23 = k_two_site(1, 2, 4, d)
    k24 = k_two_site(1, 3, 4, d)
    k34 = k_two_site(2, 3, 4, d)
    ident = SparseOp.identity(d ** 4)
    ibar12 = ident - k12.scaled(Fraction(1, n))
    ibar34 = ident - k34.scaled(Fraction(1, n))
    unit = ibar12 @ ibar34
    raw = (p13 + p24 - k14 - k23).scaled(Fraction(1, 2 * n))
    cas = unit @ raw @ unit
    big_p = unit @ (p13 @ p24) @ unit
    # K = g^{i1 i2, i3 i4} g_{j1 j2, j3 j4} over the pair metrics
    big_k = (k23 @ k14
             - (p24 @ k12 @ k34).scaled(Fraction(1, n))
             - (p13 @ k23 @ k14).scaled(Fraction(1, n))
             + (k12 @ k34).scaled(Fraction(1, n * n)))
    _, rep = build_classical(*series_rank("sl", n))
    adj = rep.algebra.adjoint_rep()
    # P13 P24 swaps the site pairs (12) and (34): the swap of V_N^2 (x) V_N^2
    sc = SplitCasimir(cas, (adj, adj), "killing",
                      RowBasis.of_pairs(unit, *pair_basis("sl", n)), big_p,
                      swap_permutation(n * n))
    ops = {"I": unit, "P": big_p, "K": big_k, "P13": p13, "P24": p24,
           "K12": k12, "K13": k13, "K14": k14, "K23": k23, "K24": k24,
           "K34": k34}
    return TensorAdjoint(sc, ops)


def sosp_adjoint_tensor(n: int, eps: int) -> TensorAdjoint:
    """so(N) (eps=+1) / sp(N) (eps=-1) adjoint inside V_N^(x4)."""
    d = n
    metric = _metric_c(n, eps)
    p12 = perm_two_site(0, 1, 4, d)
    p34 = perm_two_site(2, 3, 4, d)
    p13 = perm_two_site(0, 2, 4, d)
    p24 = perm_two_site(1, 3, 4, d)
    k13 = k_two_site(0, 2, 4, d, metric=metric)
    k24 = k_two_site(1, 3, 4, d, metric=metric)
    ident = SparseOp.identity(d ** 4)
    half = Fraction(1, 2)
    proj12 = (ident - p12.scaled(eps)).scaled(half)
    proj34 = (ident - p34.scaled(eps)).scaled(half)
    unit = proj12 @ proj34
    cas = (unit @ (p13 - k13.scaled(eps)) @ unit).scaled(
        Fraction(2, n - 2 * eps))
    big_p = unit @ (p13 @ p24) @ unit
    big_k = unit @ (k13 @ k24) @ unit
    kind = "so" if eps == 1 else "sp"
    _, rep = build_classical(*series_rank(kind, n))
    adj = rep.algebra.adjoint_rep()
    sc = SplitCasimir(cas, (adj, adj), "killing",
                      RowBasis.of_pairs(unit, *pair_basis(kind, n)), big_p,
                      swap_permutation(n * n))
    ops = {"I": unit, "P": big_p, "K": big_k, "P13": p13, "P24": p24,
           "K13": k13, "K24": k24}
    return TensorAdjoint(sc, ops)


def q_minus(n: int) -> SparseOp:
    """The extra sl(N) invariant on the adjoint tensor square,
    (1/2)(P_13 - P_24)(1 - (K_12 + K_14 + K_23 + K_34)/N), sandwiched into
    the traceless subspace."""
    if n < 4:
        raise CasimirError("Q_minus needs N >= 4 (X_2 splits only there)")
    ta = sl_adjoint_tensor(n)
    o = ta.ops
    ident = SparseOp.identity(n ** 4)
    inner = ident - (o["K12"] + o["K14"] + o["K23"] + o["K34"]).scaled(
        Fraction(1, n))
    raw = ((o["P13"] - o["P24"]) @ inner).scaled(Fraction(1, 2))
    return o["I"] @ raw @ o["I"]


def antisymmetrizer_4(d: int) -> SparseOp:
    """Rank-4 antisymmetrizer A_4 on V_d^(x4)."""
    perms = np.array(list(itertools.permutations(range(4))), dtype=np.int64)
    strides = np.array([d ** 3, d ** 2, d, 1], dtype=np.int64)
    # digits[k] is index k of every column, in column order
    digits = np.indices((d,) * 4, dtype=np.int64).reshape(4, -1)
    rows = np.einsum("k,pkc->pc", strides, digits[perms])
    cols = np.broadcast_to(np.arange(d ** 4, dtype=np.int64), rows.shape)
    return SparseOp(d ** 4, d ** 4, rows.ravel(), cols.ravel(),
                    np.repeat(_perm_sign(perms), d ** 4), Fraction(1, 24))


def _perm_sign(perms: np.ndarray) -> np.ndarray:
    """Signs of the permutations in the rows of ``perms``, by the parity of
    their inversions."""
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1)
    return 1 - 2 * (inversions.sum(axis=(1, 2)) % 2)


def e4_operator() -> SparseOp:
    """so(8) self-duality operator: (E_4)^{i1..i4}_{j1..j4} =
    (1/4!) eps^{i1..i4 j1..j4} on V_8^(x4)."""
    perms = np.array(list(itertools.permutations(range(8))), dtype=np.int64)
    strides = np.array([8 ** 3, 8 ** 2, 8, 1], dtype=np.int64)
    return SparseOp(8 ** 4, 8 ** 4, perms[:, :4] @ strides,
                    perms[:, 4:] @ strides, _perm_sign(perms), Fraction(1, 24))


# ---------------------------------------------------------------------------
# per-representation invariant operator sets
# ---------------------------------------------------------------------------

def invariant_set(rep: Representation) -> Dict[str, SparseOp]:
    """Named invariant operators on V (x) V for one representation.

    Always I and P; K whenever the module (or the algebra, for adjoints)
    carries an invariant symmetric metric; F for g2 and D, F for f4 (the
    squares of the invariant 3-form and of the cubic, `_cubic_square`, and
    the square of the generators); J and P1 (the singlet projector from
    the symplectic form) for e7.  The exceptional tensors come from
    `exceptional.invariant_tensor` on the module's weight basis.
    """
    alg = rep.algebra
    d = rep.dim_module
    out = {"I": SparseOp.identity(d * d), "P": swap_operator(d)}
    if rep.kind == "adjoint":
        out["K"] = _outer_vec(alg.killing_inv, alg.killing)
        return out
    if rep.module_metric is not None:
        ginv = symmetric_block_inverse(rep.module_metric)
        out["K"] = _outer_vec(ginv, rep.module_metric)
    if alg.name == "g2":
        out["F"] = _cubic_square(rep, ginv, -1, Fraction(6))
    if alg.name == "f4":
        out["D"] = _cubic_square(rep, ginv, 1, Fraction(56, 3))
        out["F"] = _t_squared_operator(rep, ginv)
    if alg.name == "e7":
        # J @ J = -1, so J^-1 = -J and P1 = (1/56) vec(J) vec(J)^T
        from .exceptional import invariant_antisymmetric_form
        j = invariant_antisymmetric_form(rep)
        out["J"] = j
        out["P1"] = _outer_vec(j, j).scaled(Fraction(1, 56))
    return out


def _outer_vec(m_up: SparseOp, m_down: SparseOp) -> SparseOp:
    """vec(m_up) vec(m_down)^T."""
    return vec_columns([m_up]) @ vec_columns([m_down]).transpose()


def _cubic_square(rep: Representation, ginv: SparseOp, sign: int,
                  norm: Fraction) -> SparseOp:
    """(X)^{i1i2}_{j1j2} = c t^{i1i2m} t_{mj1j2} for the invariant 3-tensor
    t of the module (symmetric for sign 1, antisymmetric for -1), indices
    raised with the module metric g (inverse ``ginv``):
    c (g^-1 (x) g^-1) T g^-1 T^t with
    T = t_ijm as an n^2 x n operator (t_ijm = t_mij).  c is fixed by
    c t_{abm} t^{ab}_l = norm g_ml, which leaves X free of the scales of t
    and g; its trace is norm * n."""
    from .exceptional import invariant_tensor
    g = rep.module_metric
    t = invariant_tensor(rep, 3, sign)
    raised = kron(ginv, ginv) @ t
    square = t.transpose() @ raised
    c = norm * rep.dim_module / (ginv @ square).trace()
    if square.scaled(c) != g.scaled(norm):
        raise CasimirError("t.t is not proportional to the module metric")
    return (raised @ ginv @ t.transpose()).scaled(c)


def _t_squared_operator(rep: Representation, ginv: SparseOp) -> SparseOp:
    """(F)^{i1i2}_{j1j2} = T_a^{i1i2} T_{a j1j2} in invariant form:
    -(1/d2) kappa^{ab} (T_a gbar)^{i1i2} (g T_b)_{j1j2}, that is
    -(1/d2) R kappa^-1 L^T with the columns vec(T_a gbar) of R and
    vec(g T_b) of L, gbar = ``ginv`` the inverse module metric."""
    g = rep.module_metric
    raised = vec_columns([t @ ginv for t in rep.generators])
    lowered = vec_columns([g @ t for t in rep.generators])
    return (raised @ rep.algebra.killing_inv @ lowered.transpose()).scaled(
        Fraction(-1) / rep.d2())


# ---------------------------------------------------------------------------
# eigenvalue prediction and the trace suite
# ---------------------------------------------------------------------------

def casimir_eigenvalue(rs: RootSystem, lam: Sequence[int],
                       lam1: Sequence[int], lam2: Sequence[int]) -> Fraction:
    """Predicted Chat eigenvalue on the lambda component of
    T_{lambda1} (x) T_{lambda2}: (c2(lam) - c2(lam1) - c2(lam2)) / 2."""
    return (rs.casimir_c2(tuple(lam)) - rs.casimir_c2(tuple(lam1))
            - rs.casimir_c2(tuple(lam2))) / 2


def trace_suite(sc: SplitCasimir, big_k: Optional[SparseOp] = None) -> Dict:
    """All adjoint trace identities, computed and compared exactly."""
    dim_g = sc.algebra.dim
    c = sc.operator
    cp, cm = sc.parts()
    unit, swap = sc.unit, sc.swap
    observed = {
        "Tr(C)": trace_word([c]),
        "Tr(C^2)": trace_word([c, c]),
        "Tr(C+)": trace_word([cp]),
        "Tr(C-)": trace_word([cm]),
        "Tr(C+^2)": trace_word([cp, cp]),
        "Tr(C-^2)": trace_word([cm, cm]),
        "Tr(P)": trace_word([swap]),
        "Tr(I)": trace_word([unit]),
    }
    if big_k is not None:
        observed["Tr(K)"] = trace_word([big_k])
    expected = {
        "Tr(C)": Fraction(0),
        "Tr(C^2)": Fraction(dim_g),
        "Tr(C+)": Fraction(dim_g, 2),
        "Tr(C-)": Fraction(-dim_g, 2),
        "Tr(C+^2)": Fraction(3 * dim_g, 4),
        "Tr(C-^2)": Fraction(dim_g, 4),
        "Tr(P)": Fraction(dim_g),
        "Tr(I)": Fraction(dim_g * dim_g),
    }
    if big_k is not None:
        expected["Tr(K)"] = Fraction(dim_g)
    status = {k: observed[k] == expected[k] for k in observed}
    return {"observed": observed, "expected": expected, "status": status,
            "all_pass": all(status.values())}
