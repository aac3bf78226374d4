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
Kronecker structure of P_13, K_23 etc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .algebras import LieAlgebra, Representation
from .classical import _metric_c, build_classical
from .kernel import SparseOp, Vec, kron, trace_word, vec_columns
from .rootdata import RootSystem, series_rank


class CasimirError(Exception):
    pass


@dataclass(frozen=True)
class SplitPart:
    """C_plus (sign +1) or C_minus (sign -1) as a matvec only.

    C_+- v = (1/2)(w +- P w) with w = Chat v: the definition in
    ``SplitCasimir.parts`` applied to a vector, so neither P @ Chat nor the
    part is built."""

    operator: SparseOp
    swap: SparseOp
    sign: int

    @property
    def rows(self) -> int:
        return self.operator.rows

    @property
    def cols(self) -> int:
        return self.operator.cols

    def matvec(self, v: Vec) -> Vec:
        w = self.operator.matvec(v)
        pw = self.swap.matvec(w)
        return (w + pw if self.sign > 0 else w - pw).scaled(Fraction(1, 2))


@dataclass
class SplitCasimir:
    """Split Casimir operator with the structural operators of its ambient
    space: ``unit`` is the identity of the (sub)space the operator lives on,
    ``swap`` the adjoint-space permutation used to split it."""

    operator: SparseOp
    rep_pair: Tuple[Representation, Representation]
    convention: str  # killing | d2_normalized
    unit: SparseOp
    swap: Optional[SparseOp] = None
    _parts: Optional[Tuple[SparseOp, SparseOp]] = field(default=None, repr=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.rep_pair[0].algebra

    def parts(self) -> Tuple[SparseOp, SparseOp]:
        """(C_plus, C_minus) = (1/2)(1 +- P) Chat."""
        if self._parts is None:
            if self.swap is None:
                raise CasimirError("no permutation operator: rep1 != rep2")
            pc = self.swap @ self.operator
            half = Fraction(1, 2)
            self._parts = ((self.operator + pc).scaled(half),
                           (self.operator - pc).scaled(half))
        return self._parts

    def part_views(self) -> Tuple[SplitPart, SplitPart]:
        """(C_plus, C_minus) as matvec-only views, for checks that only
        apply the parts to vectors."""
        if self.swap is None:
            raise CasimirError("no permutation operator: rep1 != rep2")
        return (SplitPart(self.operator, self.swap, 1),
                SplitPart(self.operator, self.swap, -1))


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


def swap_operator(d: int) -> SparseOp:
    row = np.arange(d * d, dtype=np.int64)
    i, j = np.divmod(row, d)
    return SparseOp(d * d, d * d, row, j * d + i, np.ones(d * d, dtype=np.int64),
                    _canonical=True)


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
    unit = SparseOp.identity(d1 * d2m)
    swap = swap_operator(d1) if d1 == d2m else None
    return SplitCasimir(op, (rep1, rep2), convention, unit, swap)


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
        from .algebras import symmetric_block_inverse
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
    sc = SplitCasimir(cas, (adj, adj), "killing", unit, big_p)
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
    _, rep = build_classical(*series_rank("so" if eps == 1 else "sp", n))
    adj = rep.algebra.adjoint_rep()
    sc = SplitCasimir(cas, (adj, adj), "killing", unit, big_p)
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
    carries an invariant symmetric metric; F/D for g2 and f4; P1 (the
    singlet projector from the symplectic form) for e7.
    """
    alg = rep.algebra
    d = rep.dim_module
    out = {"I": SparseOp.identity(d * d), "P": swap_operator(d)}
    if rep.kind == "adjoint":
        out["K"] = _outer_vec(alg.killing_inv, alg.killing)
        return out
    if rep.module_metric is not None:
        from .algebras import symmetric_block_inverse
        out["K"] = _outer_vec(symmetric_block_inverse(rep.module_metric),
                              rep.module_metric)
    if alg.name == "g2":
        # F = f f^T with f_ijk as a 49 x 7 operator (f is fully antisymmetric,
        # so f_klm = f_lmk)
        from .exceptional import octonion_f_tensor
        f_op = octonion_f_tensor()
        out["F"] = f_op @ f_op.transpose()
    if alg.name == "f4":
        out["D"] = _f4_d_operator()
        out["F"] = _t_squared_operator(rep)
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


def _f4_d_operator() -> SparseOp:
    """(D)^{i1i2}_{j1j2} = dhat^{i1i2m} dhat_{j1j2m} in the rational basis:
    sum_m (8/(g_i1 g_i2 g_m)) d_{i1i2m} d_{j1j2m}, that is
    diag(8/(g_i g_j)) A diag(1/g_m) A^T with A = d_ijm as a 676 x 26
    operator."""
    from .exceptional import j3_structure
    gram, a = j3_structure()
    ginv = SparseOp.from_triplets(26, 26, [(i, i, Fraction(1, g))
                                           for i, g in enumerate(gram)])
    return (kron(ginv, ginv) @ a @ ginv @ a.transpose()).scaled(8)


def _t_squared_operator(rep: Representation) -> SparseOp:
    """(F)^{i1i2}_{j1j2} = T_a^{i1i2} T_{a j1j2} in invariant form:
    -(1/d2) kappa^{ab} (T_a gbar)^{i1i2} (g T_b)_{j1j2}, that is
    -(1/d2) R kappa^-1 L^T with the columns vec(T_a gbar) of R and
    vec(g T_b) of L."""
    from .algebras import symmetric_block_inverse
    g = rep.module_metric
    ginv = symmetric_block_inverse(g)
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
