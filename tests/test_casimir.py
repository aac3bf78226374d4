"""Split Casimir assembly, invariant operators, parts, traces, eigenvalue
predictions and the tensor-space adjoint realizations."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcasimir.casimir import (
    CasimirError,
    adjoint_split_casimir,
    antisymmetrizer_4,
    casimir_eigenvalue,
    e4_operator,
    invariant_set,
    k_two_site,
    perm_two_site,
    q_minus,
    sl_adjoint_tensor,
    sosp_adjoint_tensor,
    split_casimir,
    split_parts,
    swap_operator,
    trace_suite,
    two_site,
    weighted_kron_sum,
)
from splitcasimir.catalog import adjoint_context, chevalley, defining
from splitcasimir.classical import build_classical
from splitcasimir.kernel import SparseOp, Vec, apply_two_site, kron
from splitcasimir.rootdata import root_system
from splitcasimir.serialize import dumps


def test_sl_defining_closed_form():
    for n in (2, 3, 4):
        _, rep = build_classical("A", n - 1)
        sc = split_casimir(rep, rep)
        want = (swap_operator(n)
                - SparseOp.identity(n * n).scaled(Fraction(1, n))
                ).scaled(Fraction(1, 2 * n))
        assert sc.operator == want


def test_sosp_defining_closed_form():
    for fam, n, eps in [("so(5)", 5, 1), ("so(7)", 7, 1), ("sp(4)", 4, -1),
                        ("sp(6)", 6, -1)]:
        _, rep = defining(fam)
        sc = split_casimir(rep, rep)
        inv = invariant_set(rep)
        want = (inv["P"] - inv["K"].scaled(eps)).scaled(
            Fraction(1, 2 * (n - 2 * eps)))
        assert sc.operator == want


def test_g2_defining_closed_form_and_parts():
    _, rep = defining("g2")
    sc = split_casimir(rep, rep)
    inv = invariant_set(rep)
    i_op, p_op, k_op, f_op = inv["I"], inv["P"], inv["K"], inv["F"]
    assert sc.operator == (i_op + p_op - k_op.scaled(2) - f_op).scaled(
        Fraction(1, 6))
    cp, cm = split_parts(sc)
    assert cp == (i_op + p_op).scaled(Fraction(1, 6)) - k_op.scaled(
        Fraction(1, 3))
    # F = 6 P^[7] = -6 AC
    assert f_op == cm.scaled(-6)
    assert cp + cm == sc.operator
    assert (cp @ cm).is_zero() and (cm @ cp).is_zero()


def test_f4_defining_closed_form():
    _, rep = defining("f4")
    sc = split_casimir(rep, rep)
    inv = invariant_set(rep)
    i_op, p_op, k_op = inv["I"], inv["P"], inv["K"]
    d_op, f_op = inv["D"], inv["F"]
    want = (i_op + p_op - k_op).scaled(Fraction(1, 12)) \
        - d_op.scaled(Fraction(1, 16)) - f_op.scaled(Fraction(1, 2))
    assert sc.operator == want
    cp, cm = split_parts(sc)
    assert cp == (i_op + p_op - k_op
                  - d_op.scaled(Fraction(3, 4))).scaled(Fraction(1, 12))
    assert cm == f_op.scaled(Fraction(-1, 2))


def test_adjoint_k_relations():
    # Prop: C K = K C = -K; C- K = 0; K^2 = dim(g) K; C+ K = -K
    for name in ["sl(3)", "so(5)", "g2"]:
        ctx = adjoint_context(name)
        c = ctx.sc.operator
        k = ctx.big_k
        cp, cm = ctx.sc.parts()
        assert c @ k == k.scaled(-1)
        assert k @ c == k.scaled(-1)
        assert (cm @ k).is_zero() and (k @ cm).is_zero()
        assert cp @ k == k.scaled(-1)
        assert k @ k == k.scaled(ctx.dim_g)


def test_cminus_clebsch_form():
    # (C-)^{a1a2}_{b1b2} = -(1/2) C^{a1a2}_d C^d_{b1b2} in the struct basis,
    # where C^{a1 a2}_d = C^{a1}_{d b2} kappa^{b2 a2}
    for name in ["sl(3)", "g2"]:
        alg, _ = defining(name)
        sc = adjoint_split_casimir(alg)
        dim = alg.dim
        ki = alg.killing_inv.to_dense_fractions()
        t = alg.struct
        by_row = {}
        for k in range(t.nnz):
            a, b = divmod(int(t.row[k]), dim)
            by_row.setdefault((a, b), []).append(
                (int(t.col[k]), int(t.data[k]) * t.scale))
        # raised: (a1, a2) -> {d: C^{a1 a2}_d}
        upper = {}
        for (d, b2), lst in by_row.items():
            for a1, v in lst:
                for a2 in range(dim):
                    w = ki[b2][a2]
                    if w:
                        slot = upper.setdefault((a1, a2), {})
                        slot[d] = slot.get(d, Fraction(0)) + v * w
        # lowered: d -> [((b1, b2), C^d_{b1 b2})]
        lower = {}
        for (b1, b2), lst in by_row.items():
            for d, v in lst:
                lower.setdefault(d, []).append(((b1, b2), v))
        trips = []
        for (a1, a2), ds in upper.items():
            for d, v in ds.items():
                if v == 0:
                    continue
                for (b1, b2), w in lower.get(d, []):
                    trips.append((a1 * dim + a2, b1 * dim + b2,
                                  Fraction(-1, 2) * v * w))
        want = SparseOp.from_triplets(dim * dim, dim * dim, trips)
        _, cm = sc.parts()
        assert cm == want


def test_trace_suite_struct_and_tensor():
    for name in ["sl(3)", "g2", "f4"]:
        ctx = adjoint_context(name)
        suite = trace_suite(ctx.sc, big_k=ctx.big_k)
        assert suite["all_pass"], suite
    for builder in (lambda: sl_adjoint_tensor(4),
                    lambda: sosp_adjoint_tensor(5, 1),
                    lambda: sosp_adjoint_tensor(4, -1)):
        ta = builder()
        suite = trace_suite(ta.casimir, big_k=ta.ops["K"])
        assert suite["all_pass"], suite


def test_tensor_and_struct_adjoint_same_identity():
    # the V^(x4) realization and the structure-constant realization have the
    # same minimal polynomial
    from splitcasimir.identities import minimal_polynomial
    ta = sl_adjoint_tensor(3)
    alg, _ = build_classical("A", 2)
    sc_struct = adjoint_split_casimir(alg)
    r1 = minimal_polynomial(ta.casimir.operator, 6, unit=ta.casimir.unit)
    r2 = minimal_polynomial(sc_struct.operator, 6)
    assert sorted(r1["roots"]) == sorted(r2["roots"])


def test_ad_invariance_of_casimir_and_invariants():
    # (T_a x 1 + 1 x T_a) commutes with Chat and every invariant operator
    for name in ["g2", "so(5)"]:
        _, rep = defining(name)
        sc = split_casimir(rep, rep)
        inv = invariant_set(rep)
        d = rep.dim_module
        ident = SparseOp.identity(d)
        for a in (0, len(rep.generators) // 2):
            t = rep.generators[a]
            delta = kron(t, ident) + kron(ident, t)
            for op in [sc.operator] + list(inv.values()):
                assert (delta @ op - op @ delta).is_zero()


def test_comultiplication_identity():
    # Delta(C2) = C2 x 1 + 1 x C2 + 2 Chat
    for name in ["sl(2)", "g2"]:
        alg, rep = defining(name)
        sc = split_casimir(rep, rep)
        # the Killing-normalised Chat, whatever the convention
        chat = (sc.operator.scaled(rep.d2())
                if sc.convention == "d2_normalized" else sc.operator)
        d = rep.dim_module
        ident = SparseOp.identity(d)
        ki = alg.killing_inv
        c2 = SparseOp.zero(d, d)
        delta_c2 = SparseOp.zero(d * d, d * d)
        for a, b, v in ki.entries():
            c2 = c2 + (rep.generators[a] @ rep.generators[b]).scaled(v)
            da = kron(rep.generators[a], ident) + kron(ident, rep.generators[a])
            db = kron(rep.generators[b], ident) + kron(ident, rep.generators[b])
            delta_c2 = delta_c2 + (da @ db).scaled(v)
        want = kron(c2, ident) + kron(ident, c2) + chat.scaled(2)
        assert delta_c2 == want


def test_kono_drinfeld_relation():
    # [C12, C13 + C23] = 0 on V^(x3), exactly
    for name in ["sl(2)", "sl(3)", "g2"]:
        _, rep = defining(name)
        sc = split_casimir(rep, rep)
        d = rep.dim_module
        rng = np.random.default_rng(3)
        for _ in range(4):
            v = Vec.random_exact(d ** 3, rng)
            c13_23 = (apply_two_site(sc.operator, v, (0, 2), 3, d)
                      + apply_two_site(sc.operator, v, (1, 2), 3, d))
            lhs = apply_two_site(sc.operator, c13_23, (0, 1), 3, d)
            c12 = apply_two_site(sc.operator, v, (0, 1), 3, d)
            rhs = (apply_two_site(sc.operator, c12, (0, 2), 3, d)
                   + apply_two_site(sc.operator, c12, (1, 2), 3, d))
            assert (lhs - rhs).is_zero()


def test_casimir_eigenvalue_predictions():
    # adjoint x adjoint at lambda = adjoint: -1/2; trivial: -1
    for series, rank in [("A", 2), ("G", 2), ("F", 4)]:
        rs = root_system(series, rank)
        ad = rs.root_to_weight(rs.highest_root)
        zero = tuple(0 for _ in range(rank))
        assert casimir_eigenvalue(rs, ad, ad, ad) == Fraction(-1, 2)
        assert casimir_eigenvalue(rs, zero, ad, ad) == Fraction(-1)
        # 2*theta component: eigenvalue 1/t
        two_theta = tuple(2 * x for x in ad)
        assert casimir_eigenvalue(rs, two_theta, ad, ad) == \
            Fraction(1, rs.dual_coxeter)


def test_sl_defining_symmetric_eigenvalue():
    # sl(N): symmetric part of defining x defining has chat = (N-1)/(2N^2)
    for n in (2, 3, 5):
        rs = root_system("A", n - 1)
        omega1 = tuple(int(i == 0) for i in range(n - 1))
        two_omega1 = tuple(2 * int(i == 0) for i in range(n - 1))
        got = casimir_eigenvalue(rs, two_omega1, omega1, omega1)
        assert got == Fraction(n - 1, 2 * n * n)


def test_q_minus_relations():
    n = 4
    q = q_minus(n)
    ta = sl_adjoint_tensor(n)
    unit = ta.casimir.unit
    swap = ta.ops["P"]
    cp, cm = ta.casimir.parts()
    p_plus = (unit + swap).scaled(Fraction(1, 2))
    p_minus = (unit - swap).scaled(Fraction(1, 2))
    # Q(Q+1)(Q-1) = 0 on the subspace
    assert ((q @ q @ q) - q @ unit).is_zero() or \
        (q @ q @ q) == (q @ unit)
    # Q^2 = 2 C- + P-
    assert q @ q == cm.scaled(2) + p_minus
    # P+ Q = 0 = Q P+
    assert (p_plus @ q).is_zero() and (q @ p_plus).is_zero()
    # Q C- = C- Q = 0
    assert (q @ cm).is_zero() and (cm @ q).is_zero()


def test_e4_relations():
    a4 = antisymmetrizer_4(8)
    e4 = e4_operator()
    assert a4 @ a4 == a4
    assert a4 @ e4 == e4
    assert e4 @ a4 == e4
    assert e4 @ e4 == a4
    assert e4.trace() == 0
    half = Fraction(1, 2)
    for sign in (1, -1):
        p = (a4 + e4.scaled(sign)).scaled(half)
        assert p @ p == p


def test_two_site_embedding_matches_kron():
    d = 3
    rng = np.random.default_rng(9)
    op2 = SparseOp.from_triplets(
        d * d, d * d,
        [(int(rng.integers(0, 9)), int(rng.integers(0, 9)),
          int(rng.integers(-3, 4))) for _ in range(10)])
    ident = SparseOp.identity(d)
    # sites (0,1) of 3: op2 x I
    emb = two_site(op2, 0, 1, 3, d)
    assert emb == kron(op2, ident)
    # apply_two_site agrees with the embedded operator
    v = Vec.random_exact(d ** 3, rng)
    got = apply_two_site(op2, v, (0, 2), 3, d)
    want = two_site(op2, 0, 2, 3, d).matvec(v)
    assert got == want


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_site_matches_kron_then_permuted_axes(n, big):
    d = 3
    rng = np.random.default_rng(n)
    base = 2 ** 70 if big else 1
    op2 = SparseOp.from_triplets(d * d, d * d, [
        (int(rng.integers(0, d * d)), int(rng.integers(0, d * d)),
         Fraction(base * int(rng.integers(-5, 6)) + int(rng.integers(1, 4)), 3))
        for _ in range(2 * d * d)])
    assert (op2.data.dtype == object) == big
    # op2 on sites (0, 1) of the axis order (a, b, other sites ascending)
    full = np.kron(op2.to_dense_fractions(),
                   np.eye(d ** (n - 2), dtype=np.int64).astype(object))
    for a, b in itertools.permutations(range(n), 2):
        order = [a, b] + [k for k in range(n) if k not in (a, b)]
        axis_of_site = [int(x) for x in np.argsort(order)]
        want = full.reshape((d,) * (2 * n)).transpose(
            axis_of_site + [n + x for x in axis_of_site]).reshape(d ** n, d ** n)
        got = two_site(op2, a, b, n, d)
        assert got.data.dtype == op2.data.dtype
        assert np.array_equal(got.to_dense_fractions(), want), (a, b)


@pytest.mark.parametrize("d", [3, 4])
def test_antisymmetrizer_4_matches_determinant_formula(d):
    # (A_4)^{i1..i4}_{j1..j4} = (1/4!) det[delta(i_k, j_l)]_{k,l}
    digits = np.array(list(itertools.product(range(d), repeat=4)))
    delta = digits[:, None, :, None] == digits[None, :, None, :]
    dets = np.rint(np.linalg.det(delta.astype(float))).astype(np.int64)
    want = {(int(r), int(c)): Fraction(int(dets[r, c]), 24)
            for r, c in zip(*np.nonzero(dets))}
    got = antisymmetrizer_4(d)
    assert {(r, c): v for r, c, v in got.entries()} == want


def test_e4_operator_matches_levi_civita():
    # (E_4)^{i1..i4}_{j1..j4} = (1/4!) eps^{i1..i4 j1..j4}: nonzero exactly
    # when the eight digits are 0..7 in some order (8! entries), with the
    # sign the determinant of that permutation's matrix
    e4 = e4_operator()
    assert e4.nnz == math.factorial(8)
    word = np.concatenate([
        np.stack(np.unravel_index(idx, (8,) * 4), axis=1)
        for idx in (e4.row, e4.col)], axis=1)
    assert (np.sort(word, axis=1) == np.arange(8)).all()
    perm_matrix = (word[:, :, None] == np.arange(8)).astype(float)
    eps = np.rint(np.linalg.det(perm_matrix)).astype(np.int64)
    assert [v for _, _, v in e4.entries()] == [Fraction(int(x), 24) for x in eps]


def test_exceptional_defining_convention_is_d2_normalized():
    alg, rep = defining("g2")
    sc_auto = split_casimir(rep, rep)
    d = rep.dim_module
    killing_chat = SparseOp.zero(d * d, d * d)
    for a, b, v in alg.killing_inv.entries():
        killing_chat = killing_chat + kron(rep.generators[a],
                                           rep.generators[b]).scaled(v)
    assert sc_auto.convention == "d2_normalized"
    assert sc_auto.operator == killing_chat.scaled(Fraction(1) / rep.d2())


def test_zero_check_sl2_adjoint_cminus_identity():
    # C-(C- + 1/2) = 0 for the sl(2) adjoint: PASS across 20 random vectors
    from splitcasimir.identities import CharIdentity, verify_identity
    alg, _ = defining("sl(2)")
    sc = adjoint_split_casimir(alg)
    _, cm = sc.parts()
    rep = verify_identity(cm, CharIdentity([0, Fraction(-1, 2)]),
                          method="randomized_exact", trials=20, seed=4)
    assert rep.status == "PASS"
    assert rep.trials == 20


def test_kono_drinfeld_e6_exact_and_e7_randomized():
    # exact at module dimension 27 (the spec's full-precision boundary),
    # randomized-exact above it
    rng = np.random.default_rng(11)
    for name, trials in [("e6", 2), ("e7", 2)]:
        _, rep = defining(name)
        sc = split_casimir(rep, rep)
        d = rep.dim_module
        for _ in range(trials):
            v = Vec.random_exact(d ** 3, rng)
            c13_23 = (apply_two_site(sc.operator, v, (0, 2), 3, d)
                      + apply_two_site(sc.operator, v, (1, 2), 3, d))
            lhs = apply_two_site(sc.operator, c13_23, (0, 1), 3, d)
            c12 = apply_two_site(sc.operator, v, (0, 1), 3, d)
            rhs = (apply_two_site(sc.operator, c12, (0, 2), 3, d)
                   + apply_two_site(sc.operator, c12, (1, 2), 3, d))
            assert (lhs - rhs).is_zero()


def test_swap_conjugation_fixes_casimir():
    # P Chat P = Chat when rep1 = rep2
    for name in ["sl(3)", "g2"]:
        _, rep = defining(name)
        sc = split_casimir(rep, rep)
        assert sc.swap @ sc.operator @ sc.swap == sc.operator


@pytest.mark.parametrize("name", ["g2", "f4", "sl(3)", "so(8)", "sp(4)"])
def test_part_views_match_built_parts(name):
    # sl(3), so(8) and sp(4) live on V^(x4): the unit is a projector and P
    # is not a permutation, so no commutation shortcut is hidden here
    sc = adjoint_context(name).sc
    rng = np.random.default_rng(17)
    for built, view in zip(sc.parts(), sc.part_views()):
        assert (view.rows, view.cols) == (built.rows, built.cols)
        for _ in range(3):
            v = sc.unit.matvec(Vec.random_exact(built.cols, rng))
            assert view.matvec(v) == built.matvec(v)


def test_split_casimir_mixed_representation_pair():
    # defining (x) adjoint: ad-invariance and the comultiplication identity
    # hold for any built pair
    alg, rep = defining("sl(2)")
    adj = alg.adjoint_rep()
    sc = split_casimir(rep, adj)
    assert sc.swap is None
    with pytest.raises(CasimirError):
        sc.parts()
    with pytest.raises(CasimirError):
        sc.part_views()
    d1, d2m = rep.dim_module, adj.dim_module
    i1, i2 = SparseOp.identity(d1), SparseOp.identity(d2m)
    ki = alg.killing_inv
    for a in range(alg.dim):
        delta = kron(rep.generators[a], i2) + kron(i1, adj.generators[a])
        assert (delta @ sc.operator - sc.operator @ delta).is_zero()
    # Delta(C2) = C2 x 1 + 1 x C2 + 2 Chat
    c2_def = SparseOp.zero(d1, d1)
    c2_adj = SparseOp.zero(d2m, d2m)
    delta_c2 = SparseOp.zero(d1 * d2m, d1 * d2m)
    for a, b, v in ki.entries():
        c2_def = c2_def + (rep.generators[a] @ rep.generators[b]).scaled(v)
        c2_adj = c2_adj + (adj.generators[a] @ adj.generators[b]).scaled(v)
        da = kron(rep.generators[a], i2) + kron(i1, adj.generators[a])
        db = kron(rep.generators[b], i2) + kron(i1, adj.generators[b])
        delta_c2 = delta_c2 + (da @ db).scaled(v)
    want = kron(c2_def, i2) + kron(i1, c2_adj) + sc.operator.scaled(2)
    assert delta_c2 == want


@settings(max_examples=60, deadline=None)
@given(mult=st.integers(8, 4096), shift=st.integers(0, 2), delta=st.integers(-2, 2),
       sign=st.sampled_from([1, -1]), other=st.integers(-3, 3))
def test_weighted_kron_sum_across_int64_bound(mult, shift, delta, sign, other):
    # mult * big lands near 2^62 * 2^shift; the second, small term shares
    # every position of the first
    big = 2 ** (62 + shift) // mult + delta
    a = SparseOp(2, 2, np.array([0, 1]), np.array([0, 1]),
                 np.array([big, 1], dtype=np.int64))
    b = SparseOp(2, 3, np.array([0, 1]), np.array([0, 2]),
                 np.array([sign, 1], dtype=np.int64))
    ident = SparseOp.identity(2)
    coeffs = SparseOp.from_triplets(2, 2, [(0, 0, mult), (1, 1, other)])
    got = weighted_kron_sum(coeffs, [a, ident], [b, b])
    want = np.full((4, 6), Fraction(0), dtype=object)
    for c, x in ((mult, a), (other, ident)):
        dx, db = x.to_dense_fractions(), b.to_dense_fractions()
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(3):
                        want[i1 * 2 + i2, j1 * 3 + j2] += c * dx[i1, j1] * db[i2, j2]
    assert np.array_equal(got.to_dense_fractions(), want)
    # lifted iff a stored entry reaches 2^62 once the gcd is divided out
    assert (got.data.dtype == object) == (max(abs(int(x)) for x in got.data)
                                          >= 2 ** 62)


# sha256 of `serialize.dumps` of each split Casimir operator, as assembled
# by the per-entry Kronecker sum that the single product replaced
_PINNED = {
    "sl(3)": "994d04b3f4b540da5df22e3994acf2ed0e95469a73592a6df49b7f42df11e744",
    "so(7)": "e9e38dd5cfbddf3fa6baf691899469b5c25b7e4e92afcc5aa10a7008d9f823aa",
    "sp(6)": "46327f66164fd81796e06b0a76a8450073aab2b12482654c20f53c3732f84bdf",
    "g2": "73239d4e7a2e0fa70ca3a1d28f9bbac3e42b4ad20a4733bc63beb71edf90074c",
    "f4": "023e5afd0d64b50bcf1264835aadd621c8cb8181d594c3fd5799649875373d7d",
    "e6": "ca07865e846cf2374224aaaf039dc9c240dbd537b2d8a1dd3bec2bc7606d3e39",
    "e7": "035a329aad30957ac2929666f00a06a56b8b37b1582449011e1aa0135dd95b57",
    "sl(2) defining x adjoint":
        "aeaf8e0c159a8986b0711c057e169557f7467ad1da91216fa22fd5048920aca6",
    "e7 adjoint":
        "89cf6375fc114f751fa8abebd39b8c51ad0001e8e9666370b69e6856d97aff6e",
}


def test_split_casimir_outputs_are_pinned():
    def digest(op):
        return hashlib.sha256(dumps(op)).hexdigest()

    got = {}
    for name in ("sl(3)", "so(7)", "sp(6)", "g2", "f4", "e6", "e7"):
        _, rep = defining(name)
        got[name] = digest(split_casimir(rep, rep).operator)
    alg, rep = defining("sl(2)")
    got["sl(2) defining x adjoint"] = digest(
        split_casimir(rep, alg.adjoint_rep()).operator)
    got["e7 adjoint"] = digest(adjoint_context("e7").sc.operator)
    assert got == _PINNED


def test_e7_adjoint_casimir_build_peak_memory():
    # the 17689-dim Chat (213982 nonzeros) as one product peaks at about
    # 24 MB of allocations; buffering one Kronecker block per Killing-inverse
    # entry peaked at 38 MB
    _, rep = chevalley("e7")
    tracemalloc.start()
    try:
        sc = split_casimir(rep, rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sc.operator.nnz == 213982
    assert peak < 30 * 2 ** 20


def test_casimir_realignment_peak_memory():
    # realigning X kappa^-1 Y^T into V (x) V order by one stable sort of the
    # output rows peaks near 2.8x the result's bytes on the e6 adjoint;
    # four divmod index arrays and a full re-normalisation peaked at 4.8x
    _, rep = chevalley("e6")
    tracemalloc.start()
    try:
        op = split_casimir(rep, rep).operator
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.nnz == 56472
    assert peak < 3.5 * (op.row.nbytes + op.col.nbytes + op.data.nbytes)
