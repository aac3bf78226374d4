"""Projector families: construction, verification, paper dimension lists."""

from fractions import Fraction

import numpy as np
import pytest

from splitcasimir.catalog import adjoint_context, defining
from splitcasimir.casimir import RowBasis, RowBasisError, split_casimir
from splitcasimir.identities import (
    CharIdentity,
    adjoint_identity,
    defining_identity,
)
from splitcasimir.kernel import SparseOp, combine, kron
from splitcasimir.projectors import (
    MATERIALIZED_PRODUCT_MAX_DIM,
    PRODUCT_PROBE_RANGE,
    PRODUCT_TRIALS,
    FamilyMember,
    ProjectorError,
    ProjectorFamily,
    defining_family,
    exceptional_adjoint_family,
    lagrange_family,
    refine_family,
    sl_adjoint_family,
    so8_adjoint_family,
    sosp_adjoint_family,
    sosp_dimension_table,
    universal_symmetric_family,
    x1x2_split,
)


def _dims(fam):
    return sorted(m.expected_dim for m in fam.members)


@pytest.mark.parametrize("name,dims", [
    ("g2", [1, 7, 14, 27]),
    ("f4", [1, 26, 52, 273, 324]),
    ("e6", [27, 351, 351]),
    ("sl(4)", [6, 10]),
    ("so(7)", [1, 21, 27]),
    ("sp(6)", [1, 14, 21]),
])
def test_defining_families(name, dims):
    fam = defining_family(name)
    assert _dims(fam) == sorted(dims)
    assert sorted(int(t) for t in fam.traces()) == sorted(dims)
    assert fam.verify()["all_pass"]


def test_lagrange_family_precheck_refuses_wrong_identity():
    op = SparseOp.identity(4).scaled(3)
    with pytest.raises(ProjectorError):
        lagrange_family(op, CharIdentity([0, 1]), RowBasis.identity(4))


def test_lagrange_on_diagonal_oracle():
    op = SparseOp.from_triplets(5, 5, [(i, i, v) for i, v in
                                       enumerate([2, 2, 5, 5, 5])])
    fam = lagrange_family(op, CharIdentity([2, 5]), RowBasis.identity(5))
    assert _dims(fam) == [2, 3]
    assert fam.verify()["all_pass"]


def _chain_member(op, roots, aj, unit):
    # the textbook product unit * prod_{i != j} (op - a_i unit)/(a_j - a_i)
    proj, denom = unit, Fraction(1)
    for ai in roots:
        if ai != aj:
            proj = proj @ (op - unit.scaled(ai))
            denom *= aj - ai
    return proj.scaled(1 / denom)


@pytest.mark.parametrize("name,kind", [
    ("sl(4)", "adjoint"), ("so(7)", "adjoint"), ("sp(4)", "defining")])
def test_shared_powers_equal_chain_products(name, kind):
    if kind == "adjoint":
        sc, ident = adjoint_context(name).sc, adjoint_identity(name)
    else:
        _, rep = defining(name)
        sc, ident = split_casimir(rep, rep), defining_identity(name)
    op, basis = sc.operator, sc.basis()
    fam = lagrange_family(op, ident, basis)
    assert [m.eigenvalue for m in fam.members] == ident.roots
    for m in fam.members:
        assert m.operator == _chain_member(op, ident.roots, m.eigenvalue,
                                           basis.unit)


def test_lagrange_family_rejects_non_idempotent_unit():
    # the zero op satisfies op (op - unit) = 0 for any unit, so the identity
    # check passes and the basis fact unit B = B is what refuses unit = 2 I
    # (rows 0..2, B = I)
    basis = RowBasis(SparseOp.identity(3).scaled(2), np.arange(3),
                     SparseOp.identity(3))
    with pytest.raises(RowBasisError) as err:
        lagrange_family(SparseOp.zero(3, 3), CharIdentity([0, 1]), basis)
    assert err.value.detail == "unit B != B"
    assert err.value.witness == [0, 0]


def test_lagrange_family_rejects_non_commuting_unit():
    # unit = [[1, 1], [0, 0]] is idempotent, with row basis S = row 0 and
    # B = [[1], [0]]; op = unit diag(2, 5) = [[2, 5], [0, 0]] lies in its
    # image, but op unit = [[2, 2], [0, 0]] != unit op
    unit = SparseOp.from_triplets(2, 2, [(0, 0, 1), (0, 1, 1)])
    op = unit @ SparseOp.from_triplets(2, 2, [(0, 0, 2), (1, 1, 5)])
    basis = RowBasis(unit, np.arange(1), SparseOp.from_triplets(
        2, 1, [(0, 0, 1)]))
    with pytest.raises(ProjectorError,
                       match=r"does not commute with op at \[0, 1\]"):
        lagrange_family(op, CharIdentity([2, 5]), basis)


def test_sl_adjoint_seven_projectors():
    for n, dims in [(4, [1, 15, 15, 20, 45, 45, 84]),
                    (5, [1, 24, 24, 75, 126, 126, 200])]:
        fam = sl_adjoint_family(n)
        assert len(fam.members) == 7
        assert _dims(fam) == dims
        assert fam.verify()["all_pass"]
        traces = sorted(int(t) for t in fam.traces())
        assert traces == dims


def test_sl_adjoint_family_closed_forms():
    # the refined members match the explicit affine formulas (slProj1)
    n = 4
    fam = sl_adjoint_family(n)
    ctx = adjoint_context("sl(4)")
    unit, swap, k = ctx.ops["I"], ctx.ops["P"], ctx.big_k
    cp, cm = ctx.sc.parts()
    p_plus = (unit + swap).scaled(Fraction(1, 2))
    members = {m.label: m.operator for m in fam.members}
    assert members["ev=-1/2|anti"] == cm.scaled(-2)
    assert members["ev=-1"] == k.scaled(Fraction(1, n * n - 1))
    cp2 = cp @ cp
    want = (cp2.scaled(n * n) - p_plus - k).scaled(Fraction(4, n * n - 4))
    assert members["ev=-1/2|sym"] == want
    want_pn = (k.scaled(Fraction(-n, 2 * (n + 1) * (n + 2)))
               + cp2.scaled(Fraction(n * n, n + 2))
               + cp.scaled(Fraction(n, 2))
               + p_plus.scaled(Fraction(n, 2 * (n + 2))))
    assert members["ev=1/4"] == want_pn


def test_sosp_six_projector_families():
    # trace dims in M = eps N, so(7): M = 7; sp(4): M = -4; sp(6): M = -6
    for n, eps, m in [(7, 1, 7), (9, 1, 9), (4, -1, -4), (6, -1, -6)]:
        fam = sosp_adjoint_family(n, eps)
        table = sosp_dimension_table(m)
        assert len(fam.members) == 6
        assert _dims(fam) == sorted(table.values())
        assert fam.verify()["all_pass"]


def test_sosp_duality_in_dimension_table():
    # one closed form in M = eps N covers both families: M -> -M swaps
    # so(6) and sp(6) data, e.g. dim g = M(M-1)/2 becomes N(N+1)/2
    t_so = sosp_dimension_table(6)
    t_sp = sosp_dimension_table(-6)
    assert t_so[Fraction(-1, 2)] == 15   # dim so(6)
    assert t_sp[Fraction(-1, 2)] == 21   # dim sp(6)
    assert t_so[Fraction(-1)] == t_sp[Fraction(-1)] == 1


def test_so8_seven_primitive_projectors():
    fam = so8_adjoint_family()
    assert _dims(fam) == [1, 28, 35, 35, 35, 300, 350]
    assert fam.verify()["all_pass"]
    # decomposition target [28]^2 = 1+28+35+35'+35''+300+350
    assert sum(m.expected_dim for m in fam.members) == 28 * 28


@pytest.mark.parametrize("name,dims", [
    ("g2", [1, 14, 27, 77, 77]),
    ("f4", [1, 52, 324, 1053, 1274]),
    ("e6", [1, 78, 650, 2430, 2925]),
])
def test_exceptional_adjoint_families(name, dims):
    fam = exceptional_adjoint_family(name)
    assert _dims(fam) == sorted(dims)
    assert fam.verify()["all_pass"]
    # the paper's affine members, summed per eigenvalue, are exactly the
    # Lagrange projectors of the adjoint identity
    ctx = adjoint_context(name)
    lag = lagrange_family(ctx.sc.operator, adjoint_identity(name),
                          ctx.sc.basis())
    by_ev = {}
    for m in fam.members:
        by_ev.setdefault(m.eigenvalue, []).append((1, m.operator))
    assert sorted(by_ev) == sorted(m.eigenvalue for m in lag.members)
    for m in lag.members:
        assert combine(by_ev[m.eigenvalue]) == m.operator


def test_x1x2_split():
    for name, dim_g in [("sl(4)", 15), ("so(7)", 21), ("g2", 14),
                        ("f4", 52)]:
        fam = x1x2_split(name)
        assert _dims(fam) == sorted([dim_g, dim_g * (dim_g - 3) // 2])
        assert fam.verify()["all_pass"]


def test_universal_symmetric_families():
    fam = universal_symmetric_family("so(7)")
    assert _dims(fam) == sorted([1, 27, 35, 168])
    assert fam.verify()["all_pass"]
    fam = universal_symmetric_family("sp(6)")
    assert fam.verify()["all_pass"]
    # exceptional line: the gamma member vanishes identically
    fam = universal_symmetric_family("g2")
    assert fam.dropped_zero_members == ["Y2(gamma)"]
    assert _dims(fam) == sorted([1, 27, 77])
    assert fam.verify()["all_pass"]
    # Tr P(-1) = 1
    x0 = next(m for m in fam.members if m.label == "X0")
    assert x0.operator.trace() == 1


def test_universal_family_sl_reproduces_young_dims():
    # sl(N): dims N^2(N-1)(N+3)/4 and N^2(N+1)(N-3)/4 appear
    n = 4
    fam = universal_symmetric_family("sl(4)")
    dims = _dims(fam)
    assert n * n * (n - 1) * (n + 3) // 4 in dims
    assert n * n * (n + 1) * (n - 3) // 4 in dims
    assert fam.verify()["all_pass"]


def test_so8_universal_family_merged_member():
    fam = universal_symmetric_family("so(8)")
    labels = {m.label: m.expected_dim for m in fam.members}
    assert labels["Y2(alpha)"] == 300
    assert labels["X0"] == 1
    merged = next(v for k, v in labels.items() if "merged" in k)
    assert merged == 105
    assert fam.verify()["all_pass"]


def test_projector_images_are_invariant_subspaces():
    # Delta(T_a) commutes with every member (sampled generators)
    name = "g2"
    _, rep = defining(name)
    fam = defining_family(name)
    d = rep.dim_module
    ident = SparseOp.identity(d)
    for a in (0, 7, 13):
        t = rep.generators[a]
        delta = kron(t, ident) + kron(ident, t)
        for m in fam.members:
            assert (delta @ m.operator - m.operator @ delta).is_zero()


def test_family_trace_sum_is_ambient_dimension():
    fam = defining_family("f4")
    assert sum(int(t) for t in fam.traces()) == 26 * 26


# ---------------------------------------------------------------------------
# the weighted product check above MATERIALIZED_PRODUCT_MAX_DIM
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def so7_adjoint():
    fam = sosp_adjoint_family(7, 1)  # six members on the 2401-dim V^(x4)
    assert fam.completeness_target.rows > MATERIALIZED_PRODUCT_MAX_DIM
    return fam


def _variant(fam, ops=None, dims=None):
    """The family with some member operators / expected dims replaced."""
    ops, dims = ops or {}, dims or {}
    return ProjectorFamily(
        [FamilyMember(m.label, ops.get(i, m.operator),
                      dims.get(i, m.expected_dim))
         for i, m in enumerate(fam.members)], fam.completeness_target,
        basis=fam.basis)


def _unit_op(n, r, c):
    return SparseOp.from_triplets(n, n, [(r, c, 1)])


def test_weighted_check_states_its_bound(so7_adjoint):
    rep = so7_adjoint.verify()
    assert rep["all_pass"]
    assert rep["method"] == "randomized_exact"
    assert rep["trials"] == PRODUCT_TRIALS == 32
    assert rep["false_pass_bound"] == Fraction(3, 2 * PRODUCT_PROBE_RANGE
                                               + 1) ** 32
    assert rep["false_pass_bound"] <= Fraction(1, 19 ** 32)
    small = defining_family("so(7)").verify()
    assert small["method"] == "exact_full"
    assert small["trials"] == 0 and small["false_pass_bound"] == 0


def test_weighted_check_costs_2k_matvecs_per_trial(so7_adjoint, monkeypatch):
    calls = []
    matvec = SparseOp.matvec

    def counted(op, v):
        calls.append(op.rows)
        return matvec(op, v)

    monkeypatch.setattr(SparseOp, "matvec", counted)
    assert so7_adjoint.verify()["all_pass"]
    assert len(calls) == 2 * len(so7_adjoint.members) * PRODUCT_TRIALS


def test_weighted_check_runs_on_the_representative_rows(so7_adjoint,
                                                        monkeypatch):
    # every so(7) family above the materialized bound: 2k matvecs per
    # trial, each on at most the 441 representative rows of the 2401
    fams = [x1x2_split("so(7)"), so7_adjoint,
            universal_symmetric_family("so(7)")]
    calls = []
    matvec = SparseOp.matvec

    def counted(op, v):
        calls.append(op.rows)
        return matvec(op, v)

    for fam in fams:
        assert fam.completeness_target.rows == 2401
        assert len(fam.basis.rows) == 441
        monkeypatch.setattr(SparseOp, "matvec", counted)
        rep = fam.verify()
        monkeypatch.undo()
        assert rep["all_pass"] and rep["trials"] == PRODUCT_TRIALS
        assert len(calls) == 2 * len(fam.members) * PRODUCT_TRIALS
        assert max(calls) <= 441
        calls.clear()


def test_member_outside_the_image_fails_with_its_witness(so7_adjoint):
    # +E and -E at (0, c) on two members: coordinate 0 is (0, 0, 0, 0),
    # which the so unit kills, so neither member lies in the unit's image;
    # traces and the sum are unchanged
    p0, p1 = (m.operator for m in so7_adjoint.members[:2])
    c = int(so7_adjoint.basis.rows[3])
    e = _unit_op(p0.rows, 0, c)
    rep = _variant(so7_adjoint, ops={0: p0 + e, 1: p1 - e}).verify()
    assert rep["traces"] and rep["complete"]
    assert not rep["all_pass"]
    labels = [m.label for m in so7_adjoint.members[:2]]
    assert rep["failures"][:2] == [
        f"P[{label}] is not in the unit's image at [0, {c}]"
        for label in labels]
    # the trials ran on the full members and name the wrong pairs too
    assert any(f.endswith("wrong (trial 0)") for f in rep["failures"])
    # a target outside the image fails the sum, which lies in the image
    off = ProjectorFamily(so7_adjoint.members,
                          so7_adjoint.completeness_target + e,
                          so7_adjoint.basis).verify()
    assert off["failures"] == ["sum of members != completeness target"]


def test_weighted_check_fails_doubled_member(so7_adjoint):
    p0 = so7_adjoint.members[0].operator
    rep = _variant(so7_adjoint, ops={0: p0.scaled(2)}).verify()
    assert not rep["all_pass"]
    assert not rep["idempotent"]
    assert rep["trials"] < PRODUCT_TRIALS


def test_weighted_check_fails_balanced_perturbation(so7_adjoint):
    # +E_rc on one member and -E_rc on another (r != c): traces and the sum
    # are unchanged, so only the products can fail
    p0, p1 = (m.operator for m in so7_adjoint.members[:2])
    e = _unit_op(p0.rows, int(p0.row[0]), int(p0.col[p0.nnz // 2]))
    assert e.trace() == 0
    rep = _variant(so7_adjoint, ops={0: p0 + e, 1: p1 - e}).verify()
    assert rep["traces"] and rep["complete"]
    assert not rep["all_pass"]
    assert not (rep["idempotent"] and rep["orthogonal"])


def test_weighted_failure_names_the_wrong_pair(so7_adjoint):
    # P0' = P0 + P0 E P1 keeps P0'^2 = P0', P1 P0' = 0 and P0' Pj = Pj P0' = 0
    # for j > 1; only P0' P1 = P0 E P1 is nonzero
    m0, m1 = so7_adjoint.members[:2]
    p0, p1 = m0.operator, m1.operator
    x = p0 @ _unit_op(p0.rows, int(p0.col[0]), int(p1.row[0])) @ p1
    assert not x.is_zero()
    rep = _variant(so7_adjoint, ops={0: p0 + x}).verify()
    assert rep["idempotent"] and rep["traces"]
    assert not rep["orthogonal"]
    pairs = [f for f in rep["failures"] if f.startswith("P[")]
    assert pairs == [f"P[{m0.label}] P[{m1.label}] wrong (trial 0)"]


def test_trace_failure_does_not_stop_the_product_trials(so7_adjoint):
    m0 = so7_adjoint.members[0]
    rep = _variant(so7_adjoint, dims={0: m0.expected_dim + 1}).verify()
    assert not rep["all_pass"] and not rep["traces"]
    assert rep["trials"] == PRODUCT_TRIALS
    assert rep["idempotent"] and rep["orthogonal"]
