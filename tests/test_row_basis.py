"""Row bases of the V^(x4) adjoint units: unit-side products on the
representative rows equal the full-row products, and every broken premise
is refused with a witness."""

from fractions import Fraction

import numpy as np
import pytest

from splitcasimir import _kernels
from splitcasimir.casimir import (
    RowBasis,
    RowBasisError,
    adjoint_split_casimir,
    pair_basis,
    product_of_shifts,
    sosp_adjoint_tensor,
)
from splitcasimir.catalog import adjoint_context
from splitcasimir.classical import build_classical
from splitcasimir.identities import (
    adjoint_identity,
    minimal_polynomial,
    verify_identity,
)
from splitcasimir.kernel import (
    KernelError,
    SparseOp,
    Vec,
    apply_poly_factors,
    combine,
)
from splitcasimir.rootdata import series_rank
from splitcasimir.projectors import lagrange_basis, lagrange_family

NAMES = ["sl(3)", "sl(4)", "sp(4)", "sp(6)", "so(7)"]


def _full_row_members(op, unit, roots):
    # the full-row chain W_k = unit op^k and P_j = sum_k L_j[k] W_k
    powers = [unit]
    while len(powers) < len(roots):
        powers.append(powers[-1] @ op)
    return [combine(zip(coeffs, powers)) for coeffs in lagrange_basis(roots)]


def _full_row_shifts(op, unit, roots):
    acc = unit
    for r in roots:
        acc = op @ acc - acc.scaled(r)
    return acc


@pytest.mark.parametrize("name", NAMES)
def test_row_products_equal_full_row_products(name):
    ctx = adjoint_context(name)
    sc, basis = ctx.sc, ctx.sc.basis()
    assert isinstance(basis, RowBasis)
    op, unit = sc.operator, sc.unit
    roots = adjoint_identity(name).roots
    fam = lagrange_family(op, adjoint_identity(name), unit=basis)
    assert [m.operator for m in fam.members] == _full_row_members(op, unit,
                                                                  roots)
    assert fam.completeness_target is unit
    pc = sc.swap @ op
    half = Fraction(1, 2)
    cp, cm = sc.parts()
    assert (cp, cm) == ((op + pc).scaled(half), (op - pc).scaled(half))
    # the full identity leaves no residual; without its first root it does
    for rs in (roots, roots[1:]):
        got = product_of_shifts(op, rs, unit=basis)
        assert got == _full_row_shifts(op, unit, rs)
        # the identity basis runs the chain on every row
        assert got == product_of_shifts(op, rs,
                                        RowBasis.identity(op.rows)) @ unit
    assert not product_of_shifts(op, roots[1:], unit=basis).is_zero()
    c2 = cp @ cp
    assert basis.powers(cp, 3) == [c2, c2 @ cp]


def test_minimal_polynomial_takes_the_basis():
    # on the unit's image, the V^(x4) realisation has the minimal polynomial
    # of the structure-constant one, whose basis is the identity
    sc = adjoint_context("sp(4)").sc
    alg, _ = build_classical(*series_rank("sp", 4))
    struct = adjoint_split_casimir(alg)
    want = minimal_polynomial(struct.operator, 8, struct.basis(), seed=2)
    assert want["confirmed"]
    assert minimal_polynomial(sc.operator, 8, sc.basis(), seed=2) == want


@pytest.mark.parametrize("kind,n", [("sl", 4), ("so", 5), ("sp", 4)])
def test_pair_basis_shapes(kind, n):
    reps, b2 = pair_basis(kind, n)
    m = {"sl": n * n - 1, "so": n * (n - 1) // 2, "sp": n * (n + 1) // 2}
    assert len(reps) == b2.cols == m[kind]
    assert np.all(np.diff(reps) > 0)
    # each row of B_2 holds at most one entry, but the last diagonal of sl
    counts = np.diff(b2.indptr)
    if kind == "sl":
        assert counts[n * n - 1] == n - 1
        counts = np.delete(counts, n * n - 1)
    assert counts.max() == 1


def test_so7_lagrange_build_runs_on_the_representative_rows(monkeypatch):
    # a fresh so(7) context, so the basis facts are checked inside the
    # build too: no sparse product has a left factor past the 441 rows
    ta = sosp_adjoint_tensor(7, 1)
    ident = adjoint_identity("so(7)")
    spmm = _kernels.spmm
    left_rows = []

    def counted(a_row, *args):
        left_rows.append(int(a_row.max()) + 1 if len(a_row) else 0)
        return spmm(a_row, *args)
    monkeypatch.setattr(_kernels, "spmm", counted)
    fam = lagrange_family(ta.casimir.operator, ident,
                          unit=ta.casimir.basis())
    monkeypatch.undo()
    assert left_rows and max(left_rows) <= 441
    assert len(fam.members) == len(ident.roots)
    assert [m.operator for m in fam.members] == _full_row_members(
        ta.casimir.operator, ta.casimir.unit, ident.roots)


def _sp4():
    ta = sosp_adjoint_tensor(4, -1)
    return ta.casimir, adjoint_identity("sp(4)")


def _refused(basis, op, ident, detail):
    with pytest.raises(RowBasisError) as err:
        lagrange_family(op, ident, unit=basis)
    assert err.value.detail == detail
    row, col = err.value.witness
    assert 0 <= row and 0 <= col
    return err.value


def test_flipped_sign_in_the_pair_basis_is_refused():
    sc, ident = _sp4()
    reps, b2 = pair_basis("sp", 4)
    data = b2.data.copy()
    # an off-diagonal partner entry (j, i) of one column
    at = int(np.flatnonzero(~np.isin(b2.row, reps))[0])
    data[at] = -data[at]
    bad = SparseOp(b2.rows, b2.cols, b2.row, b2.col, data)
    err = _refused(RowBasis.of_pairs(sc.unit, reps, bad), sc.operator,
                   ident, "unit B != B")
    assert err.witness[0] < sc.unit.rows


def test_representatives_that_drop_a_coordinate_are_refused():
    sc, ident = _sp4()
    reps, b2 = pair_basis("sp", 4)
    for dropped in (np.delete(reps, 3), reps[:-1]):
        _refused(RowBasis.of_pairs(sc.unit, dropped, b2), sc.operator, ident,
                 "S B != 1")


def test_perturbed_unit_is_refused():
    sc, ident = _sp4()
    unit = sc.unit
    data = unit.data.copy()
    data[len(data) // 2] += 1
    bad = SparseOp(unit.rows, unit.cols, unit.row, unit.col, data,
                   unit.scale)
    with pytest.raises(RowBasisError) as err:
        RowBasis.of_pairs(bad, *pair_basis("sp", 4)).head
    assert err.value.detail in ("unit B != B", "B S unit != unit")
    assert len(err.value.witness) == 2
    first = (err.value.detail, err.value.witness)
    # the exact chain and lagrange_family's randomized precheck, which
    # runs on the rows, both stop at the basis facts
    with pytest.raises(RowBasisError) as err:
        product_of_shifts(sc.operator, ident.roots,
                          unit=RowBasis.of_pairs(bad, *pair_basis("sp", 4)))
    assert (err.value.detail, err.value.witness) == first
    with pytest.raises(RowBasisError) as err:
        lagrange_family(sc.operator, ident,
                        unit=RowBasis.of_pairs(bad, *pair_basis("sp", 4)))
    assert (err.value.detail, err.value.witness) == first


def test_randomized_identity_on_the_rows_names_the_full_residual():
    # an operator perturbed inside the unit's image (unit E added): the
    # randomized check on the representative rows FAILs with the
    # [seed, draw, coordinate] of the full-space residual
    ta = sosp_adjoint_tensor(7, 1)
    sc, basis = ta.casimir, ta.casimir.basis()
    ident = adjoint_identity("so(7)")
    r = int(basis.rows[10])
    e = SparseOp(sc.unit.rows, sc.unit.cols, np.array([r]), np.array([r]),
                 np.array([1]))
    bad = sc.operator + (sc.unit @ e).scaled(Fraction(1, 3))
    assert basis.lift(bad) is not None
    got = verify_identity(bad, ident, basis, "randomized_exact", trials=4,
                          seed=5)
    rng = np.random.default_rng(5)
    want = None
    for t in range(4):
        v = sc.unit.matvec(Vec.random_exact(sc.unit.rows, rng))
        res = apply_poly_factors(bad, ident.roots, v, unit=sc.unit)
        if not res.is_zero():
            want = ("FAIL", t + 1, [5, t + 1, int(np.flatnonzero(res.data)[0])])
            break
    assert want is not None
    assert (got.status, got.trials, got.witness) == want
    assert verify_identity(sc.operator, ident, basis, "randomized_exact",
                           trials=4, seed=5).passed


def test_left_factor_off_the_image_is_refused():
    # so(5): the rows and columns whose first site pair is (i, i) are dead
    # (the unit kills them), so an entry there leaves every vector of the
    # image alone and the randomized precheck passes, but op != B (S op)
    ta = sosp_adjoint_tensor(5, 1)
    sc, ident = ta.casimir, adjoint_identity("so(5)")
    dead = 0  # coordinate (0, 0, 0, 0): both site pairs diagonal
    extra = SparseOp(sc.operator.rows, sc.operator.cols,
                     np.array([dead]), np.array([dead]),
                     np.array([1]), sc.operator.scale)
    bad = sc.operator + extra
    basis = sc.basis()
    err = _refused(basis, bad, ident, "op is not in the unit's image")
    assert err.witness == [dead, dead]
    with pytest.raises(RowBasisError):
        product_of_shifts(bad, ident.roots, unit=basis)
    # the good operator still builds
    assert lagrange_family(sc.operator, ident, unit=basis).members


def test_row_chain_refuses_an_op_that_does_not_commute():
    # an operator in the unit's image (unit X) that does not commute with it
    ta = sosp_adjoint_tensor(4, -1)
    sc = ta.casimir
    basis = sc.basis()
    x = sc.unit @ ta.ops["P13"]
    assert basis.lift(x) is not None
    with pytest.raises(KernelError, match="commute"):
        product_of_shifts(x, [Fraction(0)], unit=basis)


def test_identity_basis_adds_no_product_and_no_row_pass(monkeypatch):
    # the identity counterpart of test_identity_unit_is_never_applied: the
    # chain of a defining family starts from 1 and op itself, so only the
    # powers op^2 .. op^(roots - 1) are products, and an exact check on an
    # identity basis never selects or expands rows
    from splitcasimir import casimir, kernel
    from splitcasimir.catalog import defining
    from splitcasimir.identities import (
        defining_identity,
        verify_adjoint_identity,
        verify_universal_sym_identity,
    )
    matmul = SparseOp.__matmul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)
    for name in ("g2", "e7"):
        _, rep = defining(name)
        sc = casimir.split_casimir(rep, rep)
        roots = defining_identity(name).roots
        basis = sc.basis()
        monkeypatch.setattr(SparseOp, "__matmul__", counted)
        fam = lagrange_family(sc.operator, defining_identity(name), basis)
        monkeypatch.undo()
        assert len(calls) == len(roots) - 2, name
        assert len(fam.members) == len(roots)
        assert fam.completeness_target is basis.unit
        calls.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("rows selected or expanded")
    for module in (casimir, kernel):
        monkeypatch.setattr(module, "compress", refuse)
        monkeypatch.setattr(module, "expand", refuse)
    rep = verify_universal_sym_identity("g2", "exact_full")
    assert (rep.status, rep.method) == ("PASS", "exact_full")
    rep = verify_adjoint_identity("f4", "exact_full")
    assert (rep.status, rep.method) == ("PASS", "exact_full")
