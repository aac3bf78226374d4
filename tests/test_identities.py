"""Characteristic identities and their independent rediscovery."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from splitcasimir import identities
from splitcasimir.casimir import (
    RowBasis,
    SplitCasimir,
    split_casimir,
    swap_block,
)
from splitcasimir.catalog import adjoint_context, defining
from splitcasimir.identities import (
    CharIdentity,
    adjoint_identity,
    defining_identity,
    exceptional_alpha_beta,
    minimal_polynomial,
    symmetric_part_identity,
    universal_mu,
    verify_adjoint_identity,
    verify_antisymmetric_identity,
    verify_classical_generic_identity,
    verify_defining_identity,
    verify_identity,
    verify_universal_sym_identity,
)
from splitcasimir.kernel import SparseOp, Vec, apply_poly_factors
from splitcasimir.rootdata import root_system
from splitcasimir.vogel import vogel_point


def test_char_identity_rejects_repeated_roots():
    with pytest.raises(ValueError):
        CharIdentity([1, 1, 2])


def test_defining_root_tables():
    assert defining_identity("sl(4)").roots == [Fraction(-5, 32),
                                                Fraction(3, 32)]
    assert set(defining_identity("so(7)").roots) == {
        Fraction(1, 10), Fraction(-1, 10), Fraction(-3, 5)}
    assert set(defining_identity("g2").roots) == {
        0, Fraction(1, 3), -1, -2}
    assert set(defining_identity("f4").roots) == {
        0, -1, -2, Fraction(-1, 2), Fraction(1, 6)}
    assert set(defining_identity("e6").roots) == {
        Fraction(-13, 9), Fraction(-1, 9), Fraction(2, 9)}
    assert set(defining_identity("e7").roots) == {
        Fraction(1, 8), Fraction(-7, 8), Fraction(-19, 8), Fraction(-1, 24)}


def test_adjoint_root_tables():
    assert set(adjoint_identity("sl(5)").roots) == {
        0, Fraction(-1, 2), -1, Fraction(1, 5), Fraction(-1, 5)}
    assert set(adjoint_identity("sl(3)").roots) == {
        0, Fraction(-1, 2), -1, Fraction(1, 3)}
    m = 7
    assert set(adjoint_identity("so(7)").roots) == {
        0, Fraction(-1, 2), -1, Fraction(1, m - 2), Fraction(-2, m - 2),
        Fraction(-(m - 4), 2 * (m - 2))}
    # so(8): -1/3 doubled then merged -> fifth order
    so8 = adjoint_identity("so(8)")
    assert set(so8.roots) == {0, Fraction(-1, 2), -1, Fraction(1, 6),
                              Fraction(-1, 3)}
    assert so8.merged == {Fraction(-1, 3): 2}
    # so(6): -1/2 collides
    so6 = adjoint_identity("so(6)")
    assert set(so6.roots) == {0, Fraction(-1, 2), -1, Fraction(1, 4),
                              Fraction(-1, 4)}
    assert so6.merged == {Fraction(-1, 2): 2}
    for name, extra in [("g2", (Fraction(1, 4), Fraction(-5, 12))),
                        ("f4", (Fraction(1, 9), Fraction(-5, 18))),
                        ("e6", (Fraction(1, 12), Fraction(-1, 4))),
                        ("e7", (Fraction(1, 18), Fraction(-2, 9))),
                        ("e8", (Fraction(1, 30), Fraction(-1, 5)))]:
        assert set(adjoint_identity(name).roots) == \
            {0, Fraction(-1, 2), -1} | set(extra)


def test_exceptional_table4_values_from_mu_prime():
    # alpha/2t, beta/2t derived from mu' reproduce the fixed table
    table = {8: (Fraction(-1, 3), Fraction(1, 2)),
             28: (Fraction(-1, 6), Fraction(1, 3)),
             14: (Fraction(-1, 4), Fraction(5, 12)),
             52: (Fraction(-1, 9), Fraction(5, 18)),
             78: (Fraction(-1, 12), Fraction(1, 4)),
             133: (Fraction(-1, 18), Fraction(2, 9)),
             248: (Fraction(-1, 30), Fraction(1, 5))}
    for dim, want in table.items():
        assert exceptional_alpha_beta(dim) == want


@pytest.mark.parametrize("name", ["sl(2)", "sl(3)", "sl(5)", "so(5)",
                                  "so(6)", "sp(4)", "sp(6)", "g2", "f4"])
def test_defining_identities_pass(name):
    assert verify_defining_identity(name).passed


@pytest.mark.parametrize("name", ["sl(3)", "sl(4)", "so(7)", "sp(4)", "g2"])
def test_adjoint_identities_pass(name):
    assert verify_adjoint_identity(name).passed
    assert verify_antisymmetric_identity(name).passed


def test_identity_failure_is_reported_not_raised():
    op = SparseOp.identity(4)
    rep = verify_identity(op, CharIdentity([0, 2]), RowBasis.identity(4),
                          target="bogus")
    assert rep.status == "FAIL"
    assert rep.witness is not None


def _per_basis_vector(op, ident, basis):
    """Oracle: the identity's factors applied to each unit e_j in turn, for
    the unit of a row basis."""
    dim = op.rows
    unit = basis.unit
    for j in range(dim):
        e = Vec.zeros(dim)
        e.data[j] = 1
        v = unit.matvec(e)
        if v.is_zero():
            continue
        if not apply_poly_factors(op, ident.roots, v, unit=unit).is_zero():
            return "FAIL", j + 1, [j]
    return "PASS", dim, None


@pytest.mark.parametrize("name,rep", [("sl(3)", "defining"),
                                      ("g2", "defining"),
                                      ("sl(4)", "adjoint"),
                                      ("sp(4)", "adjoint")])
@pytest.mark.parametrize("drop", [None, 0, -1])
def test_exact_full_equals_per_basis_vector_oracle(name, rep, drop):
    if rep == "defining":
        _, drep = defining(name)
        sc, ident = split_casimir(drep, drep), defining_identity(name)
    else:
        sc, ident = adjoint_context(name).sc, adjoint_identity(name)
    op, basis = sc.operator, sc.basis()
    if drop is not None:
        roots = list(ident.roots)
        del roots[drop]
        ident = CharIdentity(roots)
    got = verify_identity(op, ident, basis, method="exact_full")
    assert (got.status, got.trials, got.witness) == \
        _per_basis_vector(op, ident, basis)
    assert got.status == ("PASS" if drop is None else "FAIL")


@pytest.mark.parametrize("drop", [None, 0, 1])
def test_exact_full_chain_lifts_past_int64(drop):
    # upper triangular with eigenvalues a, b, c: minimal polynomial
    # (x - a)(x - b)(x - c).  After the factor for a, both op @ M and the
    # shift c * M hold entries near b (b - a) and c (b - a), past 2^63
    b = 2 ** 40 + 15
    a, c = b - 2 ** 23 - 7, b + 2 ** 23 + 9
    assert min(b, c) * (b - a) >= 2 ** 63
    op = SparseOp.from_triplets(3, 3, [(0, 0, a), (0, 1, 1), (1, 1, b),
                                       (1, 2, 1), (2, 2, c)])
    roots = [a, c, b]
    if drop is not None:
        del roots[drop]
    ident = CharIdentity(roots)
    basis = RowBasis.identity(3)
    got = verify_identity(op, ident, basis, method="exact_full")
    assert (got.status, got.trials, got.witness) == \
        _per_basis_vector(op, ident, basis)
    assert got.status == ("PASS" if drop is None else "FAIL")


@pytest.mark.parametrize("method", ["approx", "exact", "bogus"])
def test_unknown_method_raises(method):
    # a method outside auto | exact_full | randomized_exact must not run
    # under a label it did not earn
    with pytest.raises(ValueError):
        verify_identity(SparseOp.identity(4), CharIdentity([1]),
                        RowBasis.identity(4), method=method)


def test_minimal_polynomial_identity_operator():
    mp = minimal_polynomial(SparseOp.identity(5), 3, RowBasis.identity(5))
    assert mp["roots"] == [Fraction(1)]
    assert mp["coeffs"] == [Fraction(-1), Fraction(1)]  # x - 1
    assert mp["confirmed"]


def test_minimal_polynomial_random_diagonal():
    import numpy as np
    rng = np.random.default_rng(31)
    vals = [int(rng.integers(-4, 5)) for _ in range(8)]
    op = SparseOp.from_triplets(8, 8, [(i, i, v) for i, v in enumerate(vals)])
    mp = minimal_polynomial(op, 8, RowBasis.identity(8), seed=5)
    assert sorted(mp["roots"]) == sorted(set(Fraction(v) for v in vals))
    assert mp["confirmed"]


def test_minimal_polynomial_degree_bound_exceeded():
    op = SparseOp.from_triplets(4, 4, [(i, i, i) for i in range(4)]
                                + [(0, 0, 7)])
    mp = minimal_polynomial(op, 2, RowBasis.identity(4), seed=1)
    assert mp["confirmed"] is False
    assert "degree bound" in mp.get("detail", "")


def test_minimal_polynomial_matches_paper_g2():
    _, rep = defining("g2")
    sc = split_casimir(rep, rep)
    mp = minimal_polynomial(sc.operator, 6, sc.basis())
    assert sorted(mp["roots"]) == sorted(defining_identity("g2").roots)
    assert mp["confirmed"]


def test_e6_minuscule_module_satisfies_the_paper_identity():
    # the 27 built on the minuscule Weyl orbit: the cubic holds on every
    # basis vector, and Krylov rediscovers its roots {-13/9, -1/9, 2/9}
    rep = verify_defining_identity("e6", "exact_full")
    assert (rep.status, rep.method, rep.trials) == ("PASS", "exact_full", 729)
    _, mod = defining("e6")
    sc = split_casimir(mod, mod)
    mp = minimal_polynomial(sc.operator, 8, sc.basis())
    assert sorted(mp["roots"]) == sorted(defining_identity("e6").roots)
    assert mp["confirmed"]


def test_discovered_roots_match_paper_for_small_adjoints():
    for name in ["sl(4)", "so(7)", "sp(4)", "g2"]:
        ctx = adjoint_context(name)
        mp = minimal_polynomial(ctx.sc.operator, 8, ctx.sc.basis(), seed=2)
        assert sorted(set(mp["roots"])) == sorted(adjoint_identity(name).roots)


def test_adjoint_roots_are_casimir_eigenvalue_predictions():
    # every root r satisfies r = c2(lambda)/2 - 1 for a lambda in ad x ad;
    # check the three universal components: trivial, adjoint, 2*theta
    from splitcasimir.casimir import casimir_eigenvalue
    for series, rank, name in [("A", 3, "sl(4)"), ("G", 2, "g2"),
                               ("F", 4, "f4"), ("E", 8, "e8")]:
        rs = root_system(series, rank)
        ad = rs.root_to_weight(rs.highest_root)
        zero = tuple(0 for _ in range(rank))
        two_theta = tuple(2 * x for x in ad)
        roots = set(adjoint_identity(name).roots)
        for lam in (zero, ad, two_theta):
            assert casimir_eigenvalue(rs, lam, ad, ad) in roots


def test_antisym_restriction_divides_x_x_half():
    # on the antisymmetric subspace the minimal polynomial divides x(x+1/2)
    for name in ["sl(3)", "so(5)", "g2"]:
        ctx = adjoint_context(name)
        _, cm = ctx.sc.parts()
        mp = minimal_polynomial(cm, 4, ctx.sc.basis(), seed=3)
        assert set(mp["roots"]) <= {Fraction(0), Fraction(-1, 2)}


def test_universal_symmetric_identity_values():
    assert universal_mu(14) == Fraction(5, 96)
    assert universal_mu(248) == Fraction(1, 300)
    for name in ["sl(3)", "g2"]:
        rep = verify_universal_sym_identity(name)
        assert rep.passed
    assert verify_universal_sym_identity("sl(4)").status == "NOT_APPLICABLE"


def test_classical_generic_identity():
    for name in ["sl(4)", "sl(5)", "so(7)", "sp(4)", "sp(6)"]:
        rep = verify_classical_generic_identity(name)
        assert rep.passed, (name, rep.detail)


def test_table3_values_match_vogel_points():
    # sl(5): alpha/2t = -1/5, beta/2t = 1/5, gamma/2t = 1/2
    pt = vogel_point("sl(5)")
    t = pt.t
    assert (pt.alpha / (2 * t), pt.beta / (2 * t), pt.gamma / (2 * t)) == \
        (Fraction(-1, 5), Fraction(1, 5), Fraction(1, 2))
    # so(7) = B3: roots of the sextic match the Table 3 entries
    pt = vogel_point("so(7)")
    t = pt.t
    roots = set(adjoint_identity("so(7)").roots)
    assert -pt.alpha / (2 * t) in roots
    assert -pt.beta / (2 * t) in roots
    assert -pt.gamma / (2 * t) in roots


def test_symmetric_part_identity_roots():
    ident = symmetric_part_identity("e8")
    assert set(ident.roots) == {0, -1, Fraction(1, 30), Fraction(-1, 5)}
    with pytest.raises(ValueError):
        symmetric_part_identity("sl(4)")


# --- randomized checks on the composed C+- --------------------------------

@pytest.mark.parametrize("name", ["g2", "f4"])
@pytest.mark.parametrize("method", ["exact_full", "randomized_exact"])
def test_part_checks_pass_on_both_methods(name, method):
    for check in (verify_antisymmetric_identity,
                  verify_universal_sym_identity):
        rep = check(name, method)
        assert (rep.status, rep.method) == ("PASS", method), rep.target


@pytest.mark.parametrize("name", ["sl(4)", "so(7)"])
@pytest.mark.parametrize("method", ["exact_full", "randomized_exact"])
def test_generic_classical_identity_on_both_methods(name, method):
    rep = verify_classical_generic_identity(name, method)
    assert (rep.status, rep.method) == ("PASS", method)


def _first_failure(op, roots, unit, trials, seed, block):
    """Oracle: the randomized loop on a built operator, unit applied; a
    FAIL names the seed, the draw and the first nonzero coordinate of the
    residual's block coordinates."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        v = unit.matvec(Vec.random_exact(op.cols, rng))
        res = apply_poly_factors(op, roots, v, unit=unit)
        if not res.is_zero():
            nonzero = np.flatnonzero(block.restrict(res).data)
            return "FAIL", t + 1, [seed, t + 1, int(nonzero[0])]
    return "PASS", trials, None


@pytest.mark.parametrize("name", ["g2", "sl(3)"])
def test_perturbed_root_fails_on_composed_part(name):
    sc = adjoint_context(name).sc
    ident = CharIdentity([0, Fraction(-1, 3)])  # C-(C- + 1/2) = 0 is true
    block = swap_block(sc, -1)
    got = verify_identity(block.compress(sc.operator), ident, sc.basis(),
                          "randomized_exact", trials=4, seed=5, block=block)
    want = _first_failure(sc.parts()[1], ident.roots, sc.unit, 4, 5, block)
    assert (got.status, got.trials, got.witness) == want
    assert got.status == "FAIL" and got.witness is not None


def test_block_identity_needs_the_root_zero():
    # without the root 0 the other block's part of v would go unchecked
    sc = adjoint_context("g2").sc
    block = swap_block(sc, -1)
    with pytest.raises(ValueError):
        verify_identity(block.compress(sc.operator),
                        CharIdentity([Fraction(-1, 2)]), sc.basis(),
                        "randomized_exact", block=block)


def _break(monkeypatch, name, **changes):
    """Serve a copy of the adjoint context of ``name`` with the split
    Casimir's fields (``operator``, ``sigma``) or ``big_k`` replaced."""
    ctx = adjoint_context(name)
    sc_changes = {k: v for k, v in changes.items() if k != "big_k"}
    bad = dataclasses.replace(
        ctx, sc=dataclasses.replace(ctx.sc, **sc_changes),
        big_k=changes.get("big_k", ctx.big_k))
    monkeypatch.setattr(identities, "adjoint_context", lambda _: bad)
    return ctx


def _nudged(op, at):
    """op with entry ``at`` of its triplets raised by one unit of scale."""
    data = op.data.copy()
    data[at] += 1
    return SparseOp(op.rows, op.cols, op.row, op.col, data, op.scale)


_BLOCK_CHECKS = [verify_antisymmetric_identity, verify_universal_sym_identity,
                 verify_classical_generic_identity]


@pytest.mark.parametrize("name,checks", [("g2", _BLOCK_CHECKS[:2]),
                                         ("so(7)", _BLOCK_CHECKS[::2])])
def test_non_swap_invariant_casimir_fails_with_witness(monkeypatch, name,
                                                       checks):
    # one entry of Chat changed, in a row that sigma moves, and not its
    # mirror: sigma Chat sigma != Chat
    ctx = adjoint_context(name)
    c = ctx.sc.operator
    at = int(np.flatnonzero(ctx.sc.sigma[c.row] != c.row)[0])
    _break(monkeypatch, name, operator=_nudged(c, at))
    for check in checks:
        rep = check(name, "randomized_exact")
        assert rep.status == "FAIL" and rep.witness, rep.target
        assert rep.detail == "sigma Chat sigma != Chat"


def test_casimir_off_the_unit_image_fails_with_witness(monkeypatch):
    # an entry of the so(7) Chat on sigma-fixed coordinates changed: Chat
    # still commutes with sigma, but unit Chat != Chat, so C+- would not
    # be Chat times a swap projector
    ctx = adjoint_context("so(7)")
    c, sigma = ctx.sc.operator, ctx.sc.sigma
    at = int(np.flatnonzero((sigma[c.row] == c.row)
                            & (sigma[c.col] == c.col))[0])
    _break(monkeypatch, "so(7)", operator=_nudged(c, at))
    for check in _BLOCK_CHECKS[::2]:
        rep = check("so(7)", "randomized_exact")
        assert rep.status == "FAIL" and rep.witness, rep.target
        assert rep.detail == "unit Chat != Chat"


def test_non_swap_invariant_k_fails_with_witness(monkeypatch):
    # an entry of K in a sigma-fixed row and a moved column changed: sigma K
    # is still K, but K sigma != K, and the symmetric checks refuse the block
    ctx = adjoint_context("g2")
    k, sigma = ctx.big_k, ctx.sc.sigma
    at = int(np.flatnonzero((sigma[k.row] == k.row)
                            & (sigma[k.col] != k.col))[0])
    _break(monkeypatch, "g2", big_k=_nudged(k, at))
    rep = verify_universal_sym_identity("g2", "randomized_exact")
    assert rep.status == "FAIL" and rep.witness
    assert rep.detail == "K sigma != K"
    # C- does not read K
    assert verify_antisymmetric_identity("g2", "randomized_exact").passed


@pytest.mark.parametrize("name", ["g2", "sl(3)"])
def test_non_involutive_sigma_fails_with_witness(monkeypatch, name):
    # a 3-cycle on the first coordinates: still a permutation, but
    # sigma^2 != 1
    ctx = adjoint_context(name)
    sigma = ctx.sc.sigma.copy()
    sigma[[0, 1, 2]] = sigma[[1, 2, 0]]
    _break(monkeypatch, name, sigma=sigma)
    for check in _BLOCK_CHECKS[:2]:
        rep = check(name, "randomized_exact")
        assert rep.status == "FAIL" and rep.witness, rep.target
        assert "involution" in rep.detail


@pytest.mark.parametrize("name,check", [
    ("g2", verify_universal_sym_identity),
    ("sl(3)", verify_universal_sym_identity),
    ("sl(4)", verify_classical_generic_identity),
    ("so(7)", verify_classical_generic_identity)])
@pytest.mark.parametrize("method", ["exact_full", "randomized_exact"])
def test_wrong_k_fails_the_composed_right_hand_side(monkeypatch, name, check,
                                                    method):
    ctx = adjoint_context(name)
    bad = dataclasses.replace(ctx, big_k=ctx.big_k.scaled(2))
    monkeypatch.setattr(identities, "adjoint_context", lambda _: bad)
    rep = check(name, method)
    assert rep.status == "FAIL"
    if method == "randomized_exact":
        assert rep.witness is not None and rep.trials == 1
    else:
        # doubling K moves the right-hand side by a multiple of K, so the
        # two sides differ exactly on K's entries
        row, col = rep.witness
        assert np.any((ctx.big_k.row == row) & (ctx.big_k.col == col))


@pytest.mark.parametrize("name", ["g2", "e6"])
def test_randomized_part_checks_never_build_the_parts(monkeypatch, name):
    def refuse(self):
        raise AssertionError("parts() built")
    monkeypatch.setattr(SplitCasimir, "parts", refuse)
    assert verify_antisymmetric_identity(name, "randomized_exact").passed
    assert verify_universal_sym_identity(name, "randomized_exact").passed
    with pytest.raises(AssertionError):
        verify_antisymmetric_identity(name, "exact_full")


def test_identity_unit_is_never_applied(monkeypatch):
    ctx = adjoint_context("g2")
    basis = ctx.sc.basis()
    unit = basis.unit
    assert unit.is_identity()
    ident = adjoint_identity("g2")
    want = verify_identity(ctx.sc.operator, ident,
                           RowBasis.identity(unit.rows), "randomized_exact",
                           trials=4)
    matvec = SparseOp.matvec

    def guarded(self, v):
        assert self is not unit, "identity unit applied"
        return matvec(self, v)
    monkeypatch.setattr(SparseOp, "matvec", guarded)
    got = verify_identity(ctx.sc.operator, ident, basis, "randomized_exact",
                          trials=4)
    assert got == want and got.passed
    assert verify_universal_sym_identity("g2", "randomized_exact",
                                         trials=4).passed
