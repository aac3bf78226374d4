"""R-matrices: YBE, unitarity, form equivalence, classical YBE."""

from fractions import Fraction

import dataclasses

import numpy as np
import pytest

from splitcasimir import catalog, yangbaxter
from splitcasimir.kernel import SparseOp, Vec, apply_two_site
from splitcasimir.yangbaxter import (
    DEFAULT_SAMPLES,
    PoleError,
    RMatrixFamily,
    UnsupportedCaseError,
    build_rmatrix,
    function_of_op,
    verify_classical_ybe,
    verify_form_equivalence,
    verify_unitarity,
    verify_ybe,
)

SMALL_CASES = ["sl(2)", "sl(3)", "so(5)", "sp(4)", "g2"]


def test_interpolation_reproduces_function():
    op = SparseOp.from_triplets(4, 4, [(i, i, v) for i, v in
                                       enumerate([1, 1, 3, -2])])
    got = function_of_op(op, [1, 3, -2])(lambda x: (x + 5) / (x - 7))
    want = SparseOp.from_triplets(
        4, 4, [(i, i, Fraction(v + 5, v - 7)) for i, v in
               enumerate([1, 1, 3, -2])])
    assert got == want


def test_interpolation_on_non_diagonalizable_op():
    # a 3x3 Jordan block of eigenvalue 2 plus the diagonal entry 5: p(A) is
    # the interpolating polynomial of fn on the roots applied to A, here
    # checked against the dense factor-by-factor Lagrange form
    op = SparseOp.from_triplets(4, 4, [(0, 0, 2), (1, 1, 2), (2, 2, 2),
                                       (0, 1, 1), (1, 2, 1), (3, 3, 5)])
    roots = [Fraction(2), Fraction(5), Fraction(-1)]

    def fn(x):
        return (x + 5) / (x - 7)

    def other(x):
        return x * x - 3

    dense = op.to_dense_fractions()
    eye = SparseOp.identity(4).to_dense_fractions()

    def oracle(f):
        want = np.full((4, 4), Fraction(0), dtype=object)
        for aj in roots:
            term = eye * f(aj)
            for ai in roots:
                if ai != aj:
                    term = term.dot(dense - eye * ai) / (aj - ai)
            want = want + term
        return want

    of_op = function_of_op(op, roots)
    got = of_op(fn)
    assert np.array_equal(got.to_dense_fractions(), oracle(fn))
    # A is not diagonalizable, so p(A) has a nilpotent part
    assert got.to_dense_fractions()[0, 2] != 0
    # the same callable serves a second function from the powers it keeps
    assert np.array_equal(of_op(other).to_dense_fractions(), oracle(other))
    with pytest.raises(PoleError):
        function_of_op(op, roots + [Fraction(7)])(fn)


# the Casimir-rational poles: p(a) over the roots a of each Mobius factor
_CASIMIR_POLES = {
    ("sl(3)", None): [0, 1],
    ("so(5)", None): [Fraction(-3, 2), 0, 1],
    ("sp(4)", None): [-3, -1, 0],
    ("g2", None): [-1, 0, 1, 4, 6],
    ("f4", Fraction(1, 2)): [-1, 0, 1, 4, 6, 9],
    ("f4", Fraction(4, 3)): [-1, 0, 1, 4, 6, 9],
    ("e6", None): [-4, 0, 1],
}


@pytest.mark.parametrize("case, beta", list(_CASIMIR_POLES))
def test_casimir_rational_poles(case, beta):
    fam = build_rmatrix(case, "casimir_rational", beta)
    assert fam.poles == _CASIMIR_POLES[case, beta]


@pytest.mark.parametrize("case, beta, products", [
    ("f4", Fraction(1, 2), 1),  # the product of the two factors
    ("e6", None, 0),            # one factor, its sign in the values
])
def test_casimir_rational_powers_built_once(monkeypatch, case, beta,
                                            products):
    fam = build_rmatrix(case, "casimir_rational", beta)
    fam.evaluate(Fraction(1, 2))
    calls = []
    real = SparseOp.__matmul__
    monkeypatch.setattr(SparseOp, "__matmul__",
                        lambda a, b: calls.append(1) or real(a, b))
    fam.evaluate(Fraction(2, 5))
    assert len(calls) == products


@pytest.mark.parametrize("case", ["g2", "f4"])
def test_spectral_build_prepares_no_casimir_form(monkeypatch, case):
    # the spectral form reads only the invariant set: no split Casimir and
    # no minimal-polynomial search of its parts
    calls = {"_minimal_roots": 0, "split_casimir": 0}
    for name in calls:
        real = getattr(yangbaxter, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(yangbaxter, name, counted)
    fam = build_rmatrix(case, "spectral")
    fam.evaluate(Fraction(1, 2))
    assert calls == {"_minimal_roots": 0, "split_casimir": 0}


def test_identity_rmatrix_satisfies_ybe():
    # trivial case: R(u) = I solves YBE on any tensor cube
    d = 3
    ident = SparseOp.identity(d * d)
    rng = np.random.default_rng(0)
    v = Vec.random_exact(d ** 3, rng)
    lhs = apply_two_site(ident, v, (0, 1), 3, d)
    assert lhs == v


@pytest.mark.parametrize("case", SMALL_CASES)
def test_ybe_exact(case):
    fam = build_rmatrix(case, "spectral")
    for u, v in DEFAULT_SAMPLES[:2]:
        rep = verify_ybe(fam, u, v, trials=2)
        assert rep.passed and rep.method == "exact"


@pytest.mark.parametrize("case", SMALL_CASES)
def test_unitarity_exact(case):
    fam = build_rmatrix(case, "spectral")
    rep = verify_unitarity(fam, Fraction(2, 5))
    assert rep.passed
    fam_c = build_rmatrix(case, "casimir_rational")
    rep = verify_unitarity(fam_c, Fraction(3, 8))
    assert rep.passed


def test_unitarity_at_zero_is_trivial():
    fam = build_rmatrix("sl(3)", "spectral")
    rep = verify_unitarity(fam, Fraction(0))
    assert rep.passed


@pytest.mark.parametrize("case", SMALL_CASES)
def test_form_equivalence_small(case):
    rep = verify_form_equivalence(case,
                                  samples=[Fraction(1, 2), Fraction(2, 5)])
    assert rep.passed, rep.detail


def test_g2_spectral_coefficients():
    # R(u) scales each projector image by the listed rational function
    from splitcasimir.projectors import defining_family
    fam = build_rmatrix("g2", "spectral")
    u = Fraction(2, 5)
    r = fam.evaluate(u)
    proj = {m.expected_dim: m.operator
            for m in defining_family("g2").members}
    coeffs = {1: (u + 1) * (u + 6) / ((u - 1) * (u - 6)),
              7: (u + 4) / (u - 4),
              14: (u + 1) / (u - 1),
              27: Fraction(1)}
    for dim, c in coeffs.items():
        assert r @ proj[dim] == proj[dim].scaled(c)


def test_rmatrix_commutes_with_family_at_other_parameter():
    fam = build_rmatrix("sl(3)", "spectral")
    from splitcasimir.casimir import swap_operator
    p = swap_operator(3)
    r1 = fam.evaluate(Fraction(1, 2))
    r2 = p @ fam.evaluate(Fraction(1, 3)) @ p
    assert (r1 @ r2 - r2 @ r1).is_zero()


def test_pole_rejection():
    fam = build_rmatrix("sl(3)", "spectral")
    with pytest.raises(PoleError):
        fam.evaluate(Fraction(1))
    with pytest.raises(PoleError):
        verify_ybe(fam, Fraction(1, 2), Fraction(1, 2))


def test_e8_refused_with_explanation():
    with pytest.raises(UnsupportedCaseError):
        build_rmatrix("e8", "spectral")


def test_classical_ybe_cases():
    for name in ["sl(2)", "so(5)", "g2"]:
        assert verify_classical_ybe(name, trials=2).passed


def test_f4_form_equivalence_both_betas():
    rep = verify_form_equivalence("f4", samples=[Fraction(1, 2)])
    assert rep.passed, rep.detail


def test_f4_ybe_exact():
    fam = build_rmatrix("f4", "spectral")
    rep = verify_ybe(fam, Fraction(1, 2), Fraction(1, 3), trials=1)
    assert rep.passed and rep.method == "exact"


def test_e6_ybe_exact_and_form():
    fam = build_rmatrix("e6", "spectral")
    rep = verify_ybe(fam, Fraction(2, 5), Fraction(3, 7), trials=1)
    assert rep.passed and rep.method == "exact"
    assert verify_form_equivalence("e6", samples=[Fraction(1, 2)]).passed


def test_e7_ybe_and_form_exact():
    fam = build_rmatrix("e7", "spectral")
    rep = verify_ybe(fam, Fraction(1, 2), Fraction(1, 3), trials=2)
    assert rep.passed and rep.method == "exact"
    assert verify_form_equivalence("e7", samples=[Fraction(1, 2)]).passed


def test_classical_ybe_f4_exact():
    # exact zero on the 26^3-dimensional cube via kron-structured application
    assert verify_classical_ybe("f4", trials=1).passed


def test_rmatrix_commutes_with_diagonal_action():
    # evaluate(u) commutes with T_a x 1 + 1 x T_a at sampled u
    from splitcasimir.catalog import defining
    from splitcasimir.kernel import kron
    alg, rep = defining("sl(3)")
    fam = build_rmatrix("sl(3)", "casimir_rational")
    r = fam.evaluate(Fraction(2, 5))
    ident = SparseOp.identity(3)
    for t in rep.generators:
        delta = kron(t, ident) + kron(ident, t)
        assert (delta @ r - r @ delta).is_zero()


def test_invariant_set_built_once_per_process(monkeypatch):
    # every R-matrix build reads one shared, read-only invariant set; so(12)
    # is built by no other test, so its set is not cached yet
    calls = []
    real = catalog.invariant_set
    monkeypatch.setattr(catalog, "invariant_set",
                        lambda rep: calls.append(rep) or real(rep))
    for form in ("spectral", "casimir_rational", "spectral"):
        build_rmatrix("so(12)", form).evaluate(Fraction(1, 3))
    assert verify_form_equivalence("so(12)", samples=[Fraction(1, 3)]).passed
    inv = catalog.invariants("so(12)")
    assert len(calls) == 1
    assert catalog.invariants("so(12)") is inv
    with pytest.raises(TypeError):
        inv["K"] = inv["I"]


# mutations: every Yang-Baxter verdict must be able to FAIL, with a witness

_BUMP = Fraction(1, 7)


def _bumped(fam, when=lambda fam: True):
    """fam with R(u) + (1/7) E_00 (where ``when`` holds for fam)."""
    if not when(fam):
        return fam
    n = fam.site_dim ** 2
    bump = SparseOp.from_triplets(n, n, [(0, 0, _BUMP)])
    return RMatrixFamily(fam.case, fam.form, fam.site_dim, fam.poles,
                         fam.beta, _eval=lambda u: fam.evaluate(u) + bump)


def _ybe_residual(r_u, r_uv, r_v, w, d):
    lhs = apply_two_site(r_v, w, (1, 2), 3, d)
    lhs = apply_two_site(r_uv, lhs, (0, 2), 3, d)
    lhs = apply_two_site(r_u, lhs, (0, 1), 3, d)
    rhs = apply_two_site(r_u, w, (0, 1), 3, d)
    rhs = apply_two_site(r_uv, rhs, (0, 2), 3, d)
    return lhs - apply_two_site(r_v, rhs, (1, 2), 3, d)


def _trial_vector(n, seed, trial):
    rng = np.random.default_rng(seed)
    for _ in range(trial):
        w = Vec.random_exact(n, rng)
    return w


def _assert_first_nonzero(residual, coordinate):
    values = residual.fractions()
    assert values[coordinate] != 0
    assert not any(values[:coordinate])


def _assert_ybe_witness(rep, fam, u, v, seed):
    """rep is a FAIL whose witness [seed, draw, coordinate] regenerates a
    trial vector with a residual first nonzero at the coordinate."""
    assert (rep.status, rep.method) == ("FAIL", "exact")
    got_seed, draw, coordinate = rep.witness
    assert (got_seed, draw) == (seed, rep.trials)
    d = fam.site_dim
    w = _trial_vector(d ** 3, seed, draw)
    residual = _ybe_residual(fam.evaluate(u), fam.evaluate(u + v),
                             fam.evaluate(v), w, d)
    _assert_first_nonzero(residual, coordinate)


@pytest.mark.parametrize("case", ["sl(2)", "g2"])
def test_bumped_rmatrix_fails_ybe_with_its_trial_vector(case):
    fam = _bumped(build_rmatrix(case, "spectral"))
    u, v = Fraction(1, 2), Fraction(1, 3)
    rep = verify_ybe(fam, u, v, trials=4, seed=3)
    _assert_ybe_witness(rep, fam, u, v, 3)
    # the witness is three numbers, not the trial vector
    assert len(rep.to_dict()["witness"]) == 3


def test_scaled_d_fails_the_f4_ybe(monkeypatch):
    # D scaled by 1 + 1/1000 in the f4 spectral R-matrix
    real = yangbaxter.invariants

    def scaled(name):
        inv = dict(real(name))
        if name == "f4":
            inv["D"] = inv["D"].scaled(Fraction(1001, 1000))
        return inv
    monkeypatch.setattr(yangbaxter, "invariants", scaled)
    fam = build_rmatrix("f4", "spectral")
    u, v = Fraction(1, 2), Fraction(1, 3)
    rep = verify_ybe(fam, u, v, seed=0)
    _assert_ybe_witness(rep, fam, u, v, 0)


@pytest.mark.parametrize("case", ["sl(3)", "g2"])
def test_bumped_rmatrix_fails_unitarity_at_an_entry(case):
    fam = _bumped(build_rmatrix(case, "spectral"))
    u = Fraction(2, 5)
    rep = verify_unitarity(fam, u)
    assert (rep.status, rep.method) == ("FAIL", "exact")
    from splitcasimir.casimir import swap_operator
    p = swap_operator(fam.site_dim)
    prod = p @ fam.evaluate(u) @ p @ fam.evaluate(-u)
    row, col = rep.witness
    assert prod.to_dense_fractions()[row, col] != int(row == col)


@pytest.mark.parametrize("case, when, detail", [
    ("sl(3)", lambda fam: fam.form == "casimir_rational", "spectral !="),
    # only the second beta value is bumped: the forms agree at beta = 1/2
    ("f4", lambda fam: fam.beta == Fraction(4, 3), "beta values disagree"),
])
def test_bumped_form_fails_form_equivalence_at_an_entry(monkeypatch, case,
                                                       when, detail):
    real = yangbaxter.build_rmatrix
    monkeypatch.setattr(yangbaxter, "build_rmatrix",
                        lambda *args, **kw: _bumped(real(*args, **kw), when))
    u = Fraction(1, 2)
    rep = verify_form_equivalence(case, samples=[u])
    assert (rep.status, rep.method) == ("FAIL", "exact")
    assert rep.detail.startswith(detail)
    # the unbumped forms agree, so they differ only at the bump
    assert rep.witness == [0, 0]


@pytest.mark.parametrize("case", ["sl(2)", "g2"])
def test_non_invariant_casimir_fails_classical_ybe(monkeypatch, case):
    real = yangbaxter.split_casimir

    def bumped(rep1, rep2):
        sc = real(rep1, rep2)
        n = sc.operator.rows
        bump = SparseOp.from_triplets(n, n, [(0, 0, _BUMP)])
        return dataclasses.replace(sc, operator=sc.operator + bump)
    monkeypatch.setattr(yangbaxter, "split_casimir", bumped)
    samples = [(Fraction(1, 2), Fraction(1, 3))]
    rep = verify_classical_ybe(case, samples=samples, trials=4, seed=2)
    assert (rep.status, rep.method) == ("FAIL", "exact")
    seed, draw, coordinate = rep.witness
    assert (seed, draw) == (2, rep.trials)
    # the residual of the regenerated vector, as verify_classical_ybe forms
    # it from the bumped Casimir
    _, rep1 = catalog.defining(case)
    c = yangbaxter.split_casimir(rep1, rep1).operator
    d = rep1.dim_module
    w = _trial_vector(d ** 3, seed, draw)
    u, v = samples[0]

    def comm(sa, wa, sb, wb):
        ab = apply_two_site(c, apply_two_site(c, w, sb, 3, d), sa, 3, d)
        ba = apply_two_site(c, apply_two_site(c, w, sa, 3, d), sb, 3, d)
        return (ab - ba).scaled(wa * wb)

    total = (comm((0, 1), 1 / u, (0, 2), 1 / (u + v))
             + comm((0, 2), 1 / (u + v), (1, 2), 1 / v)
             + comm((0, 1), 1 / u, (1, 2), 1 / v))
    _assert_first_nonzero(total, coordinate)
