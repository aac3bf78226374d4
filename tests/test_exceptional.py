"""Octonion, Jordan-algebra and minuscule constructions."""

import itertools
from fractions import Fraction

import pytest

from splitcasimir.algebras import (
    check_adjoint_casimir_is_identity,
    check_antisymmetry,
    check_jacobi,
    check_killing,
    check_representation,
)
from splitcasimir.exceptional import (
    build_e6_defining,
    build_e7_defining,
    build_f4_defining,
    build_g2_defining,
    invariant_antisymmetric_form,
    j3_basis,
    j3_structure,
    octonion_f,
    oct_mul,
)
from splitcasimir.kernel import SparseOp, combine


def test_octonion_f_identities():
    f = octonion_f()

    def fv(i, j, k):
        return f.get((i, j, k), 0)

    for i in range(1, 8):
        for l in range(1, 8):
            total = sum(fv(i, j, k) * fv(j, k, l)
                        for j in range(1, 8) for k in range(1, 8))
            assert total == 6 * (i == l)
    for j in range(1, 8):
        for l in range(1, 8):
            for r in range(1, 8):
                total = sum(fv(i, j, k) * fv(k, l, m) * fv(m, r, i)
                            for i in range(1, 8) for k in range(1, 8)
                            for m in range(1, 8))
                assert total == 3 * fv(j, l, r)


def test_octonion_multiplication_is_alternative_on_basis():
    # x(xy) = (xx)y for basis units: a consequence of alternativity
    units = []
    for a in range(8):
        v = [Fraction(0)] * 8
        v[a] = Fraction(1)
        units.append(v)
    for x in units:
        for y in units:
            lhs = oct_mul(x, oct_mul(x, y))
            xx = oct_mul(x, x)
            rhs = oct_mul(xx, y)
            assert lhs == rhs


def test_g2_construction():
    alg, rep = build_g2_defining()
    assert alg.dim == 14
    assert rep.dim_module == 7
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)
    # derivations are antisymmetric 7x7 matrices
    for t in rep.generators:
        assert (t + t.transpose()).is_zero()


def test_j3_gram_is_diagonal_2_except_rescaled_entry():
    gram, _ = j3_structure()
    assert gram[17] == 6
    assert all(gram[i] == 2 for i in range(26) if i != 17)


def test_d_tensor_identities_metric_raised():
    """Hat-basis (orthonormal) component identities d.d = 56/3 and
    d.d.d = -8 d, contracted with the rational metric (2/g per raised
    index)."""
    gram, d = j3_structure()

    def dv(i, j, k):
        return d.get((i, j, k), Fraction(0))

    by_pair = {}
    for (i, j, k), v in d.items():
        by_pair.setdefault((i, j), []).append((k, v))

    # d^{i1i2,m} d_{i1i2,l} = (56/3) * (g_mm/2) delta_ml  (two raisings)
    for m in range(26):
        for l in range(m, 26):
            tot = Fraction(0)
            for i1 in range(26):
                for i2 in range(26):
                    a = dv(i1, i2, m)
                    if a:
                        b = dv(i1, i2, l)
                        if b:
                            tot += (Fraction(2, gram[i1])
                                    * Fraction(2, gram[i2]) * a * b)
            want = Fraction(56, 3) * Fraction(gram[m], 2) if m == l else 0
            assert tot == want

    # d.d.d = -8 d on a sampled index set (three raisings)
    import numpy as np
    rng = np.random.default_rng(2)
    samples = {(int(rng.integers(0, 26)), int(rng.integers(0, 26)),
                int(rng.integers(0, 26))) for _ in range(25)}
    for (j, l, r) in samples:
        tot = Fraction(0)
        for i in range(26):
            for k in range(26):
                a = dv(i, j, k)
                if not a:
                    continue
                for m in range(26):
                    b = dv(k, l, m)
                    if not b:
                        continue
                    c = dv(m, r, i)
                    if c:
                        tot += (a * b * c * Fraction(2, gram[k])
                                * Fraction(2, gram[m]) * Fraction(2, gram[i]))
        assert tot == -8 * dv(j, l, r)


def test_f4_construction():
    alg, rep = build_f4_defining()
    assert alg.dim == 52
    assert rep.dim_module == 26
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)
    # derivations kill the trace form: g D antisymmetric
    gram, _ = j3_structure()
    g_op = SparseOp.from_triplets(26, 26, [(i, i, gram[i]) for i in range(26)])
    for t in rep.generators[:8]:
        gd = g_op @ t
        assert (gd + gd.transpose()).is_zero()


@pytest.mark.parametrize("build", [build_g2_defining, build_f4_defining])
def test_lower_bracket_entries_expand_fresh_commutators(build):
    # the build evaluates each commutator once per pair a < b; every entry
    # at (b, a) must still expand [T_b, T_a], computed here anew
    alg, rep = build()
    gens, dim = rep.generators, alg.dim
    coeffs = {}
    for r, d, v in alg.struct.entries():
        coeffs.setdefault(r, []).append((v, gens[d]))
    for b in range(dim):
        for a in range(b):
            comm = gens[b] @ gens[a] - gens[a] @ gens[b]
            terms = coeffs.get(b * dim + a)
            if terms is None:
                assert comm.is_zero()
            else:
                assert combine(terms) == comm


def test_e6_construction():
    alg, rep = build_e6_defining()
    assert alg.dim == 78
    assert rep.dim_module == 27
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)


def test_e6_trace_form_proportional_to_killing():
    _, rep = build_e6_defining()
    assert rep.d2() == Fraction(1, 4)


def test_e7_construction_and_symplectic_form():
    alg, rep = build_e7_defining()
    assert alg.dim == 133
    assert rep.dim_module == 56
    assert check_representation(rep)
    j = invariant_antisymmetric_form(rep)
    assert (j + j.transpose()).is_zero()
    assert j @ j == SparseOp.identity(56).scaled(-1)
    # J^{ik} J_{kj} = delta^i_j with J^ = J^{-1} = -J
    assert (j.scaled(-1)) @ j == SparseOp.identity(56)
    for t in rep.generators[:10]:
        assert ((t.transpose() @ j) + (j @ t)).is_zero()
