"""Octonion, Jordan-algebra and minuscule constructions."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from splitcasimir import casimir
from splitcasimir.algebras import (
    ConstructionError,
    Representation,
    check_adjoint_casimir_is_identity,
    check_antisymmetry,
    check_jacobi,
    check_killing,
    check_representation,
    structure_from_generators,
)
from splitcasimir.exceptional import (
    build_e6_defining,
    build_e7_defining,
    build_f4_defining,
    build_g2_defining,
    invariant_antisymmetric_form,
    j3_derivations,
    j3_structure,
    j3_tensor,
    octonion_f,
    octonion_table,
)
from splitcasimir.catalog import chevalley, defining
from splitcasimir.classical import build_classical
from splitcasimir.kernel import SparseOp, combine, kron, vec_columns
from splitcasimir.serialize import dumps


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
    table = octonion_table()

    def mul(x, y):
        return np.einsum("i,j,ijk->k", x, y, table)

    units = np.eye(8, dtype=np.int64)
    for x in units:
        for y in units:
            assert np.array_equal(mul(x, mul(x, y)), mul(mul(x, x), y))


# Fraction oracle: octonion products and J3 Jordan products on 3x3 grids
# of octonion 8-vectors, read in the basis [b_0..b_25, I3]

def _oct_mul(x, y):
    f = octonion_f()
    out = [Fraction(0)] * 8
    for i in range(8):
        if not x[i]:
            continue
        for j in range(8):
            if not y[j]:
                continue
            p = x[i] * y[j]
            if i == 0:
                out[j] += p
            elif j == 0:
                out[i] += p
            elif i == j:
                out[0] -= p
            else:
                for k in range(1, 8):
                    out[k] += f.get((i, j, k), 0) * p
    return out


def _j3_diag(*xs):
    m = [[[Fraction(0)] * 8 for _ in range(3)] for _ in range(3)]
    for a, x in enumerate(xs):
        m[a][a][0] = Fraction(x)
    return m


def _j3_basis():
    basis = [None] * 27
    basis[0] = _j3_diag(1, -1, 0)
    basis[17] = _j3_diag(1, 1, -2)
    basis[26] = _j3_diag(1, 1, 1)
    for offset, (a, b) in {1: (0, 1), 9: (0, 2), 18: (1, 2)}.items():
        for k in range(8):
            m = _j3_diag(0, 0, 0)
            unit = (k + 1) % 8
            m[a][b][unit] = Fraction(1)
            m[b][a][unit] = Fraction(1 if unit == 0 else -1)
            basis[offset + k] = m
    return basis


def _jordan(x, y):
    out = _j3_diag(0, 0, 0)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                p = _oct_mul(x[a][c], y[c][b])
                q = _oct_mul(y[a][c], x[c][b])
                for k in range(8):
                    out[a][b][k] += (p[k] + q[k]) / 2
    return out


def _j3_coords(x):
    x0, x1, x2 = (x[a][a][0] for a in range(3))
    out = [Fraction(0)] * 27
    out[0] = (x0 - x1) / 2
    out[17] = (x0 + x1 - 2 * x2) / 6
    out[26] = (x0 + x1 + x2) / 3
    for offset, (a, b) in {1: (0, 1), 9: (0, 2), 18: (1, 2)}.items():
        for k in range(8):
            out[offset + k] = x[a][b][(k + 1) % 8]
    return out


def test_integer_tables_match_fraction_oracle():
    table = octonion_table()
    units = [[Fraction(int(i == a)) for i in range(8)] for a in range(8)]
    for a in range(8):
        for b in range(8):
            assert _oct_mul(units[a], units[b]) == list(table[a, b])
    basis = _j3_basis()
    dense = j3_tensor().to_dense_fractions()
    for i in range(27):
        for j in range(i, 27):
            want = _j3_coords(_jordan(basis[i], basis[j]))
            assert list(dense[i * 27 + j]) == want
            assert list(dense[j * 27 + i]) == want


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
    gram, d_op = j3_structure()
    d = {(r // 26, r % 26, k): v for r, k, v in d_op.entries()}

    def dv(i, j, k):
        return d.get((i, j, k), Fraction(0))

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


def test_e6_acts_on_a_weight_basis_of_the_chevalley_e6():
    alg, rep = build_e6_defining()
    assert defining("e6")[0] is chevalley("e6")[0] is alg
    for h in rep.generators[:6]:
        assert np.array_equal(h.row, h.col)
    # the weights are the 27 distinct diagonals of h_1..h_6
    cartan = [h.to_dense_fractions() for h in rep.generators[:6]]
    assert len({tuple(h[k, k] for h in cartan) for k in range(27)}) == 27


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
    for t in rep.generators:
        assert ((t.transpose() @ j) + (j @ t)).is_zero()


def _sp_generators(j):
    """The maps S J over the symmetric unit matrices S: they span sp(J),
    and J is the only invariant antisymmetric form up to scale."""
    n = len(j)
    j_op = SparseOp.from_dense(j)
    return [SparseOp.from_triplets(n, n, [(a, b, 1), (b, a, 1)]) @ j_op
            for a in range(n) for b in range(a, n)]


@pytest.mark.parametrize("gens, message", [
    # two copies of the 2-dim module carry three invariant forms
    ([kron(SparseOp.identity(2), x)
      for x in _sp_generators([[0, 1], [-1, 0]])], "has dim 3"),
    (_sp_generators([[0, 1, 0, 0], [-1, 0, 0, 0],
                     [0, 0, 0, 2], [0, 0, -2, 0]]), "is not scalar"),
    # J^2 = -2
    (_sp_generators([[0, 1, 1, 0], [-1, 0, 0, 1],
                     [-1, 0, 0, -1], [0, -1, 1, 0]]), "not a rational square"),
])
def test_symplectic_form_checks_raise(gens, message):
    alg, _ = build_classical("C", 2)
    rep = Representation(alg, 4, gens, "other")
    with pytest.raises(ConstructionError, match=message):
        invariant_antisymmetric_form(rep)


def test_perturbed_generator_leaves_the_span():
    # a diagonal entry is invisible to the f4 readout (it reads strict upper
    # triangles), so only the span check can reject it
    gens, readout = j3_derivations()
    bad = list(gens)
    bad[5] = gens[5] + SparseOp.from_triplets(26, 26, [(0, 0, 1)])
    assert readout @ vec_columns(bad) == SparseOp.identity(52)
    with pytest.raises(ConstructionError, match="left the span"):
        structure_from_generators(bad, readout)
    assert structure_from_generators(gens, readout) == \
        build_f4_defining()[0].struct


def _digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(dumps(op))
    return h.hexdigest()


# sha256 of `serialize.dumps` of each construction output, as built by the
# per-pair Fraction constructions these builds replaced; e6 shares the struct
# and Killing form of the Chevalley E6 (`test_chevalley`)
_PINNED = {
    "g2.struct": "a8e8cafa938faf34f9a6516e7db921b0b28c3a53c7a53db0f371fd4dd2077112",
    "g2.killing": "fe45340b65919adfa04937aa128ceb3059de2d2f5579d886c8251f503c5d4285",
    "g2.generators": "08e0a59a8a2f08c4efeca307965739ed5724ed27461e346d68119b69bbda91cf",
    "f4.struct": "dcf6389bf6a9a896512a0eaaeb8055c0a98e2893ad3c31d88fb9bdba4c0e49bc",
    "f4.killing": "ed11e75ea07de488edfe436a7af28f2ff71606b4b43ff4270b3c4c93cd141483",
    "f4.generators": "c1e6abdbebef1f2b702eff9b70e215d6c589cc6dc8e6bd0a6e5d1cdd9f4b7fdd",
    "e6.struct": "50758d7ffa7c6267f0d9df7a5ef8875547f725b2ef23efaf7b9a090079a57d07",
    "e6.killing": "bc4b35c79280e16354872914b21ff04b911275575a7a7ccf358edcf2653afb91",
    "e6.generators": "a38d7df3456948255e22795f33b1ab5be609b56a5b39b1d18104915b5814d5c6",
    "f4.gram": "d8e132cbf95fee7c7e1dbb5682bcfda3ab09e9dfbb1ece7b5d0756104ba262e3",
    "f4.d": "0b2f47b2ac4358faa89f31529f40d1334a6b68ae70e1a73d7a020aa59e932c80",
    "f4.D": "f620b0831f99932cc4010ae7bb4154a81e2a6aae95b290577d45e8d442d9bceb",
    "e7.J": "288dc7f9af49b9ec4eb5bd683672f8f2772821dc6c7663c31d8c0f4d2544ab0d",
    "e7.generators": "534af2e1365e22e800f539ce8930f0d1cd4d8af40018e10bd350dcf0dd7adff8",
}


def test_construction_outputs_are_pinned():
    got = {}
    for name, build in (("g2", build_g2_defining), ("f4", build_f4_defining),
                        ("e6", build_e6_defining)):
        alg, rep = build()
        got[f"{name}.struct"] = _digest([alg.struct])
        got[f"{name}.killing"] = _digest([alg.killing])
        got[f"{name}.generators"] = _digest(rep.generators)
    gram, d = j3_structure()
    got["f4.gram"] = _digest([SparseOp.from_triplets(
        26, 26, [(i, i, g) for i, g in enumerate(gram)])])
    got["f4.d"] = _digest([d])
    got["f4.D"] = _digest([casimir._f4_d_operator()])
    got["e7.J"] = _digest([invariant_antisymmetric_form(build_e7_defining()[1])])
    got["e7.generators"] = _digest(build_e7_defining()[1].generators)
    assert got == _PINNED
