"""Minuscule modules, their folds and the invariant tensors on weight
bases."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from splitcasimir.algebras import (
    ConstructionError,
    Representation,
    check_adjoint_casimir_is_identity,
    check_antisymmetry,
    check_jacobi,
    check_killing,
    check_representation,
    symmetric_block_inverse,
)
from splitcasimir.exceptional import (
    _folded_module,
    build_e6_defining,
    build_e7_defining,
    build_f4_defining,
    build_g2_defining,
    invariant_antisymmetric_form,
    invariant_tensor,
)
from splitcasimir.catalog import chevalley, defining, invariants
from splitcasimir.classical import build_classical
from splitcasimir.kernel import SparseOp, kron, trace_word
from splitcasimir.serialize import dumps


def _integer(op):
    """op as (dense int64 data, scale)."""
    m = np.zeros((op.rows, op.cols), dtype=np.int64)
    m[op.row, op.col] = op.data
    return m, op.scale


def _check_cubic(rep, sign, square, cube):
    """The invariant 3-tensor t of rep (``sign``: 1 symmetric, -1
    antisymmetric), raised with the module metric g as a dense integer
    oracle, satisfies c t_abm t^ab_l = square g_ml for one c, and then
    c t_ijk t^k_lm t^mi_r = cube t_jlr."""
    n = rep.dim_module
    g, sg = _integer(rep.module_metric)
    ginv_op = symmetric_block_inverse(rep.module_metric)
    assert rep.module_metric @ ginv_op == SparseOp.identity(n)
    gi, sgi = _integer(ginv_op)
    t_op = invariant_tensor(rep, 3, sign)
    t, st = _integer(t_op)
    t = t.reshape(n, n, n)
    # every permutation is stored, with the sign of the permutation
    for perm, s in (((1, 0, 2), sign), ((0, 2, 1), sign), ((2, 0, 1), 1)):
        assert np.array_equal(t.transpose(perm), s * t)
    tt = np.einsum("abm,ax,by,xyl->ml", t, gi, gi, t, optimize=True)
    ttt = np.einsum("ijk,kK,Klm,mM,Mrn,ni->jlr", t, gi, t, gi, t, gi,
                    optimize=True)
    m, l = int(rep.module_metric.row[0]), int(rep.module_metric.col[0])
    c = (square * g[m, l] * sg) / (int(tt[m, l]) * st ** 2 * sgi ** 2)
    scale2 = c * st ** 2 * sgi ** 2
    assert all(scale2 * int(x) == square * sg * int(y)
               for x, y in zip(tt.ravel(), g.ravel()))
    scale3 = c * st ** 3 * sgi ** 3
    assert all(scale3 * int(x) == cube * st * int(y)
               for x, y in zip(ttt.ravel(), t.ravel()))
    return c


def test_d_tensor_identities_metric_raised():
    """c d.d = (56/3) g and c d.d.d = -8 d for the f4 cubic, raised with
    the module metric (not diagonal on the weight basis)."""
    _check_cubic(build_f4_defining()[1], 1, Fraction(56, 3), -8)


def test_f_tensor_identities_metric_raised():
    """c_f f.f = 6 g and c_f f.f.f = 3 f for the g2 3-form."""
    _check_cubic(build_g2_defining()[1], -1, Fraction(6), 3)


@pytest.mark.parametrize("name, rank, sign, dim", [
    ("g2", 3, 1, 0), ("f4", 3, -1, 0), ("e7", 2, 1, 0)])
def test_missing_invariant_tensor_raises_with_its_dimension(name, rank, sign,
                                                            dim):
    # the e7 56 carries no invariant symmetric form, the g2 7 no symmetric
    # cubic and the f4 26 no 3-form
    with pytest.raises(ConstructionError, match=f"has dim {dim}$"):
        invariant_tensor(defining(name)[1], rank, sign)


def test_traces_of_the_cubic_squares():
    # basis-free: Tr D = (56/3) 26, Tr F = 6 * 7
    f4, g2 = invariants("f4"), invariants("g2")
    assert trace_word([f4["D"]]) == Fraction(1456, 3)
    assert trace_word([f4["D"], f4["D"]]) == Fraction(81536, 9)
    assert trace_word([g2["F"]]) == 42
    assert trace_word([g2["F"], g2["F"]]) == 252


def _assert_invariant_metric(rep):
    g = rep.module_metric
    assert g == g.transpose()
    for t in rep.generators:
        assert (t.transpose() @ g + g @ t).is_zero()


def test_g2_construction():
    alg, rep = build_g2_defining()
    assert alg.dim == 14
    assert rep.dim_module == 7
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)
    _assert_invariant_metric(rep)


def test_f4_construction():
    alg, rep = build_f4_defining()
    assert alg.dim == 52
    assert rep.dim_module == 26
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)
    _assert_invariant_metric(rep)


@pytest.mark.parametrize("name, n, nonzero, zero", [
    ("g2", 7, 6, 1), ("f4", 26, 24, 2)])
def test_folded_modules_act_on_weight_bases_of_the_chevalley_algebras(
        name, n, nonzero, zero):
    alg, rep = defining(name)
    assert alg is chevalley(name)[0]
    assert rep.dim_module == n
    r = alg.rank
    for h in rep.generators[:r]:
        assert np.array_equal(h.row, h.col)
    # the weights are the diagonals of h_1..h_r
    cartan = [h.to_dense_fractions() for h in rep.generators[:r]]
    weights = [tuple(h[k, k] for h in cartan) for k in range(n)]
    assert len({w for w in weights if any(w)}) == nonzero
    assert sum(not any(w) for w in weights) == zero


def test_swapped_f4_orbits_break_the_folded_cartan_relations():
    # {1} and {3} exchanged: E_0 becomes e_3, whose node is joined to the
    # orbit {2, 4}, so [H_2, E_0] = -2 E_0 where F4 has A_02 = 0
    with pytest.raises(ConstructionError,
                       match=r"\[H_2, E_0\] = 0 E_0 fails"):
        _folded_module("F", 4, ("E", 6, 27), ((3,), (1,), (2, 4), (0, 5)))


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


def _digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(dumps(op))
    return h.hexdigest()


# sha256 of `serialize.dumps` of each construction output.  g2, f4 and e6
# share the struct and Killing form of their Chevalley builds
# (`test_chevalley`); the e7 generators and J are those of the J3-free
# builds these replaced, and the g2 and f4 entries are those of the weight
# bases of the folded modules.
_PINNED = {
    "g2.struct": "8403bcaf67043921db10b0a158222c440fd469ca29c706494311fc1b504b8db5",
    "g2.killing": "ea6b3e34460225c0315b24e26229866542fa9e4c8051683b50a9ef3afccf69d3",
    "g2.generators": "6e329fe7367cc68a13185a5879e807b803b7a1bf321c028d6c60821c2a04d449",
    "g2.gram": "88ebc55a3e0d09afaf20eccda1b83eadf4c14bed3edbbbb72ad6675d8ace4b9e",
    "g2.f": "b719dc3e82cae17e00f468cae4aaef604b8bf2d5de3e444b1cb2c06cc7aef26f",
    "g2.F": "c091fee4d6bb50e7d0dfce06490e10829802d22cbe9a0a3e4fbceaf6f3b37ffd",
    "f4.struct": "25988f2c283472e2b6d58df4d2531fa4fbc62e7a8d86634be679f56bb0663a2e",
    "f4.killing": "a1781cb01536ced1fce57389e7c7c45921f67604092d2c02105b1dc56e0f0a80",
    "f4.generators": "3735caadbfc8623c6c93ad59e2703f63fea851aebfa29939ab2b0bc230176a88",
    "f4.gram": "4c5d04d569529a6cde2a3b6ccc0c2e232d22bbdb991fee04722949d6f44b92dc",
    "f4.d": "be7f96c05fa4096a8b7f20a6b3ea9759b9b96b482c20e6e6a25e26bca952c859",
    "f4.D": "cf1f2c280229a2809c8ec0b13addfcc4b23c41580187c1173ae9c216dbdf37a3",
    "e6.struct": "50758d7ffa7c6267f0d9df7a5ef8875547f725b2ef23efaf7b9a090079a57d07",
    "e6.killing": "bc4b35c79280e16354872914b21ff04b911275575a7a7ccf358edcf2653afb91",
    "e6.generators": "a38d7df3456948255e22795f33b1ab5be609b56a5b39b1d18104915b5814d5c6",
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
        if rep.module_metric is not None:
            got[f"{name}.gram"] = _digest([rep.module_metric])
    got["g2.f"] = _digest([invariant_tensor(build_g2_defining()[1], 3, -1)])
    got["g2.F"] = _digest([invariants("g2")["F"]])
    got["f4.d"] = _digest([invariant_tensor(build_f4_defining()[1], 3, 1)])
    got["f4.D"] = _digest([invariants("f4")["D"]])
    got["e7.J"] = _digest([invariant_antisymmetric_form(build_e7_defining()[1])])
    got["e7.generators"] = _digest(build_e7_defining()[1].generators)
    assert got == _PINNED
