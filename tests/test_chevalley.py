"""Chevalley basis: integrality, invariants, dimensions, cross-checks."""

import copy
import hashlib

import pytest

from splitcasimir.algebras import (
    ConstructionError,
    check_adjoint_casimir_is_identity,
    check_antisymmetry,
    check_jacobi,
    check_killing,
    check_representation,
)
from splitcasimir.chevalley import (
    build_chevalley_adjoint,
    chevalley_constants,
    chevalley_struct,
    _p_down,
)
from splitcasimir.classical import build_classical
from splitcasimir.rootdata import root_system
from splitcasimir.serialize import dumps


@pytest.mark.parametrize("series,rank,dim", [
    ("A", 1, 3), ("A", 2, 8), ("A", 5, 35), ("B", 3, 21), ("C", 4, 36),
    ("D", 4, 28), ("G", 2, 14), ("F", 4, 52), ("E", 6, 78),
])
def test_chevalley_invariants(series, rank, dim):
    alg, rep = build_chevalley_adjoint(series, rank)
    assert alg.dim == dim
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)


def _digest(op):
    return hashlib.sha256(dumps(op)).hexdigest()


# sha256 of `serialize.dumps` of the struct and Killing metric of each
# Chevalley build, as assembled by the per-pair bracket closure that the
# array build replaced
_PINNED = {
    "A5.struct": "01ad1d8aa1415b38024238ab49112984f238d9c9784c134b493cc13bfb560538",
    "A5.killing": "c99e2dbd933df57b37219f16a5c5a5377a6f11f4c198497dc8c8bf4410cc7a4a",
    "B3.struct": "510959a6dfb75e779ba5e7b6a45663b999662a7a0f3d1a5433d033de54badc71",
    "B3.killing": "54c42c268c646ddca1cb12fedabb37be04925aee7f3a0ff0b56f0f3d1ddca45b",
    "C4.struct": "e1e75c6b2b75ccfdb9bcda3fa3aa27907ab82598d685c868d82a6ab004fe303e",
    "C4.killing": "ec746186596922f729886bbffa72d22ad9f895cf673526eba80e7e08050eec2c",
    "D4.struct": "e024c3c3743e7625877ef56f7b2c1e6c1945679c522cd1453cf402d4a9dbfcd0",
    "D4.killing": "4f9ff24c206543561b69668f8d5f1521c052267322d6e44648b365446c7daee9",
    "G2.struct": "8403bcaf67043921db10b0a158222c440fd469ca29c706494311fc1b504b8db5",
    "G2.killing": "ea6b3e34460225c0315b24e26229866542fa9e4c8051683b50a9ef3afccf69d3",
    "F4.struct": "25988f2c283472e2b6d58df4d2531fa4fbc62e7a8d86634be679f56bb0663a2e",
    "F4.killing": "a1781cb01536ced1fce57389e7c7c45921f67604092d2c02105b1dc56e0f0a80",
    "E6.struct": "50758d7ffa7c6267f0d9df7a5ef8875547f725b2ef23efaf7b9a090079a57d07",
    "E6.killing": "bc4b35c79280e16354872914b21ff04b911275575a7a7ccf358edcf2653afb91",
    "E7.struct": "971aa3cf63b615409aec1c3528c4fd8ce966294cdf2fe11f463740709f8259d5",
    "E7.killing": "7765c1b8e0c1dda06f6417c6bd53ffa9aa53ee37d8b3a16b88390787b8f64ce9",
    "E8.struct": "5f72cc47432bfba5c3485ff45c66d46bf30357829457d760cc00a589ff5ca205",
    "E8.killing": "7b78e7101fe307a5f1656e5d254682acda40cdef6836c49e2d958c1b18c87e6b",
}


def test_chevalley_outputs_are_pinned():
    got = {}
    for series, rank in (("A", 5), ("B", 3), ("C", 4), ("D", 4), ("G", 2),
                         ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        alg, _ = build_chevalley_adjoint(series, rank)
        got[f"{series}{rank}.struct"] = _digest(alg.struct)
        got[f"{series}{rank}.killing"] = _digest(alg.killing)
    assert got == _PINNED


def test_e8_dimension_248():
    alg, _ = build_chevalley_adjoint("E", 8)
    assert alg.dim == 248


def test_e7_dimension_133():
    alg, _ = build_chevalley_adjoint("E", 7)
    assert alg.dim == 133


def test_structure_constants_are_integers():
    for series, rank in [("G", 2), ("F", 4), ("B", 3)]:
        alg, _ = build_chevalley_adjoint(series, rank)
        assert alg.struct.scale == 1  # all C^d_ab integer


def test_n_constants_magnitude_is_p_plus_one():
    for series, rank in (("G", 2), ("F", 4), ("E", 8)):
        cc = chevalley_constants(series, rank)
        rs = cc.rs
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                s = tuple(x + y for x, y in zip(a, b))
                if rs.is_root(s):
                    assert abs(cc.n_pos(a, b)) == _p_down(rs, a, b) + 1


@pytest.mark.parametrize("series,rank", [("G", 2), ("F", 4), ("E", 8)])
def test_root_vector_brackets_exactly_where_roots_add(series, rank):
    """[e_a, e_b], [f_a, f_b], [e_a, f_b] and [f_a, e_b] have a root-vector
    component exactly when the signed sum is a root, and it is that root's
    vector: no sum that is not a root shares a root's key."""
    alg, _ = build_chevalley_adjoint(series, rank)
    rs, r, dim = alg.root_data, alg.root_data.rank, alg.dim
    signed = {}  # basis index of e_alpha / f_alpha -> +alpha / -alpha
    for k, root in enumerate(rs.positive_roots):
        signed[r + 2 * k] = root
        signed[r + 2 * k + 1] = tuple(-x for x in root)

    def add(x, y):
        return tuple(p + q for p, q in zip(signed[x], signed[y]))

    hit = set()
    for row, d, _ in alg.struct.entries():
        a, b = divmod(row, dim)
        if a >= r and b >= r and d >= r:
            assert add(a, b) == signed[d]
            hit.add((a, b))
    assert hit == {(a, b) for a in signed for b in signed
                   if rs.is_root(add(a, b))}


def test_struct_rejects_broken_constants():
    cc = chevalley_constants("G", 2)
    broken = copy.copy(cc)
    broken._n_pos = dict(cc._n_pos)
    del broken._n_pos[next(iter(cc._n_pos))]
    with pytest.raises(ConstructionError, match="missing"):
        chevalley_struct(broken)
    # N = +-3 enters N_{a,-b} = -N_{b,s} (s,s)/(a,a) with a long, s short:
    # +-1 there leaves a third
    broken._n_pos = {k: v // 3 if abs(v) == 3 else v
                     for k, v in cc._n_pos.items()}
    with pytest.raises(ConstructionError, match="non-integer"):
        chevalley_struct(broken)


def test_adjoint_dimension_matches_classical_construction():
    # A_n: both routes give N^2 - 1 generators satisfying the same algebra
    for rank in (1, 2, 3):
        chev, _ = build_chevalley_adjoint("A", rank)
        nat, _ = build_classical("A", rank)
        assert chev.dim == nat.dim


def test_g2_two_constructions_agree_on_invariants():
    """The folded g2 (and f4) act through the Chevalley algebra itself, so
    every invariant of the two agrees by construction."""
    from splitcasimir.catalog import chevalley, defining

    for name in ("g2", "f4"):
        assert defining(name)[0] is chevalley(name)[0]


def test_killing_in_chevalley_basis_is_block_sparse():
    alg, _ = build_chevalley_adjoint("F", 4)
    rs = root_system("F", 4)
    r = rs.rank
    for a, b, _ in alg.killing.entries():
        in_cartan = a < r and b < r
        paired = (a >= r and b >= r and abs(a - b) == 1
                  and (min(a, b) - r) % 2 == 0)
        assert in_cartan or paired
