"""Chevalley basis for any simple type: integer structure constants with a
deterministic extraspecial-pair sign convention, and the adjoint
representation read off from them.

Basis layout: h_1..h_r (simple coroots), then e/f interleaved per positive
root in (height, lex) order.  N_{alpha,beta} signs are fixed by setting the
extraspecial pair of every non-simple positive root to +(p+1) and deriving
the rest from the Jacobi identity; mixed-sign constants follow from the
standard cyclic relation N_{x,y}/(z,z) = N_{y,z}/(x,x) for x+y+z = 0.
The structure constants are read off these tables as integer arrays
(`chevalley_struct`), with no loop over basis pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .algebras import (
    ConstructionError,
    LieAlgebra,
    Representation,
    algebra_from_struct,
)
from .kernel import SparseOp
from .rootdata import Coeffs, RootSystem, algebra_name, root_system


def _p_down(rs: RootSystem, alpha: Coeffs, beta: Coeffs) -> int:
    """Largest p >= 0 with beta - p*alpha a root."""
    p = 0
    cur = tuple(b - a for a, b in zip(alpha, beta))
    while rs.is_root(cur):
        p += 1
        cur = tuple(c - a for a, c in zip(alpha, cur))
    return p


class ChevalleyConstants:
    """N_{alpha,beta} for all root pairs of one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._n_pos: Dict[Tuple[Coeffs, Coeffs], int] = {}
        self._build_positive()

    def _build_positive(self) -> None:
        rs = self.rs
        order = rs.pos_index
        for gamma in rs.positive_roots:
            if sum(gamma) == 1:
                continue
            pairs = []
            for alpha in rs.positive_roots:
                if order[alpha] * 2 > 2 * order[gamma]:
                    break
                beta = tuple(g - a for a, g in zip(alpha, gamma))
                if rs.is_root(beta) and all(b >= 0 for b in beta) \
                        and order[alpha] <= order[beta]:
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda p: order[p[0]])
            if not pairs:
                raise ConstructionError("positive root with no special pair")
            ex_a, ex_b = pairs[0]
            self._set(ex_a, ex_b, _p_down(rs, ex_a, ex_b) + 1)
            for delta, eps in pairs[1:]:
                val = self._special_pair_value(ex_a, ex_b, delta, eps, gamma)
                expected = _p_down(rs, delta, eps) + 1
                if abs(val) != expected:
                    raise ConstructionError(
                        f"sign propagation broke |N|=p+1 at {delta},{eps}")
                self._set(delta, eps, val)

    def _special_pair_value(self, a, b, delta, eps, gamma) -> int:
        # Jacobi on (-delta, -eps, alpha) with omega = beta; all referenced
        # constants have strictly smaller pair sums
        rs = self.rs
        sq = rs.root_length_sq
        total = Fraction(0)
        tau = tuple(e - x for x, e in zip(a, eps))
        if rs.is_root(tau):
            total += (Fraction(self.n_pos(tau, a)) * self.n_pos(tau, delta)
                      * sq(tau) / sq(eps))
        sig = tuple(d - x for x, d in zip(a, delta))
        if rs.is_root(sig):
            total -= (Fraction(self.n_pos(sig, a)) * self.n_pos(sig, eps)
                      * sq(sig) / sq(delta))
        val = total * sq(gamma) / (sq(b) * self.n_pos(a, b))
        if val.denominator != 1 or val == 0:
            raise ConstructionError("non-integer structure constant")
        return int(val)

    def _set(self, a: Coeffs, b: Coeffs, val: int) -> None:
        self._n_pos[(a, b)] = val
        if a != b:
            self._n_pos[(b, a)] = -val

    def n_pos(self, a: Coeffs, b: Coeffs) -> int:
        return self._n_pos[(a, b)]


@lru_cache(maxsize=None)
def chevalley_constants(series: str, rank: int) -> ChevalleyConstants:
    return ChevalleyConstants(root_system(series, rank))


def basis_labels(rs: RootSystem) -> List[str]:
    labels = [f"h{i + 1}" for i in range(rs.rank)]
    for root in rs.positive_roots:
        tag = "".join(str(c) for c in root)
        labels.append(f"e[{tag}]")
        labels.append(f"f[{tag}]")
    return labels


def chevalley_struct(cc: ChevalleyConstants) -> SparseOp:
    """C^d_{ab} of the Chevalley basis, read off the root tables as arrays:
    [h_i, e_a] = <a, a_i^vee> e_a, [e_a, f_a] = h_a (the coroot),
    [e_a, e_b] = N_{a,b} e_{a+b} and [e_a, f_b] = N_{a,-b} e_{a-b} or
    f_{b-a}, with N_{a,-b} from the cyclic relation (Humphreys, Introduction
    to Lie Algebras, 25.2).  The Chevalley involution e_a <-> -f_a,
    h_i <-> -h_i turns these into the brackets of the f's, C -> -C."""
    rs, r = cc.rs, cc.rs.rank
    pos = np.array(rs.positive_roots, dtype=np.int64).reshape(-1, r)
    m = len(pos)
    e = r + 2 * np.arange(m)  # e_alpha; f_alpha is e_alpha + 1
    n = np.zeros((m, m), dtype=np.int64)
    for (x, y), val in cc._n_pos.items():
        n[rs.pos_index[x], rs.pos_index[y]] = val
    sq = [rs.root_length_sq(root) for root in rs.positive_roots]
    unit = math.lcm(*(x.denominator for x in sq))
    sq = np.array([int(x * unit) for x in sq], dtype=np.int64)
    co = np.array([rs.coroot_coeffs(root) for root in rs.positive_roots],
                  dtype=np.int64).reshape(-1, r)
    pairing = pos @ np.array(rs.cartan, dtype=np.int64)  # <alpha, a_i^vee>
    # alpha +- beta has coordinates in [-2M, 2M], M the largest coefficient
    # of a positive root, so keys linear in the coordinates in radix 4M + 1
    # are equal only for equal vectors: no non-root sum takes a root's key
    key = pos @ (4 * int(pos.max()) + 1) ** np.arange(r, dtype=np.int64)
    order = np.argsort(key)
    sorted_key = key[order]

    def find(keys: np.ndarray) -> np.ndarray:
        """Positive-root index of each key, -1 where it is none."""
        at = np.minimum(np.searchsorted(sorted_key, keys), m - 1)
        return np.where(sorted_key[at] == keys, order[at], -1)

    plus = find(key[:, None] + key[None, :])
    pi, pj = np.nonzero(plus >= 0)
    if not n[pi, pj].all():
        raise ConstructionError("missing structure constant")
    # alpha_i - alpha_j = alpha_s: N_{i,-j} = -N_{j,s} (s,s)/(i,i) and
    # N_{j,-i} = N_{s,j} (s,s)/(i,i)
    minus = find(key[:, None] - key[None, :])
    mi, mj = np.nonzero(minus >= 0)
    ms = minus[mi, mj]
    num = np.concatenate([-n[mj, ms], n[ms, mj]]) * np.tile(sq[ms], 2)
    den = np.tile(sq[mi], 2)
    if (num % den).any():
        raise ConstructionError("non-integer structure constant")
    k, i = np.nonzero(pairing)
    kc, ic = np.nonzero(co)
    a, b, d, v = (np.concatenate(x) for x in zip(
        (i, e[k], e[k], pairing[k, i]),
        (e[k], i, e[k], -pairing[k, i]),
        (e[kc], e[kc] + 1, ic, co[kc, ic]),
        (e[pi], e[pj], e[plus[pi, pj]], n[pi, pj]),
        (np.r_[e[mi], e[mj]], np.r_[e[mj], e[mi]] + 1,
         np.r_[e[ms], e[ms] + 1], num // den)))

    def flip(x: np.ndarray) -> np.ndarray:  # e_alpha <-> f_alpha
        return np.where(x < r, x, r + ((x - r) ^ 1))

    dim = r + 2 * m
    a, b, d = (np.concatenate([x, flip(x)]) for x in (a, b, d))
    return SparseOp(dim * dim, dim, a * dim + b, d, np.concatenate([v, -v]))


@lru_cache(maxsize=None)
def build_chevalley_adjoint(series: str, rank: int
                            ) -> Tuple[LieAlgebra, Representation]:
    """Simple Lie algebra in the Chevalley basis plus its adjoint rep."""
    cc = chevalley_constants(series, rank)
    struct = chevalley_struct(cc)
    alg = algebra_from_struct(algebra_name(series, rank), series, rank,
                              struct.cols, struct, convention="chevalley",
                              root_data=cc.rs, labels=basis_labels(cc.rs))
    return alg, alg.adjoint_rep()
