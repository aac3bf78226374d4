"""Root systems, weights and exact root-space metrics for the simple types.

Roots are integer coefficient tuples over the simple roots; weights are
integer Dynkin-label tuples.  Two bilinear forms are provided: the standard
one with long roots of squared length 2, and the rescaled one with
(theta, theta) = 1/t (t the dual Coxeter number), which is the normalization
every Casimir eigenvalue in this package refers to.  `algebra_name` and
`series_rank` are the one map between series/rank and algebra names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

Coeffs = Tuple[int, ...]

SERIES = ("A", "B", "C", "D", "E", "F", "G")


class RootDataError(Exception):
    pass


EXCEPTIONAL = ("g2", "f4", "e6", "e7", "e8")

# the matrix family of each classical series, whose defining matrices are
# N x N with N = a * rank + b
CLASSICAL_SERIES = {"A": ("sl", 1, 1), "B": ("so", 2, 1),
                    "C": ("sp", 2, 0), "D": ("so", 2, 0)}


def algebra_name(series: str, rank: int) -> str:
    """sl(N), so(N) or sp(N) for a classical series, else g2 .. e8."""
    if series not in CLASSICAL_SERIES:
        return f"{series.lower()}{rank}"
    family, a, b = CLASSICAL_SERIES[series]
    return f"{family}({a * rank + b})"


def series_rank(family: str, n: int = 0) -> Tuple[str, int]:
    """Series letter and rank of sl/so/sp(n), or of g2 .. e8 (n unused);
    the inverse of `algebra_name`."""
    for series, (fam, a, b) in CLASSICAL_SERIES.items():
        if fam == family and (n - b) % a == 0:
            return series, (n - b) // a
    if family in EXCEPTIONAL:
        return family[0].upper(), int(family[1])
    raise RootDataError(f"no series for {family!r} of size {n}")


def cartan_matrix(series: str, rank: int) -> List[List[int]]:
    """A[i][j] = <alpha_i, alpha_j^vee> in Bourbaki numbering."""
    n = rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif series == "B":
        if n < 2:
            raise RootDataError("B needs rank >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)  # alpha_n short
    elif series == "C":
        if n < 2:
            raise RootDataError("C needs rank >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)  # alpha_n long
    elif series == "D":
        if n < 3:
            raise RootDataError("D needs rank >= 3")
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif series == "E":
        if n not in (6, 7, 8):
            raise RootDataError("E needs rank 6, 7 or 8")
        # Bourbaki: chain 1-3-4-5-6(-7(-8)), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    elif series == "F":
        if n != 4:
            raise RootDataError("F needs rank 4")
        link(0, 1)
        link(1, 2, -2, -1)  # alpha_3, alpha_4 short
        link(2, 3)
    elif series == "G":
        if n != 2:
            raise RootDataError("G needs rank 2")
        link(0, 1, -1, -3)  # alpha_2 long
    else:
        raise RootDataError(f"unknown series {series!r}")
    return a


def _root_lengths(series: str, rank: int) -> List[Fraction]:
    """d_i = (alpha_i, alpha_i)/2 with long roots normalized to length^2 = 2."""
    one, half = Fraction(1), Fraction(1, 2)
    if series == "B":
        return [one] * (rank - 1) + [half]
    if series == "C":
        return [half] * (rank - 1) + [one]
    if series == "F":
        return [one, one, half, half]
    if series == "G":
        return [Fraction(1, 3), one]
    return [one] * rank


class RootSystem:
    """Exact root data for one simple type."""

    def __init__(self, series: str, rank: int):
        self.series = series
        self.rank = rank
        self.cartan = cartan_matrix(series, rank)
        self.d = _root_lengths(series, rank)
        self.positive_roots = self._generate_positive()
        self._root_set = set(self.positive_roots)
        self._root_set.update(tuple(-x for x in r) for r in self.positive_roots)
        self.pos_index = {r: k for k, r in enumerate(self.positive_roots)}
        self.highest_root = self.positive_roots[-1]
        # dual Coxeter number: 1 + height of the highest coroot
        self.dual_coxeter = 1 + sum(
            k * d for k, d in zip(self.highest_root, self.d))
        assert self.dual_coxeter.denominator == 1
        self.dual_coxeter = int(self.dual_coxeter)
        self._cartan_inv = invert_fraction_matrix(
            [[Fraction(x) for x in row] for row in self.cartan])
        self._length_sq: Dict[Coeffs, Fraction] = {}

    # -- roots -------------------------------------------------------------

    def _generate_positive(self) -> List[Coeffs]:
        n = self.rank
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        by_height = {1: list(simples)}
        known = set(simples)
        height = 1
        while by_height.get(height):
            nxt = []
            for beta in by_height[height]:
                for i in range(n):
                    # alpha_i-string through beta: p down, q = p - <beta, ai^vee>
                    p = 0
                    cur = _sub_simple(beta, i)
                    while cur in known or _neg(cur) in known or not any(cur):
                        if not any(cur):
                            break
                        p += 1
                        cur = _sub_simple(cur, i)
                    q = p - self.pairing(beta, i)
                    if q >= 1:
                        up = _add_simple(beta, i)
                        if up not in known:
                            known.add(up)
                            nxt.append(up)
            if nxt:
                by_height[height + 1] = nxt
            height += 1
        out = []
        for h in sorted(by_height):
            out.extend(sorted(by_height[h]))
        return out

    def is_root(self, coeffs: Coeffs) -> bool:
        return coeffs in self._root_set

    def pairing(self, beta: Coeffs, i: int) -> int:
        """<beta, alpha_i^vee>."""
        return sum(b * self.cartan[j][i] for j, b in enumerate(beta))

    def bilinear_std(self, x: Coeffs, y: Coeffs) -> Fraction:
        """(x, y) with long roots of squared length 2:
        sum_j y_j d_j <x, alpha_j^vee>, as (alpha_i, alpha_j) = d_j A_ij."""
        return sum((yj * self.d[j] * self.pairing(x, j)
                    for j, yj in enumerate(y) if yj), Fraction(0))

    def root_length_sq(self, root: Coeffs) -> Fraction:
        """(root, root), computed once per root."""
        sq = self._length_sq.get(root)
        if sq is None:
            sq = self._length_sq[root] = self.bilinear_std(root, root)
        return sq

    def coroot_coeffs(self, root: Coeffs) -> Tuple[int, ...]:
        """root^vee = sum c_i alpha_i^vee; the c_i are integers."""
        half_sq = self.root_length_sq(root) / 2
        out = []
        for k, d in zip(root, self.d):
            c = Fraction(k) * d / half_sq
            assert c.denominator == 1
            out.append(int(c))
        return tuple(out)

    # -- weights (Dynkin labels) --------------------------------------------

    def root_to_weight(self, root: Coeffs) -> Coeffs:
        return tuple(self.pairing(root, i) for i in range(self.rank))

    def weight_bilinear_std(self, m: Coeffs, w: Coeffs) -> Fraction:
        # lambda = sum m_i omega_i with omega_i = sum_j (A^-1)_ij alpha_j
        ainv = self._cartan_inv
        total = Fraction(0)
        for i, mi in enumerate(m):
            if not mi:
                continue
            for j, wj in enumerate(w):
                if not wj:
                    continue
                for k in range(self.rank):
                    aik = ainv[i][k]
                    if not aik:
                        continue
                    for l in range(self.rank):
                        ajl = ainv[j][l]
                        if ajl:
                            total += (mi * wj * aik * ajl
                                      * self.d[l] * self.cartan[k][l])
        return total

    def weight_bilinear(self, m: Coeffs, w: Coeffs) -> Fraction:
        """Inner product in the (theta, theta) = 1/t normalization."""
        return self.weight_bilinear_std(m, w) / (2 * self.dual_coxeter)

    def casimir_c2(self, labels: Coeffs) -> Fraction:
        """c2 = (lambda, lambda + 2 delta), (theta,theta) = 1/t metric."""
        two_delta = tuple(2 for _ in range(self.rank))
        shifted = tuple(l + td for l, td in zip(labels, two_delta))
        return self.weight_bilinear(labels, shifted)

    def weyl_orbit(self, labels: Coeffs) -> List[Coeffs]:
        """Full Weyl orbit of a weight, BFS over simple reflections."""
        start = tuple(labels)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for m in frontier:
                for i in range(self.rank):
                    if m[i] == 0:
                        continue
                    refl = tuple(m[k] - m[i] * self.cartan[i][k]
                                 for k in range(self.rank))
                    if refl not in seen:
                        seen.add(refl)
                        nxt.append(refl)
            frontier = nxt
        return sorted(seen)


def _add_simple(beta: Coeffs, i: int) -> Coeffs:
    return tuple(b + (j == i) for j, b in enumerate(beta))


def _sub_simple(beta: Coeffs, i: int) -> Coeffs:
    return tuple(b - (j == i) for j, b in enumerate(beta))


def _neg(beta: Coeffs) -> Coeffs:
    return tuple(-b for b in beta)


def invert_fraction_matrix(m: Sequence[Sequence[Fraction]]
                           ) -> Optional[List[List[Fraction]]]:
    """Exact inverse by Gauss-Jordan elimination; None when m is singular."""
    n = len(m)
    aug = [list(row) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def root_system(series: str, rank: int) -> RootSystem:
    return RootSystem(series, rank)
