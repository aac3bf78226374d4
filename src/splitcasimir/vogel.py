"""Vogel universal parameters: Table 5 points, universal dimension formulas
with exact removable-singularity handling, the exceptional line, and the
Diophantine dimension scan with its integrality filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import parse_name


class VogelError(Exception):
    pass


@dataclass(frozen=True)
class VogelPoint:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    @property
    def t(self) -> Fraction:
        return self.alpha + self.beta + self.gamma

    def params(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma)

    def permuted(self, order: Sequence[int]) -> "VogelPoint":
        p = self.params()
        return VogelPoint(p[order[0]], p[order[1]], p[order[2]])


@dataclass(frozen=True)
class TableRow:
    type_label: str      # e.g. "A_n", "G_2"
    algebra_label: str   # e.g. "sl(n+1)", "g2"
    parametric: bool

    def point(self, n: Optional[int] = None) -> VogelPoint:
        return _table_point(self.type_label, n)


_TABLE5: List[TableRow] = [
    TableRow("A_n", "sl(n+1)", True),
    TableRow("B_n", "so(2n+1)", True),
    TableRow("C_n", "sp(2n)", True),
    TableRow("D_n", "so(2n)", True),
    TableRow("A_2", "sl(3)", False),
    TableRow("D_4", "so(8)", False),
    TableRow("G_2", "g2", False),
    TableRow("F_4", "f4", False),
    TableRow("E_6", "e6", False),
    TableRow("E_7", "e7", False),
    TableRow("E_8", "e8", False),
]


def _table_point(type_label: str, n: Optional[int]) -> VogelPoint:
    fixed = {
        "A_2": VogelPoint(-2, 2, 3),
        "D_4": VogelPoint(-2, 4, 4),
        "G_2": VogelPoint(-2, Fraction(10, 3), Fraction(8, 3)),
        "F_4": VogelPoint(-2, 5, 6),
        "E_6": VogelPoint(-2, 6, 8),
        "E_7": VogelPoint(-2, 8, 12),
        "E_8": VogelPoint(-2, 12, 20),
    }
    if type_label in fixed:
        return fixed[type_label]
    if n is None:
        raise VogelError(f"row {type_label} needs a rank")
    if type_label == "A_n":
        return VogelPoint(-2, 2, n + 1)
    if type_label == "B_n":
        return VogelPoint(-2, 4, 2 * n - 3)
    if type_label == "C_n":
        return VogelPoint(-2, 1, n + 2)
    if type_label == "D_n":
        return VogelPoint(-2, 4, 2 * n - 4)
    raise VogelError(f"unknown table row {type_label}")


def vogel_table() -> List[TableRow]:
    """The eleven rows of the parameter table (alpha = -2 normalization);
    classical series are rank-parametrized closures, sl(3) and so(8) keep
    their separate rows."""
    return list(_TABLE5)


def vogel_point(name: str) -> VogelPoint:
    """The Vogel point of a concrete simple algebra."""
    an = parse_name(name)
    if an.family == "sl":
        return _table_point("A_n", an.n - 1)
    if an.family == "sp":
        return _table_point("C_n", an.n // 2)
    if an.family == "so":
        if an.n % 2:
            return _table_point("B_n", (an.n - 1) // 2)
        return _table_point("D_n", an.n // 2)
    return _table_point(an.family[0].upper() + "_" + an.family[1], None)


# ---------------------------------------------------------------------------
# universal dimension formulas
# ---------------------------------------------------------------------------

def universal_dim_g(p: VogelPoint) -> Fraction:
    """(alpha-2t)(beta-2t)(gamma-2t)/(alpha beta gamma)."""
    a, b, c = p.params()
    t = p.t
    if a * b * c == 0:
        raise VogelError("universal dimension needs alpha beta gamma != 0")
    return (a - 2 * t) * (b - 2 * t) * (c - 2 * t) / (a * b * c)


_WHICH = {"alpha": 0, "beta": 1, "gamma": 2}


def universal_dim_y2(p: VogelPoint, which: str) -> Fraction:
    """dim Y2 for the chosen parameter:
    -(3a-2t)(b-2t)(c-2t) t (b+t)(c+t) / (a^2 (a-b) b (a-c) c).

    A zero denominator (the chosen parameter equals a partner, e.g. so(8))
    is removable only on the locus 3a = 2t: there the vanishing factors
    cancel to 3, and the chosen slot reports a third of the merged
    eigenspace.  Any other zero denominator raises.
    """
    head = _WHICH[which]
    rest = [k for k in range(3) if k != head]
    vals = list(p.params())
    a, b, c = vals[head], vals[rest[0]], vals[rest[1]]
    t = p.t
    plain_den = a * a * (a - b) * b * (a - c) * c
    if plain_den != 0:
        num = -(3 * a - 2 * t) * (b - 2 * t) * (c - 2 * t) * t \
            * (b + t) * (c + t)
        return num / plain_den
    # 0/0: the head parameter coincides with one of its partners.  The zero
    # is removable only at the critical value 3a = 2t, where the vanishing
    # numerator factor matches the vanishing denominator factor linearly:
    # on the locus 3a = 2t one has (3a - 2t) = 3(a - c) identically in the
    # coinciding partner, so the pair cancels to the factor 3.
    if 3 * a != 2 * t:
        raise VogelError("non-removable zero denominator in dim Y2")
    if a == c:
        other = b
    elif a == b:
        other = c
    else:
        raise VogelError("non-removable zero denominator in dim Y2")
    merged_den = a * a * (a - other) * other * a
    if merged_den == 0:
        raise VogelError("non-removable zero denominator in dim Y2")
    merged = -3 * (other - 2 * t) * (a - 2 * t) * t * (other + t) * (a + t) \
        / merged_den
    # The cancelled value is the dimension of the whole merged eigenspace
    # (105 at so(8)); both coinciding slots label equal irreducible pieces
    # of a triality-split triple, so each reports a third of it (35).
    return merged / 3


def exceptional_line_check(p: VogelPoint) -> Tuple[bool, Optional[Tuple[Fraction, Fraction]]]:
    """True iff the point lies on the exceptional line 3 gamma = 2t up to
    the parameter permutations the formulas are invariant under (the sl(3)
    row of the table needs beta <-> gamma).  Returns the (beta, gamma)
    coordinates with the line parameter permuted into the gamma slot, where
    gamma = 2 beta - 4 at alpha = -2."""
    t = p.t
    vals = p.params()
    for k in (2, 1, 0):
        if 3 * vals[k] == 2 * t:
            rest = [vals[i] for i in range(3) if i != k]
            rest.sort()
            return True, (rest[1], vals[k])
    return False, None


# ---------------------------------------------------------------------------
# the Diophantine scan
# ---------------------------------------------------------------------------

def mu_prime_of_dim(d: int) -> Optional[Fraction]:
    """sqrt((d+242)/(d+2)) when rational."""
    prod = (d + 242) * (d + 2)
    r = math.isqrt(prod)
    if r * r != prod:
        return None
    return Fraction(r, d + 2)


def diophantine_scan(max_dim: int) -> List[int]:
    """All d <= max_dim with (d+242)/(d+2) a rational square."""
    if max_dim < 3:
        raise VogelError("scan needs max_dim >= 3")
    return [d for d in range(3, max_dim + 1)
            if mu_prime_of_dim(d) is not None]


def exceptional_point_of_dim(d: int) -> VogelPoint:
    """The exceptional-line point with universal dimension d (t = 1)."""
    mp = mu_prime_of_dim(d)
    if mp is None:
        raise VogelError(f"(d+242)/(d+2) is not a square at d = {d}")
    alpha = (1 - mp) / 6
    beta = (1 + mp) / 6
    return VogelPoint(alpha, beta, Fraction(2, 3))


def integrality_filter(dims: Sequence[int]) -> Dict[str, object]:
    """Partition scan output by integrality of dim Y2(alpha)."""
    retained, excluded, values = [], [], {}
    for d in dims:
        pt = exceptional_point_of_dim(d)
        y2a = universal_dim_y2(pt, "alpha")
        values[d] = y2a
        if y2a.denominator == 1:
            retained.append(d)
        else:
            excluded.append(d)
    return {"retained": retained, "excluded": excluded, "y2_alpha": values}
