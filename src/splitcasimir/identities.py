"""Characteristic identities: the paper's root tables, exact/randomized
verification, independent minimal-polynomial discovery, and the universal
identities for the symmetric Casimir part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .casimir import (
    RowBasis,
    SwapBlock,
    SwapBlockError,
    _first_difference,
    product_of_shifts,
    swap_block,
)
from .catalog import adjoint_context, parse_name
from .kernel import (
    SparseOp,
    Vec,
    apply_poly_factors,
    combine,
    vec_combine,
)
from .vogel import mu_prime_of_dim, vogel_point

EXACT_FULL_MAX_DIM = 78 * 78  # full-basis verification up to the e6 adjoint
RANDOM_TRIALS = 32
METHODS = ("auto", "exact_full", "randomized_exact")


@dataclass
class CharIdentity:
    """Minimal-polynomial statement: distinct roots, with merged
    multiplicities recorded when a degeneration collapses factors."""

    roots: List[Fraction]
    restriction: Optional[str] = None  # e.g. "symmetric", "antisymmetric"
    source: str = "paper"
    merged: Dict[Fraction, int] = field(default_factory=dict)

    def __post_init__(self):
        self.roots = [Fraction(r) for r in self.roots]
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("CharIdentity roots must be pairwise distinct")


@dataclass
class VerificationReport:
    target: str
    status: str  # PASS | FAIL | NOT_APPLICABLE
    method: str
    trials: int = 0
    witness: Optional[list] = None
    detail: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        out = {"target": self.target, "status": self.status,
               "method": self.method, "trials": self.trials}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# the paper's identity tables
# ---------------------------------------------------------------------------

def defining_identity(name: str) -> CharIdentity:
    an = parse_name(name)
    if an.family == "sl":
        n = an.n
        return CharIdentity([Fraction(-(1 + n), 2 * n * n),
                             Fraction(n - 1, 2 * n * n)])
    if an.family in ("so", "sp"):
        n = an.n
        eps = 1 if an.family == "so" else -1
        d2 = Fraction(1, n - 2 * eps)
        return CharIdentity([d2 / 2, -d2 / 2, -d2 * (n - eps) / 2])
    table = {
        "g2": [0, Fraction(1, 3), -1, -2],
        "f4": [0, -1, -2, Fraction(-1, 2), Fraction(1, 6)],
        "e6": [Fraction(-13, 9), Fraction(-1, 9), Fraction(2, 9)],
        "e7": [Fraction(1, 8), Fraction(-7, 8), Fraction(-19, 8),
               Fraction(-1, 24)],
    }
    if an.family in table:
        return CharIdentity(table[an.family])
    if an.family == "e8":
        return adjoint_identity("e8")
    raise ValueError(f"no defining identity for {name}")


def antisymmetric_identity() -> CharIdentity:
    """C-(C- + 1/2) = 0 for every simple Lie algebra."""
    return CharIdentity([0, Fraction(-1, 2)], restriction="antisymmetric")


_EXCEPTIONAL_ADJ = {
    # alpha/2t, beta/2t from the universal table; roots are the negatives
    "g2": (Fraction(-1, 4), Fraction(5, 12)),
    "f4": (Fraction(-1, 9), Fraction(5, 18)),
    "e6": (Fraction(-1, 12), Fraction(1, 4)),
    "e7": (Fraction(-1, 18), Fraction(2, 9)),
    "e8": (Fraction(-1, 30), Fraction(1, 5)),
}


def adjoint_identity(name: str) -> CharIdentity:
    an = parse_name(name)
    base = [Fraction(0), Fraction(-1, 2), Fraction(-1)]
    if an.family == "sl":
        n = an.n
        if n == 3:
            return CharIdentity(base + [Fraction(1, 3)],
                                merged={Fraction(-1, 2): 2})
        if n == 2:
            return CharIdentity([Fraction(-1, 2), Fraction(-1),
                                 Fraction(1, 2)])
        return CharIdentity(base + [Fraction(1, n), Fraction(-1, n)])
    if an.family in ("so", "sp"):
        m = an.n if an.family == "so" else -an.n
        extra = [Fraction(1, m - 2), Fraction(-2, m - 2),
                 Fraction(-(m - 4), 2 * (m - 2))]
        roots, merged = [], {}
        for r in base + extra:
            if r in roots:
                merged[r] = merged.get(r, 1) + 1
            else:
                roots.append(r)
        return CharIdentity(roots, merged=merged)
    a2t, b2t = _EXCEPTIONAL_ADJ[an.family]
    return CharIdentity(base + [-a2t, -b2t])


def symmetric_part_identity(name: str) -> CharIdentity:
    """Roots of the quartic satisfied by C+ (universal form)."""
    an = parse_name(name)
    if an.family in _EXCEPTIONAL_ADJ or str(an) in ("sl(3)", "so(8)"):
        if str(an) == "sl(3)":
            a2t, b2t = Fraction(-1, 3), Fraction(1, 2)
        elif str(an) == "so(8)":
            a2t, b2t = Fraction(-1, 6), Fraction(1, 3)
        else:
            a2t, b2t = _EXCEPTIONAL_ADJ[an.family]
        return CharIdentity([Fraction(0), Fraction(-1), -a2t, -b2t],
                            restriction="symmetric")
    raise ValueError(f"{name} is not on the exceptional line")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _resolve_method(method: str, dim: int) -> str:
    """exact_full or randomized_exact; "auto" picks exact_full up to
    EXACT_FULL_MAX_DIM."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {', '.join(METHODS)}")
    if method == "auto":
        return "exact_full" if dim <= EXACT_FULL_MAX_DIM else "randomized_exact"
    return method


def _broken_block(target: str, method: str, err: SwapBlockError
                  ) -> VerificationReport:
    return VerificationReport(target, "FAIL", method, witness=err.witness,
                              detail=str(err))


def trial_witness(seed: int, draw: int, residual: Vec) -> list:
    """The witness of a failed randomized trial: [seed, draw, coordinate].
    The trial vector is draw number ``draw`` (from 1) of
    ``Vec.random_exact`` on ``np.random.default_rng(seed)``, and
    ``coordinate`` is the first at which its residual is nonzero."""
    return [seed, draw, int(np.flatnonzero(residual.data)[0])]


def _probe(target: str, method: str, dim: int, unit: RowBasis,
           residual: Callable[[Vec], Vec], trials: int, seed: int,
           block: Optional[SwapBlock] = None) -> VerificationReport:
    """Randomized-exact zero test: ``residual`` of ``trials`` random draws
    v on the image of the unit of the row basis ``unit``, each passed as
    the representative rows S unit v (``RowBasis.restrict``; v itself for
    the identity) or, with a ``block``, as the block coordinates of
    unit v.  A FAIL names the first v with a nonzero residual by
    `trial_witness`, at a coordinate of the block or, on the rows, of the
    full-space residual B times the row residual."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        v = Vec.random_exact(dim, rng)
        if block is None:
            res = residual(unit.restrict(v))
        else:
            res = residual(block.restrict(unit.project(v)))
        if not res.is_zero():
            if block is None:
                res = unit.expansion.matvec(res)
            return VerificationReport(target, "FAIL", method, t + 1,
                                      witness=trial_witness(seed, t + 1, res))
    return VerificationReport(target, "PASS", method, trials)


def verify_identity(op: SparseOp, ident: CharIdentity, unit: RowBasis,
                    method: str = "auto", target: str = "",
                    trials: int = RANDOM_TRIALS, seed: int = 0,
                    block: Optional[SwapBlock] = None) -> VerificationReport:
    """Check prod_i (op - r_i * unit) = 0 on the image of the unit of the
    row basis ``unit`` (``SplitCasimir.basis``; ``RowBasis.identity`` for a
    plain operator).

    exact_full builds prod_i (op - r_i * unit) * unit as one sparse operator
    chain (``casimir.product_of_shifts``, on the unit's representative
    rows): it is zero iff the identity holds on every basis vector, and a
    FAIL names the first nonzero column.  randomized_exact applies the
    factors to random subspace vectors on the representative rows: op is
    checked exactly to lie in the unit's image (RowBasisError otherwise)
    and compressed to A = (S op) B (``RowBasis.compress``), each draw v
    becomes a = S unit v, and the residual is prod_i (A - r_i) a, with no
    unit matvec per factor.  unit v = B a, op B = B A and unit B = B, so
    the full-space residual is B times it; B is injective, so a trial
    fails exactly when it fails on the full space, with the same witness
    (the identity basis runs on the full space itself).

    With a swap ``block`` (randomized_exact only), ``op`` is the block
    S X B of an operator X that vanishes on the other block, such as C+-
    (``casimir.swap_block``).  Each trial vector is drawn on the full space
    as for X and restricted, and the shifts use the unit's block.  The
    root 0 must be among the roots: its factor kills the other block, so a
    trial fails exactly when it fails for X, with the same witness."""
    dim = op.rows if block is None else block.dim
    method = _resolve_method(method, dim)
    roots = ident.roots
    if method == "exact_full":
        if block is not None:
            raise ValueError("a swap block is checked randomized_exact only")
        residual = product_of_shifts(op, roots, unit)
        if residual.nnz:
            j = int(residual.col.min())
            return VerificationReport(target, "FAIL", method, j + 1,
                                      witness=[j])
        return VerificationReport(target, "PASS", method, dim)
    if block is None:
        rows = unit.compress(op, "op")
        return _probe(target, method, dim, unit,
                      lambda a: apply_poly_factors(rows, roots, a),
                      trials, seed)
    if 0 not in roots:
        raise ValueError("a swap-block identity needs the root 0")
    shift = unit.shift(block)
    return _probe(target, method, dim, unit,
                  lambda a: apply_poly_factors(op, roots, a, unit=shift),
                  trials, seed, block)


def _symmetric_block(ctx):
    """The + swap block with C+, K and the unit (None for the identity) on
    it; raises SwapBlockError."""
    block = swap_block(ctx.sc, 1, ctx.big_k)
    return (block, block.compress(ctx.sc.operator),
            block.compress(ctx.big_k), ctx.sc.basis().shift(block))


def verify_defining_identity(name: str, method: str = "auto",
                             seed: int = 0) -> VerificationReport:
    from .catalog import defining
    from .casimir import split_casimir
    alg, rep = defining(name)
    if parse_name(name).family == "e8":
        ctx = adjoint_context("e8")
        return verify_identity(ctx.sc.operator, adjoint_identity("e8"),
                               ctx.sc.basis(), method,
                               target="e8 defining(=adjoint) identity",
                               seed=seed)
    sc = split_casimir(rep, rep)
    return verify_identity(sc.operator, defining_identity(name), sc.basis(),
                           method, target=f"{name} defining identity",
                           seed=seed)


def verify_adjoint_identity(name: str, method: str = "auto",
                            seed: int = 0) -> VerificationReport:
    ctx = adjoint_context(name)
    return verify_identity(ctx.sc.operator, adjoint_identity(name),
                           ctx.sc.basis(), method,
                           target=f"{name} adjoint identity", seed=seed)


def verify_antisymmetric_identity(name: str, method: str = "auto",
                                  seed: int = 0) -> VerificationReport:
    sc = adjoint_context(name).sc
    method = _resolve_method(method, sc.operator.rows)
    target = f"{name} C- universal identity"
    if method == "exact_full":
        return verify_identity(sc.parts()[1], antisymmetric_identity(),
                               sc.basis(), method, target=target, seed=seed)
    try:
        block = swap_block(sc, -1)
    except SwapBlockError as err:
        return _broken_block(target, method, err)
    return verify_identity(block.compress(sc.operator),
                           antisymmetric_identity(), sc.basis(), method,
                           target=target, seed=seed, block=block)


# ---------------------------------------------------------------------------
# minimal polynomial discovery (independent cross-check)
# ---------------------------------------------------------------------------

def minimal_polynomial(op: SparseOp, degree_bound: int, unit: RowBasis,
                       starts: int = 3, seed: int = 0,
                       confirm: bool = True) -> dict:
    """Least monic polynomial annihilating op restricted to the image of
    the unit of the row basis ``unit`` (``RowBasis.identity`` for all of
    op's space), by exact Krylov linear dependence from several random
    starts, then a confirmation check at the discovered degree.

    Returns {"coeffs": [c_0..c_k] (monic, c_k = 1), "roots": [...] or None,
    "confirmed": bool}.
    """
    rng = np.random.default_rng(seed)
    dim = op.rows
    poly: Optional[List[Fraction]] = None
    for _ in range(starts):
        v = unit.project(Vec.random_exact(dim, rng))
        if v.is_zero():
            continue
        p = _krylov_min_poly(op, v, degree_bound)
        if p is None:
            return {"coeffs": None, "roots": None, "confirmed": False,
                    "detail": f"degree bound {degree_bound} exceeded"}
        poly = p if poly is None else _poly_lcm(poly, p)
        if len(poly) - 1 > degree_bound:
            return {"coeffs": poly, "roots": None, "confirmed": False,
                    "detail": f"degree bound {degree_bound} exceeded"}
    roots = _rational_roots(poly)
    confirmed = True
    if confirm:
        if roots is not None and len(roots) == len(poly) - 1:
            rep = verify_identity(op, CharIdentity(sorted(set(roots))),
                                  unit, target="minpoly confirm")
            confirmed = rep.passed and len(set(roots)) == len(roots)
        else:
            confirmed = False
    return {"coeffs": poly, "roots": roots, "confirmed": confirmed}


def _krylov_min_poly(op: SparseOp, v: Vec, degree_bound: int
                     ) -> Optional[List[Fraction]]:
    # reduced Krylov vectors with bookkeeping of their monomial expansions
    pivots: List[Tuple[int, Vec, List[Fraction]]] = []
    cur = v
    power = 0
    while power <= degree_bound:
        expr = [Fraction(0)] * (power + 1)
        expr[power] = Fraction(1)
        red, expr = _reduce_against(cur, expr, pivots)
        if red.is_zero():
            lead = expr[-1]
            return [c / lead for c in expr]
        piv = _first_nonzero(red)
        pivots.append((piv, red, expr))
        cur = op.matvec(cur)
        power += 1
    return None


def _reduce_against(vec: Vec, expr: List[Fraction], pivots) -> Tuple[Vec, List[Fraction]]:
    expr = list(expr)
    for piv, pvec, pexpr in pivots:
        num = _coord(vec, piv)
        if num == 0:
            continue
        den = _coord(pvec, piv)
        c = num / den
        vec = vec - pvec.scaled(c)
        for k, val in enumerate(pexpr):
            if val:
                if k >= len(expr):
                    expr.extend([Fraction(0)] * (k + 1 - len(expr)))
                expr[k] -= c * val
    return vec, expr


def _coord(v: Vec, i: int) -> Fraction:
    return int(v.data[i]) * v.scale


def _first_nonzero(v: Vec) -> int:
    if v.data.dtype == object:
        for i, x in enumerate(v.data):
            if int(x) != 0:
                return i
        raise ValueError("zero vector")
    nz = np.flatnonzero(v.data)
    return int(nz[0])


def _poly_lcm(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    g = _poly_gcd(a, b)
    q, r = _poly_divmod(a, g)
    assert all(x == 0 for x in r)
    return _poly_mul(q, b)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] / b[-1]
        out[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a.pop()
    return out, a


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(x != 0 for x in b):
        _, r = _poly_divmod(a, b)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r if r else [Fraction(0)]
        if not any(x != 0 for x in b):
            break
    lead = a[-1]
    return [x / lead for x in a]


def _rational_roots(poly: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """All roots with multiplicity if the polynomial splits over Q."""
    work = [Fraction(x) for x in poly]
    den = math.lcm(*(c.denominator for c in work))
    ints = [int(c * den) for c in work]
    roots: List[Fraction] = []
    while len(ints) > 1:
        g = 0
        for c in ints:
            g = math.gcd(g, c)
        ints = [c // g for c in ints]
        if ints[0] == 0:
            roots.append(Fraction(0))
            ints = ints[1:]
            continue
        cands = set()
        for p in _divisors(abs(ints[0])):
            for q in _divisors(abs(ints[-1])):
                cands.add(Fraction(p, q))
                cands.add(Fraction(-p, q))
        found = None
        for r in sorted(cands):
            if sum(c * r ** k for k, c in enumerate(ints)) == 0:
                found = r
                break
        if found is None:
            return None
        # synthetic division by (x - r): coefficients ascending
        out = [Fraction(c) for c in ints[1:]]
        for k in range(len(out) - 2, -1, -1):
            out[k] += found * out[k + 1]
        roots.append(found)
        den2 = math.lcm(*(c.denominator for c in out)) if out else 1
        ints = [int(c * den2) for c in out]
    return roots


def _divisors(n: int) -> List[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# universal identities
# ---------------------------------------------------------------------------

def universal_mu(dim_g: int) -> Fraction:
    return Fraction(5, 6 * (2 + dim_g))


def exceptional_alpha_beta(dim_g: int) -> Tuple[Fraction, Fraction]:
    """(alpha/2t, beta/2t) = ((1 -+ mu')/12) on the exceptional line."""
    mp = mu_prime_of_dim(dim_g)
    if mp is None:
        raise ValueError(f"mu' irrational at dim {dim_g}")
    return (1 - mp) / 12, (1 + mp) / 12


def verify_universal_sym_identity(name: str, method: str = "auto",
                                  trials: int = RANDOM_TRIALS,
                                  seed: int = 0) -> VerificationReport:
    """C+^2 = -(1/6) C+ + mu (I + P + K) with mu = 5/(6(2+dim g)), then the
    quartic with roots {0, -1, -alpha/2t, -beta/2t}; exceptional-line only."""
    an = parse_name(name)
    if str(an) not in ("sl(3)", "so(8)") and not an.is_exceptional:
        return VerificationReport(f"{name} universal symmetric identity",
                                  "NOT_APPLICABLE", "none")
    ctx = adjoint_context(name)
    mu = universal_mu(ctx.dim_g)
    dim = ctx.sc.operator.rows
    method = _resolve_method(method, dim)
    target = f"{name} C+^2 universal identity"
    if method == "exact_full":
        block = None
        cp, _ = ctx.sc.parts()
        rhs = cp.scaled(Fraction(-1, 6)) \
            + (ctx.ops["I"] + ctx.ops["P"] + ctx.big_k).scaled(mu)
        (cp2,) = ctx.sc.basis().powers(cp, 2)
        where = _first_difference(cp2, rhs)
        rep = VerificationReport(target, "PASS" if where is None else "FAIL",
                                 method, witness=where)
    else:
        try:
            block, cp, kp, up = _symmetric_block(ctx)
        except SwapBlockError as err:
            return _broken_block(f"{name} universal symmetric identity",
                                 method, err)

        # on the + block, (I + P) v = 2 unit v
        def residual(a: Vec) -> Vec:
            c1 = cp.matvec(a)
            return vec_combine([
                (1, cp.matvec(c1)), (Fraction(1, 6), c1),
                (-2 * mu, a if up is None else up.matvec(a)),
                (-mu, kp.matvec(a))])
        rep = _probe(target, method, dim, ctx.sc.basis(), residual, trials,
                     seed, block)
    if not rep.passed:
        return rep
    quartic = symmetric_part_identity(name)
    rep2 = verify_identity(cp, quartic, ctx.sc.basis(), method,
                           target=f"{name} C+ quartic", seed=seed,
                           trials=trials, block=block)
    if not rep2.passed:
        return rep2
    return VerificationReport(f"{name} universal symmetric identity",
                              "PASS", method, detail=f"mu = {mu}")


def verify_classical_generic_identity(name: str, method: str = "auto",
                                      trials: int = RANDOM_TRIALS,
                                      seed: int = 0) -> VerificationReport:
    """C+^3 + (1/2) C+^2 = mu1 C+ + mu2 (I + P - 2K) with mu1, mu2 from the
    Vogel parameters, plus the dimension relation dim g = (2mu2-mu1+1/2)/(2mu2).
    """
    pt = vogel_point(name)
    mu1 = -(pt.alpha * pt.beta + pt.alpha * pt.gamma + pt.beta * pt.gamma) \
        / (4 * pt.t ** 2)
    mu2 = -(pt.alpha * pt.beta * pt.gamma) / (16 * pt.t ** 3)
    ctx = adjoint_context(name)
    dim_formula = (2 * mu2 - mu1 + Fraction(1, 2)) / (2 * mu2)
    if dim_formula != ctx.dim_g:
        return VerificationReport(f"{name} generic classical identity",
                                  "FAIL", "formula",
                                  detail=f"dim formula gave {dim_formula}")
    dim = ctx.sc.operator.rows
    method = _resolve_method(method, dim)
    target = f"{name} generic classical identity"
    if method == "exact_full":
        cp, _ = ctx.sc.parts()
        rhs = combine([(mu1, cp), (mu2, ctx.ops["I"]), (mu2, ctx.ops["P"]),
                       (-2 * mu2, ctx.big_k)])
        c2, c3 = ctx.sc.basis().powers(cp, 3)
        where = _first_difference(combine([(1, c3), (Fraction(1, 2), c2)]),
                                  rhs)
        return VerificationReport(target, "PASS" if where is None else "FAIL",
                                  method, witness=where)
    try:
        block, cp, kp, up = _symmetric_block(ctx)
    except SwapBlockError as err:
        return _broken_block(target, method, err)

    # on the + block, (I + P - 2K) v = 2 (unit v - K v)
    def residual(a: Vec) -> Vec:
        c1 = cp.matvec(a)
        c2 = cp.matvec(c1)
        return vec_combine([
            (1, cp.matvec(c2)), (Fraction(1, 2), c2), (-mu1, c1),
            (-2 * mu2, a if up is None else up.matvec(a)),
            (2 * mu2, kp.matvec(a))])
    return _probe(target, method, dim, ctx.sc.basis(), residual, trials, seed,
                  block)
