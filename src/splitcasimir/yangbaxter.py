"""Invariant rational R-matrices in spectral and Casimir-rational form, with
Yang-Baxter, unitarity, form-equivalence and classical-YBE verification.

Spectral forms are assembled from the invariant operators (I, P, K, F, D,
projectors); a Casimir-rational form is a product of Mobius factors
(p(X) + u)(p(X) - u)^-1, p(x) = a x + b, of the split Casimir operator C
(or its shifted symmetric/antisymmetric parts), one table entry per case
(`_mobius`).  Each factor is evaluated as sum_j f(a_j) L_j(X) over the
verified eigenvalues a_j, with the same Lagrange basis L_j as the projector
families and the powers of X built once per family; the poles are the
values p(a_j).
The two construction paths share no arithmetic, so their entrywise equality
at sampled spectral parameters is a real check.  Each case builder returns
one zero-argument builder per form, and ``build_rmatrix`` runs only the one
it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import defining, invariants, parse_name
from .casimir import (
    RowBasis,
    _first_difference,
    split_casimir,
    split_parts,
    swap_operator,
)
from .identities import VerificationReport, defining_identity, trial_witness
from .kernel import SparseOp, Vec, apply_two_site, combine
from .projectors import lagrange_basis

DEFAULT_SAMPLES: List[Tuple[Fraction, Fraction]] = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2, 5), Fraction(3, 7)),
    (Fraction(-1, 4), Fraction(5, 6)),
    (Fraction(7, 9), Fraction(-2, 11)),
    (Fraction(3, 8), Fraction(1, 5)),
]

class YangBaxterError(Exception):
    pass


class PoleError(YangBaxterError):
    pass


class UnsupportedCaseError(YangBaxterError):
    pass


@dataclass
class RMatrixFamily:
    case: str
    form: str  # spectral | casimir_rational
    site_dim: int
    poles: List[Fraction]
    beta: Optional[Fraction] = None
    _eval: Callable[[Fraction], SparseOp] = None
    _cache: Dict[Fraction, SparseOp] = field(default_factory=dict, repr=False)

    def evaluate(self, u) -> SparseOp:
        u = Fraction(u)
        if u in self.poles:
            raise PoleError(f"{self.case} {self.form}: u = {u} is a pole")
        if u not in self._cache:
            self._cache[u] = self._eval(u)
        return self._cache[u]


def function_of_op(op: SparseOp, roots: Sequence[Fraction]
                   ) -> Callable[[Callable[[Fraction], Fraction]], SparseOp]:
    """fn -> p(op) for the polynomial p of degree < len(roots) that
    interpolates fn on the roots: p = sum_j fn(a_j) L_j over the Lagrange
    basis of the projector families (``projectors.lagrange_basis``), as one
    ``combine`` over op^0 .. op^(n-1).  p(op) = fn(op) when op is
    diagonalizable with its eigenvalues among the roots.  The basis is
    expanded once, and the powers on the first call; a root at a pole of fn
    raises PoleError."""
    roots = [Fraction(r) for r in roots]
    basis = lagrange_basis(roots)
    powers: List[SparseOp] = []

    def apply(fn: Callable[[Fraction], Fraction]) -> SparseOp:
        try:
            values = [Fraction(fn(r)) for r in roots]
        except ZeroDivisionError as exc:
            raise PoleError(str(exc)) from exc
        coeffs = [sum(v * lj[k] for v, lj in zip(values, basis))
                  for k in range(len(roots))]
        if not powers:
            powers.extend([SparseOp.identity(op.rows), op][:len(roots)])
            while len(powers) < len(roots):
                powers.append(powers[-1] @ op)
        return combine(zip(coeffs, powers))

    return apply


def _mobius(factors: Sequence[Tuple[SparseOp, Sequence[Fraction],
                                    Fraction, Fraction]], sign: int = 1
            ) -> Tuple[Callable[[Fraction], SparseOp], List[Fraction]]:
    """(evaluate, poles) of R(u) = sign * prod_k (p_k(X_k) + u)
    (p_k(X_k) - u)^-1 over factors (X_k, roots of X_k, a_k, b_k), with
    p_k(x) = a_k x + b_k.  The poles are the values p_k(r) over the roots;
    the sign rides on the first factor's values."""
    parts = [(function_of_op(x, roots), Fraction(a), Fraction(b))
             for x, roots, a, b in factors]
    poles = sorted({Fraction(a) * r + Fraction(b)
                    for _, roots, a, b in factors for r in roots})

    def evaluate(u: Fraction) -> SparseOp:
        out = None
        for k, (fn_of, a, b) in enumerate(parts):
            s = sign if k == 0 else 1
            op = fn_of(lambda x: s * (a * x + b + u) / (a * x + b - u))
            out = op if out is None else out @ op
        return out

    return evaluate, poles


def _minimal_roots(op: SparseOp, unit: RowBasis, bound: int = 8
                   ) -> List[Fraction]:
    """The distinct eigenvalues of op on the image of the row basis
    ``unit`` (that of the split Casimir op is built from)."""
    from .identities import minimal_polynomial
    mp = minimal_polynomial(op, bound, unit, confirm=False)
    if mp["roots"] is None:
        raise YangBaxterError("operator minimal polynomial did not split")
    return sorted(set(mp["roots"]))


def _casimir_parts(rep) -> Tuple[SparseOp, SparseOp, RowBasis]:
    """(C+, C-, row basis) of the split Casimir on rep (x) rep; the
    operator itself is not kept alive past the call."""
    sc = split_casimir(rep, rep)
    return (*split_parts(sc), sc.basis())


# ---------------------------------------------------------------------------
# case builders
# ---------------------------------------------------------------------------

def _sl_forms(n: int):
    alg, rep = defining(f"sl({n})")
    d = rep.dim_module
    ident = SparseOp.identity(d * d)
    perm = swap_operator(d)

    def spectral(u: Fraction) -> SparseOp:
        return (ident.scaled(u) + perm).scaled(Fraction(1) / (1 - u))

    def casimir_rational():
        sc = split_casimir(rep, rep)
        a_op = sc.operator.scaled(n) + ident.scaled(Fraction(1 + n, 2 * n))
        return _mobius([(a_op, [0, 1], 1, 0)])

    return {"spectral": lambda: (spectral, [Fraction(1)]),
            "casimir_rational": casimir_rational}, d


def _sosp_forms(n: int, eps: int):
    fam = "so" if eps == 1 else "sp"
    alg, rep = defining(f"{fam}({n})")
    d = rep.dim_module
    inv = invariants(f"{fam}({n})")
    ident, perm, kop = inv["I"], inv["P"], inv["K"]

    def spectral(u: Fraction) -> SparseOp:
        shift = u + Fraction(n, 2) - eps
        out = ident.scaled(u) + perm - kop.scaled(Fraction(eps) * u / shift)
        return out.scaled(Fraction(1) / (eps - u))

    def casimir_rational():
        sc = split_casimir(rep, rep)
        roots = defining_identity(f"{fam}({n})").roots
        return _mobius([(sc.operator, roots, n - 2 * eps, Fraction(eps, 2))])

    sp_poles = [Fraction(eps), Fraction(eps) - Fraction(n, 2)]
    return {"spectral": lambda: (spectral, sp_poles),
            "casimir_rational": casimir_rational}, d


def _g2_forms():
    alg, rep = defining("g2")
    inv = invariants("g2")
    ident, perm, kop, fop = inv["I"], inv["P"], inv["K"], inv["F"]

    def spectral(u: Fraction) -> SparseOp:
        out = (ident.scaled(u) - perm
               + kop.scaled(2 * u / (u - 6)) + fop.scaled(u / (u - 4)))
        return out.scaled(Fraction(1) / (u - 1))

    def casimir_rational():
        cp, cm, basis = _casimir_parts(rep)
        return _mobius([(cp, _minimal_roots(cp, basis), -3, 0),
                        (cm, _minimal_roots(cm, basis), -3, 1)])

    return {"spectral": lambda: (spectral, [Fraction(1), Fraction(4),
                                            Fraction(6)]),
            "casimir_rational": casimir_rational}, 7


def _f4_forms(beta: Optional[Fraction]):
    alg, rep = defining("f4")
    inv = invariants("f4")
    ident, perm, kop = inv["I"], inv["P"], inv["K"]
    dop, fop = inv["D"], inv["F"]
    beta = Fraction(beta) if beta is not None else Fraction(1, 2)

    def spectral(u: Fraction) -> SparseOp:
        out = (ident.scaled(u) - perm
               + kop.scaled(u * (u - 1) / ((u - 9) * (u - 4)))
               + fop.scaled(6 * u / (u - 4))
               + dop.scaled(3 * u / (4 * (u - 6))))
        return out.scaled(Fraction(1) / (u - 1))

    def casimir_rational():
        cp, cm, basis = _casimir_parts(rep)
        p1 = kop.scaled(Fraction(1, 26))
        scp = cp + p1.scaled(beta)
        acp = cm - p1.scaled(beta)
        return _mobius([(scp, _minimal_roots(scp, basis), -6, 0),
                        (acp, _minimal_roots(acp, basis), -6, 1)])

    return {"spectral": lambda: (spectral, [Fraction(1), Fraction(4),
                                            Fraction(6), Fraction(9)]),
            "casimir_rational": casimir_rational}, 26


def _e6_forms():
    alg, rep = defining("e6")
    sc = split_casimir(rep, rep)
    cp, cm = split_parts(sc)
    inv = invariants("e6")
    ident, perm = inv["I"], inv["P"]
    half = Fraction(1, 2)
    p27 = (ident + perm).scaled(Fraction(1, 15)) - cp.scaled(Fraction(3, 5))
    p351_1 = (ident - perm).scaled(half)
    p351_2 = (ident + perm).scaled(Fraction(13, 30)) + cp.scaled(Fraction(3, 5))

    def spectral(u: Fraction) -> SparseOp:
        return (p27.scaled((u - 4) / (u + 4))
                + p351_2.scaled((u + 1) / (u - 1)) + p351_1)

    def casimir_rational():
        roots = defining_identity("e6").roots
        return _mobius([(sc.operator, roots, 3, Fraction(1, 3))], sign=-1)

    return {"spectral": lambda: (spectral, [Fraction(-4), Fraction(1)]),
            "casimir_rational": casimir_rational}, 27


def _e7_forms(beta: Optional[Fraction]):
    alg, rep = defining("e7")
    cp, cm, basis = _casimir_parts(rep)
    inv = invariants("e7")
    ident, perm, p1 = inv["I"], inv["P"], inv["P1"]
    p133 = (ident + perm).scaled(Fraction(1, 16)) - cp
    p1463 = (ident + perm).scaled(Fraction(7, 16)) + cp
    p1_alt = (ident - perm).scaled(Fraction(-1, 112)) - cm.scaled(Fraction(3, 7))
    p1539 = (ident - perm).scaled(Fraction(57, 112)) + cm.scaled(Fraction(3, 7))
    if p1 != p1_alt:
        raise YangBaxterError("e7 singlet projector mismatch (J vs Casimir)")
    # beta shifts the combination 6*SC (unlike f4, where it shifts SC
    # itself); only this reading makes both printed beta values reproduce
    # the spectral singlet coefficient (u-9)(u-5)/((u+9)(u+5))
    beta = Fraction(beta) if beta is not None else Fraction(37, 4)

    def spectral(u: Fraction) -> SparseOp:
        return (p1.scaled((u - 9) * (u - 5) / ((u + 9) * (u + 5)))
                + p133.scaled((u - 5) / (u + 5))
                + p1463.scaled((u + 1) / (u - 1)) + p1539)

    def casimir_rational():
        scp = cp - p1.scaled(beta / 6)
        acp = cm + p1.scaled(beta / 6)
        # each factor is -(p + u) / (p - u), so the two signs cancel
        return _mobius([(scp, _minimal_roots(scp, basis), 6, Fraction(1, 4)),
                        (acp, _minimal_roots(acp, basis), 6, 0)])

    return {"spectral": lambda: (spectral, [Fraction(-9), Fraction(-5),
                                            Fraction(1)]),
            "casimir_rational": casimir_rational}, 56


def build_rmatrix(case: str, form: str,
                  beta: Optional[Fraction] = None) -> RMatrixFamily:
    """R-matrix family for one defining representation.

    e8 is refused: the paper's extended-adjoint solution is out of scope
    ("we will not present it here")."""
    an = parse_name(case)
    if an.family == "e8":
        raise UnsupportedCaseError(
            "the e8 extended-adjoint R-matrix is not provided (the source "
            "spectral decomposition is omitted as too cumbersome)")
    if form not in ("spectral", "casimir_rational"):
        raise YangBaxterError(f"unknown form {form!r}")
    if an.family == "sl":
        forms, d = _sl_forms(an.n)
    elif an.family in ("so", "sp"):
        forms, d = _sosp_forms(an.n, +1 if an.family == "so" else -1)
    elif an.family == "g2":
        forms, d = _g2_forms()
    elif an.family == "f4":
        forms, d = _f4_forms(beta)
    elif an.family == "e6":
        forms, d = _e6_forms()
    elif an.family == "e7":
        forms, d = _e7_forms(beta)
    else:
        raise UnsupportedCaseError(f"no R-matrix for {case}")
    fn, poles = forms[form]()
    return RMatrixFamily(str(an), form, d, poles, beta=beta, _eval=fn)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _check_poles(fam: RMatrixFamily, *us) -> None:
    for u in us:
        if Fraction(u) in fam.poles:
            raise PoleError(f"sample {u} hits a pole of {fam.case}")


def verify_ybe(fam: RMatrixFamily, u, v, trials: int = 8,
               seed: int = 0) -> VerificationReport:
    """R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u) on V^(x3), applied
    exactly to random integer vectors factor by factor; a FAIL names the
    first vector with a nonzero residual by its seed and draw number, and
    the first nonzero coordinate of the residual (`trial_witness`)."""
    u, v = Fraction(u), Fraction(v)
    _check_poles(fam, u, v, u + v)
    r_u = fam.evaluate(u)
    r_uv = fam.evaluate(u + v)
    r_v = fam.evaluate(v)
    d = fam.site_dim
    rng = np.random.default_rng(seed)
    for t in range(trials):
        w = Vec.random_exact(d ** 3, rng)
        lhs = apply_two_site(r_v, w, (1, 2), 3, d)
        lhs = apply_two_site(r_uv, lhs, (0, 2), 3, d)
        lhs = apply_two_site(r_u, lhs, (0, 1), 3, d)
        rhs = apply_two_site(r_u, w, (0, 1), 3, d)
        rhs = apply_two_site(r_uv, rhs, (0, 2), 3, d)
        rhs = apply_two_site(r_v, rhs, (1, 2), 3, d)
        diff = lhs - rhs
        if not diff.is_zero():
            return VerificationReport(
                f"{fam.case} YBE({fam.form}) at ({u},{v})", "FAIL", "exact",
                t + 1, witness=trial_witness(seed, t + 1, diff),
                detail=f"residual {diff.max_abs_value()}")
    return VerificationReport(f"{fam.case} YBE({fam.form}) at ({u},{v})",
                              "PASS", "exact", trials)


def verify_unitarity(fam: RMatrixFamily, u) -> VerificationReport:
    """P R(u) P R(-u) = 1, checked as an exact operator equality; a FAIL
    names [row, col] of an entry where it fails."""
    u = Fraction(u)
    _check_poles(fam, u, -u)
    d = fam.site_dim
    perm = swap_operator(d)
    prod = perm @ fam.evaluate(u) @ perm @ fam.evaluate(-u)
    where = _first_difference(prod, SparseOp.identity(d * d))
    return VerificationReport(f"{fam.case} unitarity({fam.form}) at u={u}",
                              "PASS" if where is None else "FAIL", "exact",
                              witness=where)


def verify_form_equivalence(case: str, samples: Sequence = (),
                            ) -> VerificationReport:
    """Spectral and Casimir-rational forms agree entrywise at sampled u;
    for f4/e7 both shift values of beta must also coincide.  A FAIL names
    [row, col] of an entry where they differ."""
    an = parse_name(case)
    samples = [Fraction(s) for s in samples] or \
        [u for u, _ in DEFAULT_SAMPLES]
    betas = {"f4": (Fraction(1, 2), Fraction(4, 3)),
             "e7": (Fraction(37, 4), Fraction(21, 4))}.get(an.family)
    spect = build_rmatrix(case, "spectral")
    cas = build_rmatrix(case, "casimir_rational",
                        beta=betas[0] if betas else None)
    cas2 = build_rmatrix(case, "casimir_rational", beta=betas[1]) \
        if betas else None
    for u in samples:
        if u in spect.poles or u in cas.poles or \
                (cas2 is not None and u in cas2.poles):
            continue
        a = spect.evaluate(u)
        b = cas.evaluate(u)
        where = _first_difference(a, b)
        if where is not None:
            return VerificationReport(
                f"{case} form equivalence", "FAIL", "exact", witness=where,
                detail=f"spectral != casimir at u = {u}")
        where = None if cas2 is None else _first_difference(b, cas2.evaluate(u))
        if where is not None:
            return VerificationReport(
                f"{case} form equivalence", "FAIL", "exact", witness=where,
                detail=f"beta values disagree at u = {u}")
    return VerificationReport(f"{case} form equivalence", "PASS", "exact",
                              len(samples))


def verify_classical_ybe(name: str, samples: Sequence = (), trials: int = 4,
                         seed: int = 0) -> VerificationReport:
    """r(u) = Chat/u solves the classical YBE; reduces to the Kono-Drinfeld
    relations, checked exactly on V^(x3) by two-site application.  A FAIL
    names the first vector with a nonzero residual by `trial_witness`; its
    draw number, and the report's trials, count the vectors of every
    sample before it."""
    alg, rep = defining(name)
    sc = split_casimir(rep, rep)
    c = sc.operator
    d = rep.dim_module
    samples = [(Fraction(u), Fraction(v)) for u, v in samples] \
        or DEFAULT_SAMPLES[:2]
    rng = np.random.default_rng(seed)
    for k, (u, v) in enumerate(samples):
        if 0 in (u, v, u + v):
            raise PoleError("classical r(u) = C/u needs nonzero arguments")
        w_u, w_uv, w_v = (Fraction(1) / u, Fraction(1) / (u + v),
                          Fraction(1) / v)
        for t in range(trials):
            w = Vec.random_exact(d ** 3, rng)

            def comm(sa, wa, sb, wb, vec):
                ab = apply_two_site(c, apply_two_site(c, vec, sb, 3, d),
                                    sa, 3, d)
                ba = apply_two_site(c, apply_two_site(c, vec, sa, 3, d),
                                    sb, 3, d)
                return (ab - ba).scaled(wa * wb)

            total = (comm((0, 1), w_u, (0, 2), w_uv, w)
                     + comm((0, 2), w_uv, (1, 2), w_v, w)
                     + comm((0, 1), w_u, (1, 2), w_v, w))
            if not total.is_zero():
                drawn = k * trials + t + 1
                return VerificationReport(
                    f"{name} classical YBE", "FAIL", "exact", drawn,
                    witness=trial_witness(seed, drawn, total))
    return VerificationReport(f"{name} classical YBE", "PASS", "exact",
                              trials * len(samples))
