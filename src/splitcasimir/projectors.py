"""Complete invariant projector families on tensor squares: Lagrange
interpolation on verified characteristic identities, parity / Q_minus / E_4
refinements, the paper's explicit adjoint families for the exceptional
algebras, and the universal symmetric family in Vogel form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import AdjointContext, adjoint_context, defining, parse_name
from .casimir import (
    RowBasis,
    RowBasisError,
    antisymmetrizer_4,
    e4_operator,
    q_minus,
    split_casimir,
)
from .identities import (
    CharIdentity,
    adjoint_identity,
    defining_identity,
    verify_identity,
)
from .kernel import (
    KernelError,
    SparseOp,
    Vec,
    combine,
    vec_combine,
)

# member products are checked by factored application beyond this dimension;
# below it the products are also materialized sparsely as a cross-check
MATERIALIZED_PRODUCT_MAX_DIM = 1500
PRODUCT_TRIALS = 32
# probes v, lambda, mu of the weighted product check are uniform in
# [-PRODUCT_PROBE_RANGE, PRODUCT_PROBE_RANGE]: a trial's false-pass bound is
# 3/2049 <= 1/19, so PRODUCT_TRIALS trials stay within 19^-32
PRODUCT_PROBE_RANGE = 2 ** 10


class ProjectorError(Exception):
    pass


@dataclass
class FamilyMember:
    label: str
    operator: SparseOp
    expected_dim: int
    eigenvalue: Optional[Fraction] = None
    refinement: Optional[str] = None


@dataclass
class ProjectorFamily:
    members: List[FamilyMember]
    completeness_target: SparseOp
    basis: RowBasis
    context: str = ""
    verification: Optional[dict] = field(default=None, repr=False)

    def traces(self) -> List[Fraction]:
        return [m.operator.trace() for m in self.members]

    def verify(self, seed: int = 0, trials: int = PRODUCT_TRIALS) -> dict:
        """Idempotency, mutual orthogonality, completeness and integer
        traces: all k^2 relations P_i P_j = delta_ij P_j.

        Up to MATERIALIZED_PRODUCT_MAX_DIM every product is materialized
        (``method`` "exact_full", ``false_pass_bound`` 0).  Above it each
        trial is one weighted Freivalds check: with v, lambda and mu uniform
        in [-PRODUCT_PROBE_RANGE, PRODUCT_PROBE_RANGE], y_j = P_j v and
        w = sum_j mu_j y_j, it tests sum_i lambda_i P_i w ==
        sum_j lambda_j mu_j y_j in 2k matvecs (``method``
        "randomized_exact").  For a wrong family the residual
        sum_ij lambda_i mu_j (P_i P_j - delta_ij P_j) v is a nonzero
        polynomial of degree 1 in each of v, lambda and mu, so by
        Schwartz-Zippel a trial passes it with probability at most
        1/|V| + 2/|Lambda| = 3/2049, with |V| = |Lambda| =
        2 PRODUCT_PROBE_RANGE + 1 the values a probe entry takes.
        ``false_pass_bound`` is that to the power of ``trials``, the number
        of trials run (at most 19^-32 for the default 32).

        Above the bound the checks run on the representative rows of
        ``basis``.  Each member is checked exactly once to lie in the
        unit's image, P_j == B M_j with M_j = S P_j; one that does not
        FAILs the family, named with the [row, col] where
        P_j != B (S P_j).  Completeness is sum_j M_j == S T with
        T == B (S T).  A trial forms y'_j = M_j v, w' = sum_j mu_j y'_j and
        compares sum_i lambda_i (M_i B) w' with sum_j lambda_j mu_j y'_j
        (``RowBasis.compress``): 2k matvecs on len(rows) rows.  Then
        y_j = B y'_j, both sides of the full check are B times these, and
        B is injective (S B = 1), so every trial has the full check's
        verdict on the same draws.  For the identity basis
        M_j = M_j B = P_j.  When a member or T leaves the image, the trials
        and the sum run on the full members.  A failing trial reruns the
        per-pair products P_i P_j v on the full members to name the wrong
        pairs.
        """
        report = {"traces": True, "idempotent": True, "orthogonal": True,
                  "complete": True, "failures": []}
        for m in self.members:
            tr = m.operator.trace()
            if tr != m.expected_dim:
                report["traces"] = False
                report["failures"].append(
                    f"trace({m.label}) = {tr} != {m.expected_dim}")
        dim = self.completeness_target.rows
        ops = [m.operator for m in self.members]
        heads, tails, target = ops, ops, self.completeness_target
        if dim > MATERIALIZED_PRODUCT_MAX_DIM:
            heads, tails, target = self._rows(report, ops)
        if combine((1, h) for h in heads) != target:
            report["complete"] = False
            report["failures"].append("sum of members != completeness target")
        if dim <= MATERIALIZED_PRODUCT_MAX_DIM:
            report.update(method="exact_full", trials=0,
                          false_pass_bound=Fraction(0))
            for i, pi in enumerate(ops):
                for j, pj in enumerate(ops):
                    prod = pi @ pj
                    ok = prod == pj if i == j else prod.is_zero()
                    if not ok:
                        self._product_failure(report, i, j, "")
        else:
            rng = np.random.default_rng(seed)
            r = PRODUCT_PROBE_RANGE
            run = trials
            for t in range(trials):
                v = Vec(rng.integers(-r, r + 1, size=dim))
                lam = [int(x) for x in rng.integers(-r, r + 1, size=len(ops))]
                mu = [int(x) for x in rng.integers(-r, r + 1, size=len(ops))]
                images = [h.matvec(v) for h in heads]
                w = vec_combine(zip(mu, images))
                want = vec_combine(
                    (a * b, y) for a, b, y in zip(lam, mu, images))
                got = vec_combine(zip(lam, (p.matvec(w) for p in tails)))
                if got != want:
                    self._name_pairs(report, ops, v, t)
                    run = t + 1
                    break
            sides = 2 * r + 1  # |V| = |Lambda|
            report.update(method="randomized_exact", trials=run,
                          false_pass_bound=(Fraction(1, sides)
                                            + Fraction(2, sides)) ** run)
        report["all_pass"] = not report["failures"]
        self.verification = report
        return report

    def _rows(self, report: dict, ops: List[SparseOp]
              ) -> Tuple[List[SparseOp], List[SparseOp], SparseOp]:
        """(M_j, M_j B, S T) on the representative rows, once every member
        and T lie in the unit's image; else the full (P_j, P_j, T), each
        member outside the image named in the failures with its witness
        (a T outside it fails the sum, which lies in the image)."""
        tails = []
        for m, p in zip(self.members, ops):
            try:
                tails.append(self.basis.compress(p, f"P[{m.label}]"))
            except RowBasisError as err:
                report["failures"].append(str(err))
        target, where = self.basis.image_mismatch(self.completeness_target)
        if len(tails) < len(ops) or where is not None:
            return ops, ops, self.completeness_target
        return [self.basis.select(p) for p in ops], tails, target

    def _name_pairs(self, report: dict, ops: List[SparseOp], v: Vec,
                    t: int) -> None:
        images = [p.matvec(v) for p in ops]
        for i, pi in enumerate(ops):
            for j, y in enumerate(images):
                image = pi.matvec(y)
                if not (image == y if i == j else image.is_zero()):
                    self._product_failure(report, i, j, f" (trial {t})")

    def _product_failure(self, report: dict, i: int, j: int,
                         where: str) -> None:
        report["idempotent" if i == j else "orthogonal"] = False
        report["failures"].append(f"P[{self.members[i].label}] "
                                  f"P[{self.members[j].label}] wrong{where}")


# ---------------------------------------------------------------------------
# Lagrange construction and refinements
# ---------------------------------------------------------------------------

def lagrange_basis(roots: Sequence[Fraction]) -> List[List[Fraction]]:
    """The Lagrange basis polynomials L_j(x) = prod_{i != j} (x - a_i) /
    (a_j - a_i) of distinct roots a_j, each as its coefficient list,
    constant term first."""
    basis = []
    for aj in roots:
        coeffs = [Fraction(1)]  # prod_{i != j} (x - a_i)
        denom = Fraction(1)
        for ai in roots:
            if ai == aj:
                continue
            coeffs = [Fraction(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= ai * coeffs[k + 1]
            denom *= (aj - ai)
        basis.append([c / denom for c in coeffs])
    return basis


def lagrange_family(op: SparseOp, ident: CharIdentity, unit: RowBasis,
                    expected_dims: Optional[Dict[Fraction, int]] = None,
                    context: str = "") -> ProjectorFamily:
    """P_j = L_j(op) unit = prod_{i != j} (op - a_i)/(a_j - a_i) unit over
    the identity's roots, for the unit of the row basis ``unit``
    (``SplitCasimir.basis``; ``RowBasis.identity`` for a plain operator).

    The identity is checked first (randomized_exact, 4 trials).  All members
    share one chain of powers M_k = M_0 @ op^k (k < number of roots) on the
    representative rows, from M_0 = S unit: P_j = B sum_k L_j[k] M_k
    (``lagrange_basis``), summed by ``combine``.  ``RowBasis.chain`` checks
    the premises exactly (op lies in the unit's image and commutes with
    it), and each member equals the factor-by-factor product once they
    hold.  For the identity, M_0 is the identity and M_1 is op itself.

    Repeated roots are rejected by CharIdentity itself; non-primitive members
    are the caller's business (see refine_family).
    """
    rep = verify_identity(op, ident, unit, method="randomized_exact",
                          trials=4, target="lagrange precheck")
    if not rep.passed:
        raise ProjectorError("characteristic identity fails; no family")
    try:
        head, first = unit.chain(op)
    except KernelError as err:
        raise ProjectorError(f"{err}; no family") from err
    powers = [head, first]
    while len(powers) < len(ident.roots):
        powers.append(powers[-1] @ op)
    members = []
    for aj, coeffs in zip(ident.roots, lagrange_basis(ident.roots)):
        proj = unit.expand(combine(zip(coeffs, powers)))
        dim = (expected_dims or {}).get(aj)
        if dim is None:
            tr = proj.trace()
            if tr.denominator != 1:
                raise ProjectorError(f"non-integer trace {tr}")
            dim = int(tr)
        members.append(FamilyMember(f"ev={aj}", proj, dim, eigenvalue=aj))
    return ProjectorFamily(members, unit.unit, unit, context=context)


def refine_family(family: ProjectorFamily,
                  refiners: Dict[str, Sequence[Tuple[str, SparseOp, int]]]
                  ) -> ProjectorFamily:
    """Split selected members with a complete set of commuting projectors.

    ``refiners`` maps a member label to [(tag, refine_op, expected_dim)];
    each such member is replaced by the products refine_op @ member (zero
    products dropped when their expected dim is 0).
    """
    out = []
    for m in family.members:
        if m.label not in refiners:
            out.append(m)
            continue
        for tag, rop, dim in refiners[m.label]:
            prod = rop @ m.operator
            if dim == 0 and prod.is_zero():
                continue
            out.append(FamilyMember(f"{m.label}|{tag}", prod, dim,
                                    eigenvalue=m.eigenvalue, refinement=tag))
    return ProjectorFamily(out, family.completeness_target, family.basis,
                           context=family.context + "+refined")


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------

def defining_family(name: str) -> ProjectorFamily:
    """Lagrange family of the defining-representation split Casimir, with
    the paper's dimensions attached."""
    an = parse_name(name)
    alg, rep = defining(name)
    sc = split_casimir(rep, rep)
    ident = defining_identity(name)
    dims = _defining_dims(an, rep.dim_module)
    fam = lagrange_family(sc.operator, ident, sc.basis(), expected_dims=dims,
                          context=f"{name} defining")
    return fam


def _defining_dims(an, d) -> Dict[Fraction, int]:
    if an.family == "sl":
        n = an.n
        return {Fraction(-(1 + n), 2 * n * n): n * (n - 1) // 2,
                Fraction(n - 1, 2 * n * n): n * (n + 1) // 2}
    if an.family in ("so", "sp"):
        n, eps = an.n, 1 if an.family == "so" else -1
        d2 = Fraction(1, n - 2 * eps)
        # the singlet sits inside the symmetric part for so, the
        # antisymmetric part for sp (the invariant form c is antisymmetric)
        sym = n * (n + 1) // 2 - (1 if eps == 1 else 0)
        anti = n * (n - 1) // 2 - (0 if eps == 1 else 1)
        return {d2 / 2: sym, -d2 / 2: anti, -d2 * (n - eps) / 2: 1}
    tables = {
        "g2": {Fraction(0): 14, Fraction(1, 3): 27, Fraction(-1): 7,
               Fraction(-2): 1},
        "f4": {Fraction(0): 273, Fraction(-1): 26, Fraction(-2): 1,
               Fraction(-1, 2): 52, Fraction(1, 6): 324},
        "e6": {Fraction(-13, 9): 27, Fraction(-1, 9): 351,
               Fraction(2, 9): 351},
        "e7": {Fraction(1, 8): 1463, Fraction(-7, 8): 133,
               Fraction(-19, 8): 1, Fraction(-1, 24): 1539},
    }
    return tables[an.family]


_EXCEPTIONAL_FAMILY_TABLE = {
    # label -> (dim, c_IP, c_Cplus, c_K) for the two symmetric members;
    # the antisymmetric pair and the singlet are universal
    "g2": (("27", 27, Fraction(3, 16), Fraction(-3, 2), Fraction(-15, 112)),
           ("77", 77, Fraction(5, 16), Fraction(3, 2), Fraction(1, 16))),
    "f4": (("324", 324, Fraction(1, 7), Fraction(-18, 7), Fraction(-5, 91)),
           ("1053", 1053, Fraction(5, 14), Fraction(18, 7), Fraction(1, 28))),
    "e6": (("650", 650, Fraction(1, 8), Fraction(-3), Fraction(-1, 24)),
           ("2430", 2430, Fraction(3, 8), Fraction(3), Fraction(3, 104))),
    "e7": (("1539", 1539, Fraction(1, 10), Fraction(-18, 5), Fraction(-1, 35)),
           ("7371", 7371, Fraction(2, 5), Fraction(18, 5), Fraction(2, 95))),
    "e8": (("3875", 3875, Fraction(1, 14), Fraction(-30, 7), Fraction(-1, 56)),
           ("27000", 27000, Fraction(3, 7), Fraction(30, 7), Fraction(3, 217))),
}


def exceptional_adjoint_family(name: str) -> ProjectorFamily:
    """The five projectors of an exceptional adjoint tensor square, from the
    paper's affine expressions in I, P, K, C+-."""
    an = parse_name(name)
    if an.family not in _EXCEPTIONAL_FAMILY_TABLE:
        raise ProjectorError(f"{name} is not an exceptional algebra")
    ctx = adjoint_context(name)
    cp, cm = ctx.sc.parts()
    unit, swap, k = ctx.ops["I"], ctx.ops["P"], ctx.big_k
    dim_g = ctx.dim_g
    ip = unit + swap
    members = [
        FamilyMember("ad", cm.scaled(-2), dim_g, Fraction(-1, 2)),
        FamilyMember("X2", (unit - swap).scaled(Fraction(1, 2)) + cm.scaled(2),
                     dim_g * (dim_g - 3) // 2, Fraction(0)),
        FamilyMember("1", k.scaled(Fraction(1, dim_g)), 1, Fraction(-1)),
    ]
    from .identities import _EXCEPTIONAL_ADJ
    a2t, b2t = _EXCEPTIONAL_ADJ[an.family]
    eigen = (-b2t, -a2t)  # smaller member is Y2(beta), larger is Y2(alpha)
    for (label, dim, c_ip, c_cp, c_k), ev in zip(
            _EXCEPTIONAL_FAMILY_TABLE[an.family], eigen):
        op = ip.scaled(c_ip) + cp.scaled(c_cp) + k.scaled(c_k)
        members.append(FamilyMember(label, op, dim, eigenvalue=ev))
    return ProjectorFamily(members, unit, ctx.sc.basis(),
                           context=f"{name} adjoint")


def sl_adjoint_family(n: int) -> ProjectorFamily:
    """The seven sl(N >= 4) adjoint projectors (Lagrange + parity + Q-)."""
    if n < 4:
        raise ProjectorError("the 7-projector family needs N >= 4")
    ctx = adjoint_context(f"sl({n})")
    ident = adjoint_identity(f"sl({n})")
    unit, swap = ctx.ops["I"], ctx.ops["P"]
    half = Fraction(1, 2)
    p_plus = (unit + swap).scaled(half)
    p_minus = (unit - swap).scaled(half)
    dims = {
        Fraction(0): (n * n - 1) * (n * n - 4) // 2,
        Fraction(-1, 2): 2 * (n * n - 1),
        Fraction(-1): 1,
        Fraction(1, n): n * n * (n - 1) * (n + 3) // 4,
        Fraction(-1, n): n * n * (n + 1) * (n - 3) // 4,
    }
    base = lagrange_family(ctx.sc.operator, ident, unit=ctx.sc.basis(),
                           expected_dims=dims, context=f"sl({n}) adjoint")
    q = q_minus(n)
    q2 = q @ q
    refiners = {
        "ev=0": [("q=+1", (q2 + q).scaled(half),
                  (n * n - 1) * (n * n - 4) // 4),
                 ("q=-1", (q2 - q).scaled(half),
                  (n * n - 1) * (n * n - 4) // 4)],
        "ev=-1/2": [("sym", p_plus, n * n - 1),
                    ("anti", p_minus, n * n - 1)],
    }
    return refine_family(base, refiners)


def sosp_adjoint_family(n: int, eps: int) -> ProjectorFamily:
    """The six so/sp adjoint projectors with trace dimensions in M = eps*N."""
    m = eps * n
    if m in (8, 6, 4, 5):
        raise ProjectorError("degenerate M; so(8) has its own family")
    ctx = adjoint_context(f"{'so' if eps == 1 else 'sp'}({n})")
    ident = adjoint_identity(ctx.name)
    dims = sosp_dimension_table(m)
    return lagrange_family(ctx.sc.operator, ident, unit=ctx.sc.basis(),
                           expected_dims=dims, context=f"{ctx.name} adjoint")


def sosp_dimension_table(m: int) -> Dict[Fraction, int]:
    def as_int(x):
        f = Fraction(x)
        assert f.denominator == 1
        return int(f)
    return {
        Fraction(0): as_int(Fraction(m * (m - 1) * (m + 2) * (m - 3), 8)),
        Fraction(-1, 2): as_int(Fraction(m * (m - 1), 2)),
        Fraction(-1): 1,
        Fraction(1, m - 2): as_int(Fraction(m * (m + 1) * (m + 2) * (m - 3), 12)),
        Fraction(-2, m - 2): as_int(Fraction(m * (m - 1) * (m - 2) * (m - 3), 24)),
        Fraction(-(m - 4), 2 * (m - 2)): as_int(Fraction((m - 1) * (m + 2), 2)),
    }


def so8_adjoint_family() -> ProjectorFamily:
    """The seven primitive so(8) projectors: the 105-dim eigenspace of
    eigenvalue -1/3 splits through A_4 and the self-duality operator E_4."""
    ctx = adjoint_context("so(8)")
    ident = adjoint_identity("so(8)")
    assert sorted(ident.roots) == sorted(
        [Fraction(0), Fraction(-1, 2), Fraction(-1), Fraction(1, 6),
         Fraction(-1, 3)])
    dims = {Fraction(0): 350, Fraction(-1, 2): 28, Fraction(-1): 1,
            Fraction(1, 6): 300, Fraction(-1, 3): 105}
    base = lagrange_family(ctx.sc.operator, ident, unit=ctx.sc.basis(),
                           expected_dims=dims, context="so(8) adjoint")
    a4 = antisymmetrizer_4(8)
    e4 = e4_operator()
    half = Fraction(1, 2)
    refiners = {
        "ev=-1/3": [
            ("not-selfdual", ctx.ops["I"] - a4, 35),
            ("selfdual+", (a4 + e4).scaled(half), 35),
            ("selfdual-", (a4 - e4).scaled(half), 35),
        ],
    }
    return refine_family(base, refiners)


def x1x2_split(name: str) -> ProjectorFamily:
    """P1 = -2 C-, P2 = 2 C- + P_minus: the two antisymmetric components."""
    ctx = adjoint_context(name)
    _, cm = ctx.sc.parts()
    p_minus = (ctx.ops["I"] - ctx.ops["P"]).scaled(Fraction(1, 2))
    dim_g = ctx.dim_g
    members = [
        FamilyMember("X1=ad", cm.scaled(-2), dim_g),
        FamilyMember("X2", cm.scaled(2) + p_minus, dim_g * (dim_g - 3) // 2),
    ]
    return ProjectorFamily(members, p_minus, ctx.sc.basis(),
                           context=f"{name} X1/X2")


def universal_symmetric_family(name: str) -> ProjectorFamily:
    """P+(alpha|beta,gamma) etc. from the universal Vogel-parameter formula;
    completeness target is the symmetric projector."""
    from .vogel import (
        exceptional_line_check,
        universal_dim_g,
        universal_dim_y2,
        vogel_point,
    )
    pt = vogel_point(name)
    ctx = adjoint_context(name)
    cp, _ = ctx.sc.parts()
    unit, swap, k = ctx.ops["I"], ctx.ops["P"], ctx.big_k
    dim_g = ctx.dim_g
    assert universal_dim_g(pt) == dim_g
    p_plus = (unit + swap).scaled(Fraction(1, 2))
    on_line, _ = exceptional_line_check(pt)
    if on_line and cp.rows > MATERIALIZED_PRODUCT_MAX_DIM:
        # C+^2 is affine in C+, I+P, K on the exceptional line (verified
        # independently); saves materializing C+^2 at e7/e8 scale
        from .identities import universal_mu
        mu = universal_mu(dim_g)
        cp2 = cp.scaled(Fraction(-1, 6)) + (unit + swap + k).scaled(mu)
    else:
        (cp2,) = ctx.sc.basis().powers(cp, 2)
    ip = unit + swap
    members = []
    degenerate = []
    names = ("alpha", "beta", "gamma")
    vals = (pt.alpha, pt.beta, pt.gamma)
    for which, head in zip(names, range(3)):
        a = vals[head]
        b, c = [vals[x] for x in range(3) if x != head]
        t = pt.t
        if (b - a) * (c - a) == 0:
            # coinciding parameters (so(8)): the slot has no separate
            # universal projector; its eigenspace is covered by the merged
            # complement added below
            degenerate.append(which)
            continue
        pref = 4 * t * t / ((b - a) * (c - a))
        op = (cp2 + cp.scaled(Fraction(1, 2) - a / (2 * t))
              + (ip - k.scaled(2 * a / (a - 2 * t))).scaled(
                  b * c / (8 * t * t))).scaled(pref)
        dim = universal_dim_y2(pt, which)
        assert dim.denominator == 1
        members.append(FamilyMember(f"Y2({which})", op, int(dim)))
    members.append(FamilyMember("X0", k.scaled(Fraction(1, dim_g)), 1))
    if degenerate:
        rest = p_plus
        covered = 0
        for m in members:
            rest = rest - m.operator
            covered += m.expected_dim
        total_sym = dim_g * (dim_g + 1) // 2
        members.append(FamilyMember(
            "Y2(" + "+".join(degenerate) + ")|merged", rest,
            total_sym - covered))
    live = [m for m in members if not (m.expected_dim == 0
                                       and m.operator.is_zero())]
    dropped = [m.label for m in members if m not in live]
    fam = ProjectorFamily(live, p_plus, ctx.sc.basis(),
                          context=f"{name} universal symmetric")
    fam.dropped_zero_members = dropped
    return fam
