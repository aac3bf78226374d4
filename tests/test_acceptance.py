"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Exact means zero residual in rational arithmetic; randomized-exact means the
expression is applied to 32 random integer vectors and every image is
exactly zero.  No criterion uses a floating-point tolerance.  The e7
unitarity check is an exact operator equality.  The Yang-Baxter check is
randomized-exact over its trial vectors, although its records carry the
method label "exact".
"""

import time
from fractions import Fraction

import pytest

CONSTRUCTED = (
    [f"sl({n})" for n in range(2, 7)]
    + [f"so({n})" for n in range(5, 11)]
    + [f"sp({n})" for n in range(4, 11, 2)]
    + ["g2", "f4", "e6", "e7", "e8"]
)

EXCEPTIONAL_DIMS = {"g2": 14, "f4": 52, "e6": 78, "e7": 133, "e8": 248}


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({label}): {status}{extra}")
    assert ok, f"criterion {num} ({label}) failed {extra}"


def test_criterion_1_construction_suite():
    from splitcasimir.algebras import (
        check_antisymmetry,
        check_jacobi,
        check_killing,
        check_representation,
    )
    from splitcasimir.catalog import defining

    t0 = time.time()
    ok = True
    details = []
    for name in CONSTRUCTED:
        alg, rep = defining(name)
        good = (check_antisymmetry(alg) and check_jacobi(alg)
                and check_killing(alg) and check_representation(rep))
        if name in EXCEPTIONAL_DIMS:
            good = good and alg.dim == EXCEPTIONAL_DIMS[name]
        if not good:
            ok = False
            details.append(name)
    # adjoint (Chevalley) constructions for the exceptional series
    from splitcasimir.chevalley import build_chevalley_adjoint
    for series, rank, dim in [("G", 2, 14), ("F", 4, 52), ("E", 6, 78),
                              ("E", 7, 133), ("E", 8, 248)]:
        alg, _ = build_chevalley_adjoint(series, rank)
        good = (alg.dim == dim and check_antisymmetry(alg)
                and check_jacobi(alg) and check_killing(alg))
        if not good:
            ok = False
            details.append(f"{series}{rank} adjoint")
    _line(1, "construction suite", ok,
          f"{len(CONSTRUCTED) + 5} builds, {time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(details) if details else ""))


def test_criterion_2_defining_identities():
    from splitcasimir.identities import verify_defining_identity

    t0 = time.time()
    cases = ([f"sl({n})" for n in range(2, 7)]
             + [f"so({n})" for n in range(5, 11)]
             + [f"sp({n})" for n in range(4, 11, 2)]
             + ["g2", "f4", "e6", "e7"])
    failed = [c for c in cases if not verify_defining_identity(c).passed]
    _line(2, "defining characteristic identities", not failed,
          f"{len(cases)} cases, {time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))


def test_criterion_3_adjoint_identities():
    from splitcasimir.identities import (
        verify_adjoint_identity,
        verify_antisymmetric_identity,
    )

    t0 = time.time()
    failed = []
    for name in CONSTRUCTED:
        if not verify_antisymmetric_identity(name).passed:
            failed.append(f"{name}:C-")
    quintic_cases = (["sl(3)", "sl(4)", "sl(5)", "sl(6)"]
                     + ["so(6)", "so(7)", "so(8)", "so(9)", "so(10)",
                        "so(12)", "sp(4)", "sp(6)", "sp(8)"]
                     + ["g2", "f4", "e6", "e7", "e8"])
    for name in quintic_cases:
        if not verify_adjoint_identity(name).passed:
            failed.append(name)
    _line(3, "adjoint characteristic identities", not failed,
          f"{len(CONSTRUCTED) + len(quintic_cases)} checks, "
          f"{time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))


def test_criterion_4_universal_symmetric_identity():
    from splitcasimir.identities import (
        exceptional_alpha_beta,
        verify_universal_sym_identity,
    )

    t0 = time.time()
    failed = []
    for name in ["sl(3)", "so(8)", "g2", "f4", "e6", "e7", "e8"]:
        if not verify_universal_sym_identity(name).passed:
            failed.append(name)
    table4 = {8: (Fraction(-1, 3), Fraction(1, 2)),
              28: (Fraction(-1, 6), Fraction(1, 3)),
              14: (Fraction(-1, 4), Fraction(5, 12)),
              52: (Fraction(-1, 9), Fraction(5, 18)),
              78: (Fraction(-1, 12), Fraction(1, 4)),
              133: (Fraction(-1, 18), Fraction(2, 9)),
              248: (Fraction(-1, 30), Fraction(1, 5))}
    for dim, want in table4.items():
        if exceptional_alpha_beta(dim) != want:
            failed.append(f"table4:{dim}")
    _line(4, "universal symmetric identity + Table 4", not failed,
          f"{time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))


def test_criterion_5_projector_families():
    from splitcasimir.projectors import (
        defining_family,
        exceptional_adjoint_family,
        sl_adjoint_family,
        so8_adjoint_family,
        sosp_adjoint_family,
    )

    t0 = time.time()
    failed = []

    def check(tag, fam, want_dims):
        traces = sorted(int(t) for t in fam.traces())
        if traces != sorted(want_dims):
            failed.append(f"{tag}:dims{traces}")
            return
        if not fam.verify()["all_pass"]:
            failed.append(f"{tag}:axioms")

    check("sl(4)7", sl_adjoint_family(4), [45, 45, 15, 15, 1, 84, 20])
    check("sl(5)7", sl_adjoint_family(5), [126, 126, 24, 24, 1, 200, 75])
    for n, eps, m in [(7, 1, 7), (9, 1, 9), (4, -1, -4), (6, -1, -6)]:
        want = [m * (m - 1) * (m + 2) * (m - 3) // 8, m * (m - 1) // 2, 1,
                m * (m + 1) * (m + 2) * (m - 3) // 12,
                m * (m - 1) * (m - 2) * (m - 3) // 24,
                (m - 1) * (m + 2) // 2]
        check(f"so/sp M={m}", sosp_adjoint_family(n, eps), want)
    check("so(8)7", so8_adjoint_family(), [350, 28, 1, 300, 35, 35, 35])
    check("g2adj", exceptional_adjoint_family("g2"), [1, 27, 77, 14, 77])
    check("f4adj", exceptional_adjoint_family("f4"),
          [1, 324, 1053, 52, 1274])
    check("e6adj", exceptional_adjoint_family("e6"),
          [1, 650, 2430, 78, 2925])
    check("e7adj", exceptional_adjoint_family("e7"),
          [1, 1539, 7371, 133, 8645])
    check("e8adj", exceptional_adjoint_family("e8"),
          [1, 3875, 27000, 248, 30380])
    check("g2def", defining_family("g2"), [1, 7, 14, 27])
    check("f4def", defining_family("f4"), [1, 26, 52, 273, 324])
    check("e6def", defining_family("e6"), [27, 351, 351])
    check("e7def", defining_family("e7"), [1, 133, 1463, 1539])
    _line(5, "projector families", not failed,
          f"{time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))


def test_criterion_6_yang_baxter():
    from splitcasimir.yangbaxter import (
        DEFAULT_SAMPLES,
        build_rmatrix,
        verify_form_equivalence,
        verify_unitarity,
        verify_ybe,
    )

    t0 = time.time()
    failed = []
    exact_cases = (["sl(2)", "sl(3)", "sl(4)"]
                   + ["so(5)", "so(6)", "so(7)"]
                   + ["sp(4)", "sp(6)"] + ["g2", "f4", "e6"])
    for case in exact_cases:
        fam = build_rmatrix(case, "spectral")
        for u, v in DEFAULT_SAMPLES:
            rep = verify_ybe(fam, u, v, trials=1)
            if not rep.passed:
                failed.append(f"{case}:ybe({u},{v})")
        for u, _ in DEFAULT_SAMPLES:
            if not verify_unitarity(fam, u).passed:
                failed.append(f"{case}:unit({u})")
    fam7 = build_rmatrix("e7", "spectral")
    rep = verify_ybe(fam7, Fraction(1, 2), Fraction(1, 3), trials=8)
    if not rep.passed:
        failed.append("e7:ybe")
    if not verify_unitarity(fam7, Fraction(2, 5)).passed:
        failed.append("e7:unit")
    for case in exact_cases + ["e7"]:
        if not verify_form_equivalence(
                case, samples=[Fraction(1, 2), Fraction(2, 5)]).passed:
            failed.append(f"{case}:formeq")
    _line(6, "Yang-Baxter suite", not failed,
          f"{time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))


def test_criterion_7_vogel():
    from splitcasimir.catalog import defining
    from splitcasimir.vogel import (
        diophantine_scan,
        integrality_filter,
        universal_dim_g,
        universal_dim_y2,
        vogel_point,
    )

    t0 = time.time()
    failed = []
    for name in CONSTRUCTED:
        alg, _ = defining(name)
        if universal_dim_g(vogel_point(name)) != alg.dim:
            failed.append(f"dim:{name}")
    seq = diophantine_scan(3500)
    want_seq = [3, 8, 14, 28, 47, 52, 78, 96, 119, 133, 190, 248, 287, 336,
                484, 603, 782, 1081, 1680, 3479]
    if seq != want_seq:
        failed.append("scan")
    filt = integrality_filter(seq)
    if filt["excluded"] != [47, 96, 119, 287, 336, 603, 782, 1680, 3479]:
        failed.append("filter")
    y2_expect = {"g2": (77, 27), "f4": (1053, 324), "e6": (2430, 650),
                 "e7": (7371, 1539), "e8": (27000, 3875)}
    for name, (ya, yb) in y2_expect.items():
        pt = vogel_point(name)
        if (universal_dim_y2(pt, "alpha"), universal_dim_y2(pt, "beta")) \
                != (ya, yb):
            failed.append(f"y2:{name}")
    pt8 = vogel_point("so(8)")
    if (universal_dim_y2(pt8, "beta"), universal_dim_y2(pt8, "gamma")) \
            != (35, 35):
        failed.append("y2:so(8)")
    _line(7, "Vogel formulas / scan / filter", not failed,
          f"{time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))


def test_criterion_8_trace_suite():
    from splitcasimir.casimir import trace_suite
    from splitcasimir.catalog import adjoint_context

    t0 = time.time()
    failed = []
    for name in CONSTRUCTED:
        ctx = adjoint_context(name)
        suite = trace_suite(ctx.sc, big_k=ctx.big_k)
        if not suite["all_pass"]:
            failed.append(name)
    _line(8, "adjoint trace suite", not failed,
          f"{len(CONSTRUCTED)} algebras, {time.time() - t0:.0f}s"
          + ("; failed: " + ",".join(failed) if failed else ""))
