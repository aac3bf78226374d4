"""Command-line verification harness.

Subcommands: construct, verify, projectors, ybe, vogel, report.  Only the
subcommands that run identity suites (verify, report) take --method.  Exit
code is 0 iff every executed check passed.  Identical (config, seed) runs emit
byte-identical reports; --timings adds wall-clock columns and is excluded
from that guarantee.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from .identities import METHODS
from .report import CheckRecord, Report, emit, vogel_table_markdown

SUITES = ("construct", "casimir", "identities", "projectors", "ybe", "vogel")

DEFAULT_ALGEBRAS = ["sl(2)", "sl(3)", "sl(4)", "so(5)", "so(7)", "sp(4)",
                    "g2", "f4"]

ACCEPTANCE_ALGEBRAS = ["sl(2)", "sl(3)", "sl(4)", "sl(5)", "sl(6)",
                       "so(5)", "so(6)", "so(7)", "so(8)", "so(9)", "so(10)",
                       "sp(4)", "sp(6)", "sp(8)", "sp(10)",
                       "g2", "f4", "e6", "e7", "e8"]


@dataclass
class SuiteConfig:
    algebras: List[str]
    suites: List[str]
    method: str = "auto"
    fmt: str = "json"
    seed: int = 0
    timings: bool = False
    samples: Optional[List[Fraction]] = None

    def to_dict(self) -> dict:
        samples = None if self.samples is None else \
            [str(x) for x in self.samples]
        return {"algebras": self.algebras, "suites": self.suites,
                "method": self.method, "format": self.fmt,
                "seed": self.seed, "samples": samples}


class _Recorder:
    def __init__(self, report: Report, suite: str, timings: bool):
        self.report = report
        self.suite = suite
        self.timings = timings

    def add(self, target, status, method="", observed="", expected="",
            witness=None, seconds=None):
        self.report.add(CheckRecord(
            self.suite, target, status, method, str(observed), str(expected),
            witness, seconds if self.timings else None))

    def run(self, target, fn, expected=""):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a crashed check is a failed check
            self.add(target, "FAIL", observed=f"error: {exc}",
                     expected=expected, seconds=time.perf_counter() - t0)
            return None
        dt = time.perf_counter() - t0
        if hasattr(out, "status"):
            self.add(target, out.status, getattr(out, "method", ""),
                     getattr(out, "detail", "") or "", expected,
                     out.to_dict().get("witness"), seconds=dt)
        elif isinstance(out, bool):
            self.add(target, "PASS" if out else "FAIL", expected=expected,
                     seconds=dt)
        else:
            self.add(target, "PASS", observed=out, expected=expected,
                     seconds=dt)
        return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_construct(rec: _Recorder, name: str, config: SuiteConfig) -> None:
    from . import algebras as alg_mod
    from .catalog import defining

    alg, rep = defining(name)
    rec.add(f"{name} dim", "PASS", observed=alg.dim)
    rec.run(f"{name} antisymmetry", lambda: alg_mod.check_antisymmetry(alg))
    rec.run(f"{name} Jacobi", lambda: alg_mod.check_jacobi(alg))
    rec.run(f"{name} Killing", lambda: alg_mod.check_killing(alg))
    rec.run(f"{name} adjoint c2 = 1",
            lambda: alg_mod.check_adjoint_casimir_is_identity(alg))
    rec.run(f"{name} defining rep brackets",
            lambda: alg_mod.check_representation(rep))


def _suite_casimir(rec: _Recorder, name: str, config: SuiteConfig) -> None:
    from .casimir import trace_suite
    from .catalog import adjoint_context

    ctx = adjoint_context(name)
    suite = trace_suite(ctx.sc, big_k=ctx.big_k)
    for key, ok in suite["status"].items():
        rec.add(f"{name} {key}", "PASS" if ok else "FAIL",
                observed=suite["observed"][key],
                expected=suite["expected"][key])


def _suite_identities(rec: _Recorder, name: str, config: SuiteConfig) -> None:
    from .catalog import parse_name
    from .identities import (
        verify_adjoint_identity,
        verify_antisymmetric_identity,
        verify_classical_generic_identity,
        verify_defining_identity,
        verify_universal_sym_identity,
    )

    an = parse_name(name)
    rec.run(f"{name} defining identity",
            lambda: verify_defining_identity(name, config.method,
                                             seed=config.seed))
    rec.run(f"{name} adjoint identity",
            lambda: verify_adjoint_identity(name, config.method,
                                            seed=config.seed))
    rec.run(f"{name} C- identity",
            lambda: verify_antisymmetric_identity(name, config.method,
                                                  seed=config.seed))
    if an.is_exceptional or str(an) in ("sl(3)", "so(8)"):
        rec.run(f"{name} universal symmetric identity",
                lambda: verify_universal_sym_identity(name, config.method,
                                                      seed=config.seed))
    if an.family in ("sl", "so", "sp") and str(an) not in ("sl(3)", "so(8)"):
        exclude = {"sl(2)", "so(3)", "so(4)", "so(5)", "so(6)", "sp(2)"}
        if str(an) not in exclude:
            rec.run(f"{name} generic classical identity",
                    lambda: verify_classical_generic_identity(
                        name, config.method, seed=config.seed))


def _suite_projectors(rec: _Recorder, name: str, config: SuiteConfig) -> None:
    from .catalog import parse_name
    from .projectors import (
        defining_family,
        exceptional_adjoint_family,
        sl_adjoint_family,
        so8_adjoint_family,
        sosp_adjoint_family,
        universal_symmetric_family,
        x1x2_split,
    )

    an = parse_name(name)

    def run_family(tag, builder):
        def job():
            fam = builder()
            res = fam.verify(seed=config.seed)
            dims = sorted(m.expected_dim for m in fam.members)
            if not res["all_pass"]:
                raise AssertionError("; ".join(res["failures"][:3]))
            return f"dims {dims}"
        rec.run(f"{name} {tag}", job)

    if an.family != "e8":
        run_family("defining family", lambda: defining_family(name))
    run_family("X1/X2 split", lambda: x1x2_split(name))
    if an.family == "sl" and an.n >= 4:
        run_family("adjoint 7-projector family",
                   lambda: sl_adjoint_family(an.n))
    elif str(an) == "so(8)":
        run_family("adjoint primitive family", so8_adjoint_family)
    elif an.family in ("so", "sp"):
        m = an.n if an.family == "so" else -an.n
        if m not in (4, 5, 6, 8):
            run_family("adjoint 6-projector family",
                       lambda: sosp_adjoint_family(an.n,
                                                   1 if an.family == "so" else -1))
    elif an.is_exceptional:
        run_family("adjoint 5-projector family",
                   lambda: exceptional_adjoint_family(name))
    if an.family in ("so", "sp") or an.is_exceptional or an.family == "sl":
        skip = {"sl(2)", "so(3)", "so(4)", "so(5)", "sp(2)", "so(6)"}
        if str(an) not in skip:
            run_family("universal symmetric family",
                       lambda: universal_symmetric_family(name))


def _suite_ybe(rec: _Recorder, name: str, config: SuiteConfig) -> None:
    from .catalog import parse_name
    from .yangbaxter import (
        DEFAULT_SAMPLES,
        UnsupportedCaseError,
        build_rmatrix,
        verify_classical_ybe,
        verify_form_equivalence,
        verify_unitarity,
        verify_ybe,
    )

    an = parse_name(name)
    if an.family == "e8":
        rec.add(f"{name} R-matrix", "SKIP",
                observed="extended-adjoint solution out of scope")
        return
    try:
        fam = build_rmatrix(name, "spectral")
    except UnsupportedCaseError as exc:
        rec.add(f"{name} R-matrix", "SKIP", observed=str(exc))
        return
    pairs = DEFAULT_SAMPLES if config.samples is None else \
        list(zip(config.samples[::2], config.samples[1::2]))
    for u, v in pairs:
        rec.run(f"{name} YBE({u},{v})",
                lambda u=u, v=v: verify_ybe(fam, u, v, seed=config.seed))
    rec.run(f"{name} unitarity", lambda: verify_unitarity(fam, Fraction(2, 5)))
    rec.run(f"{name} form equivalence",
            lambda: verify_form_equivalence(
                name, samples=[u for u, _ in pairs[:2]]))
    if an.family in ("sl", "so", "sp") and an.n <= 6 or \
            an.family in ("g2",):
        rec.run(f"{name} classical YBE",
                lambda: verify_classical_ybe(name, seed=config.seed))


def _suite_vogel(rec: _Recorder, name: str, config: SuiteConfig) -> None:
    from .catalog import defining, parse_name
    from .vogel import (
        exceptional_line_check,
        universal_dim_g,
        vogel_point,
    )

    pt = vogel_point(name)
    alg, _ = defining(name)
    rec.run(f"{name} universal dim", lambda: universal_dim_g(pt) == alg.dim,
            expected=alg.dim)
    on_line, _ = exceptional_line_check(pt)
    an = parse_name(name)
    want = an.is_exceptional or str(an) in ("sl(3)", "so(8)")
    rec.add(f"{name} exceptional line", "PASS" if on_line == want else "FAIL",
            observed=on_line, expected=want)


_SUITE_FN = {"construct": _suite_construct, "casimir": _suite_casimir,
             "identities": _suite_identities, "projectors": _suite_projectors,
             "ybe": _suite_ybe, "vogel": _suite_vogel}


def run_suite(config: SuiteConfig) -> Report:
    """Execute the requested suites in dependency order."""
    report = Report(config.to_dict())
    ordered = [s for s in SUITES if s in config.suites]
    for name in config.algebras:
        for suite in ordered:
            rec = _Recorder(report, suite, config.timings)
            try:
                _SUITE_FN[suite](rec, name, config)
            except Exception as exc:
                rec.add(f"{name} {suite}", "FAIL",
                        observed=f"suite error: {exc}")
    if "vogel" in config.suites:
        rec = _Recorder(report, "vogel", config.timings)
        _vogel_global(rec)
    return report


def _vogel_global(rec: _Recorder) -> None:
    from .vogel import diophantine_scan, integrality_filter

    want_seq = [3, 8, 14, 28, 47, 52, 78, 96, 119, 133, 190, 248, 287, 336,
                484, 603, 782, 1081, 1680, 3479]
    scan = diophantine_scan(3500)
    rec.add("diophantine scan(3500)", "PASS" if scan == want_seq else "FAIL",
            observed=scan, expected=want_seq)
    filt = integrality_filter(scan)
    want_excl = [47, 96, 119, 287, 336, 603, 782, 1680, 3479]
    rec.add("integrality filter",
            "PASS" if filt["excluded"] == want_excl else "FAIL",
            observed=filt["excluded"], expected=want_excl)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _algebra_args(args) -> List[str]:
    names: List[str] = []
    for chunk in args.algebra or []:
        names.extend(x.strip() for x in chunk.split(",") if x.strip())
    if args.rank is not None:
        if len(names) != 1:
            raise SystemExit("--rank needs exactly one --algebra family")
        fam = names[0]
        names = [f"{fam}({args.rank})" if fam in ("sl", "so", "sp")
                 else f"{fam}{args.rank}"]
    if not names:
        names = list(DEFAULT_ALGEBRAS)
    if names == ["acceptance"]:
        names = list(ACCEPTANCE_ALGEBRAS)
    return names


def _common_flags(p: argparse.ArgumentParser, method: bool = False) -> None:
    p.add_argument("--algebra", action="append",
                   help="algebra name(s), e.g. sl(4); comma separated or repeated")
    p.add_argument("--rank", type=int, default=None)
    if method:
        p.add_argument("--method", default="auto", choices=METHODS,
                       help="identity verification method")
    p.add_argument("--format", default="json",
                   choices=["json", "csv", "markdown"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitcasimir",
        description="exact split-Casimir verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd, suites in [("construct", ["construct"]),
                        ("verify", ["construct", "casimir", "identities"]),
                        ("projectors", ["construct", "projectors"]),
                        ("vogel", ["vogel"])]:
        p = sub.add_parser(cmd)
        _common_flags(p, method="identities" in suites)
        p.set_defaults(suites=suites)
    p = sub.add_parser("ybe")
    _common_flags(p)
    p.add_argument("--case", default=None, help="alias for --algebra")
    p.add_argument("--u", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--samples", default=None,
                   help="comma-separated u,v pairs, e.g. 1/2,1/3,2/5,3/7")
    p.set_defaults(suites=["ybe"])
    p = sub.add_parser("report")
    _common_flags(p, method=True)
    p.add_argument("--suite", action="append", choices=list(SUITES),
                   help="suites to run (default: all)")
    p = sub.add_parser("vogel-table")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "vogel-table":
        text = vogel_table_markdown()
        _write_out(text, args.out)
        return 0

    if args.command == "report":
        suites = args.suite or list(SUITES)
    else:
        suites = args.suites
    if getattr(args, "case", None):
        args.algebra = (args.algebra or []) + [args.case]

    samples = None
    if args.command == "ybe":
        if (args.u is None) != (args.v is None):
            parser.error("--u and --v must be given together")
        if args.u is not None and args.samples:
            parser.error("give either --u/--v or --samples, not both")
        if args.u is not None:
            samples = [Fraction(args.u), Fraction(args.v)]
        elif args.samples:
            samples = [Fraction(x) for x in args.samples.split(",")]
            if len(samples) % 2:
                parser.error("--samples needs an even number of values (u,v pairs)")

    config = SuiteConfig(
        algebras=_algebra_args(args), suites=suites,
        method=getattr(args, "method", "auto"),
        fmt=args.format, seed=args.seed,
        timings=args.timings, samples=samples)
    report = run_suite(config)
    _write_out(emit(report, config.fmt), args.out)
    return 0 if report.all_passed else 1


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
