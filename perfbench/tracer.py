"""Outside-in layer tracing for splitcasimir.

A :class:`Tracer` replaces public functions and methods of the package's
modules with timing wrappers for the duration of a ``with`` block, and puts
every original back on exit.  The program itself is not edited: a module
function is replaced wherever a ``splitcasimir.*`` module holds it, so the
``from .x import f`` aliases are reached as well; a method is replaced on
its class, which every alias shares.

Each wrapped call is a span.  A layer's self time is the duration of its
spans minus the part covered by nested spans (of any layer), so the self
times of all layers plus the unwrapped remainder add up to the wall time.
Calls and counts are taken only at the outermost span of a layer, so a
layer that calls itself (``Vec.__sub__`` -> ``Vec.__add__``) is one call.
Verification layers also record every distinct result they return, nested ones
included, so that the trials of an inner check show as well.
Spans are aggregated in memory, not stored one by one: the identity suites
make hundreds of thousands of kernel calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class Layer(NamedTuple):
    name: str
    targets: Sequence[str]  # "module:function" or "module:Class.method"
    count: Optional[Callable] = None   # (args, kwargs, result) -> {metric: n}
    record: Optional[Callable] = None  # (args, kwargs, result) -> dict with
    #                                    "trials"; summed into <name>.trials


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _is_object(array) -> bool:
    return array.dtype == object


def _promoted(a, b, out) -> int:
    """1 when int64 operands produced an object-dtype (bigint) result."""
    return int(not _is_object(a) and not _is_object(b) and _is_object(out))


def _count_matvec(args, kwargs, out):
    op, v = args[0], _arg(args, kwargs, 1, "v")
    return {"kernel.matvec.nnz": op.nnz,
            "kernel.promotions": _promoted(op.data, v.data, out.data)}


def _count_spmm(args, kwargs, out):
    import numpy as np
    a, b = args
    # scalar products of the expansion: sum_k |col k of a| * |row k of b|
    products = int(np.dot(np.bincount(a.col, minlength=a.cols),
                          np.diff(b.indptr)))
    return {"kernel.spmm.products": products, "kernel.spmm.nnz_out": out.nnz,
            "kernel.promotions": _promoted(a.data, b.data, out.data)}


def _count_apply_dense(args, kwargs, out):
    op, b = args[0], _arg(args, kwargs, 1, "b")
    width = b.shape[1] if b.ndim == 2 else 1
    return {"kernel.apply_dense.madds": op.nnz * width,
            "kernel.promotions": _promoted(op.data, b, out)}


def _count_op_build(args, kwargs, out):
    return {"kernel.op_build.nnz_in": len(_arg(args, kwargs, 5, "data"))}


def _count_nullspace(args, kwargs, out):
    return {"algebras.nullspace.rows": len(_arg(args, kwargs, 0, "rows"))}


def _count_kron_sum(args, kwargs, out):
    return {"casimir.kron_sum.nnz_out": out.nnz}


def _record_report(args, kwargs, out):
    return {"target": out.target, "status": out.status,
            "method": out.method, "trials": out.trials}


def _record_family_verify(args, kwargs, out):
    from splitcasimir.projectors import ProjectorFamily
    bound = inspect.signature(ProjectorFamily.verify).bind(*args, **kwargs)
    bound.apply_defaults()
    family = args[0]
    return {"target": family.context, "status": "PASS" if out["all_pass"]
            else "FAIL", "members": len(family.members),
            "dim": family.completeness_target.rows,
            "trials": bound.arguments["trials"]}


LAYERS: List[Layer] = [
    # construction
    Layer("chevalley.build", ["chevalley:build_chevalley_adjoint"]),
    Layer("classical.build", ["classical:build_sl", "classical:build_so_sp"]),
    Layer("exceptional.build", ["exceptional:build_g2_defining",
                                "exceptional:build_f4_defining",
                                "exceptional:build_e6_defining",
                                "exceptional:build_e7_defining"]),
    Layer("exceptional.invariant_form",
          ["exceptional:invariant_antisymmetric_form"]),
    Layer("algebras.nullspace", ["algebras:sparse_nullspace"],
          count=_count_nullspace),
    Layer("algebras.checks", ["algebras:check_antisymmetry",
                              "algebras:check_jacobi",
                              "algebras:check_killing",
                              "algebras:check_adjoint_casimir_is_identity",
                              "algebras:check_representation"]),
    # assembly
    Layer("casimir.kron_sum", ["casimir:weighted_kron_sum"],
          count=_count_kron_sum),
    Layer("casimir.tensor4", ["casimir:sl_adjoint_tensor",
                              "casimir:sosp_adjoint_tensor"]),
    Layer("casimir.invariant_set", ["casimir:invariant_set"]),
    Layer("casimir.parts", ["casimir:SplitCasimir.parts",
                            "casimir:split_parts"]),
    Layer("casimir.trace_suite", ["casimir:trace_suite"]),
    # kernel, named by the SparseOp / Vec API so that the names survive a
    # change of the backend underneath
    Layer("kernel.matvec", ["kernel:SparseOp.matvec"], count=_count_matvec),
    Layer("kernel.spmm", ["kernel:SparseOp.__matmul__"], count=_count_spmm),
    Layer("kernel.apply_dense", ["kernel:SparseOp.apply_dense"],
          count=_count_apply_dense),
    Layer("kernel.op_build", ["kernel:SparseOp.__init__"],
          count=_count_op_build),
    Layer("kernel.vec_build", ["kernel:Vec.__init__"]),
    Layer("kernel.vec_arith", ["kernel:Vec.__add__", "kernel:Vec.__sub__",
                               "kernel:Vec.scaled"]),
    Layer("kernel.trace_word", ["kernel:trace_word"]),
    Layer("kernel.two_site", ["kernel:apply_two_site"]),
    # verification
    Layer("identities.verify", ["identities:verify_identity",
                                "identities:verify_defining_identity",
                                "identities:verify_adjoint_identity",
                                "identities:verify_antisymmetric_identity",
                                "identities:verify_universal_sym_identity",
                                "identities:verify_classical_generic_identity"],
          record=_record_report),
    Layer("projectors.build", ["projectors:lagrange_family",
                               "projectors:refine_family",
                               "projectors:defining_family",
                               "projectors:exceptional_adjoint_family",
                               "projectors:sl_adjoint_family",
                               "projectors:sosp_adjoint_family",
                               "projectors:so8_adjoint_family",
                               "projectors:x1x2_split",
                               "projectors:universal_symmetric_family"]),
    Layer("projectors.verify", ["projectors:ProjectorFamily.verify"],
          record=_record_family_verify),
    Layer("yangbaxter.build_rmatrix", ["yangbaxter:build_rmatrix"]),
    Layer("yangbaxter.evaluate", ["yangbaxter:RMatrixFamily.evaluate"]),
    Layer("yangbaxter.verify", ["yangbaxter:verify_ybe",
                                "yangbaxter:verify_unitarity",
                                "yangbaxter:verify_form_equivalence",
                                "yangbaxter:verify_classical_ybe"],
          record=_record_report),
    # report
    Layer("cli.run_suite", ["cli:run_suite"]),
    Layer("report.emit", ["report:emit"]),
]


# Layers summed per module group into "<group>.self_s".  Every workload
# enters every group, whereas most single layers serve only some workloads.
GROUPS = {"chevalley": "construction", "classical": "construction",
          "exceptional": "construction", "algebras": "construction",
          "casimir": "assembly", "kernel": "kernel",
          "identities": "verification", "projectors": "verification",
          "yangbaxter": "verification", "cli": "report", "report": "report"}


def package_modules(package: str) -> List:
    """The package and every submodule, imported so that aliases exist."""
    root = importlib.import_module(package)
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        mods.append(importlib.import_module(info.name))
    return mods


class Tracer:
    """Wraps the targets of ``layers`` inside ``package`` while active."""

    def __init__(self, layers: Sequence[Layer] = LAYERS,
                 package: str = "splitcasimir",
                 clock: Callable[[], float] = time.perf_counter):
        self.layers = list(layers)
        self.package = package
        self.clock = clock
        self.counts: Dict[str, float] = defaultdict(int)
        self.records: List[dict] = []
        self._recorded: List[object] = []  # results already in records
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self) -> None:
        mods = package_modules(self.package)
        by_name = {m.__name__: m for m in mods}
        for layer in self.layers:
            for target in layer.targets:
                modname, _, qual = target.partition(":")
                owner = by_name[f"{self.package}.{modname}"]
                *cls_path, attr = qual.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapped = self._wrap(layer, original)
                if cls_path:
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stack, depth, counts, clock = (self._stack, self._depth, self.counts,
                                       self.clock)
        name = layer.name
        self_key, calls_key = f"{name}.self_s", f"{name}.calls"
        counts.setdefault(self_key, 0.0)
        counts.setdefault(calls_key, 0)
        if layer.record is not None:
            counts.setdefault(f"{name}.trials", 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # seconds covered by nested spans
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                depth[name] -= 1
                stack.pop()
                counts[self_key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            t1 = clock()
            if depth[name] == 0:
                counts[calls_key] += 1
                if layer.count is not None:
                    for key, n in layer.count(args, kwargs, result).items():
                        counts[key] += n
            if layer.record is not None and \
                    not any(result is r for r in self._recorded):
                self._recorded.append(result)
                rec = layer.record(args, kwargs, result)
                counts[f"{name}.trials"] += rec["trials"]
                self.records.append({"layer": name,
                                     "function": fn.__qualname__, **rec})
            if stack:  # bookkeeping is nobody's self time
                stack[-1][0] += clock() - t1
            return result

        return traced

    def metrics(self) -> Dict[str, float]:
        """Per-layer counts and self times, plus self time per group."""
        out = dict(self.counts)
        for group in sorted(set(GROUPS.values())):
            out[f"{group}.self_s"] = 0.0
        for layer in self.layers:
            group = GROUPS.get(layer.name.split(".")[0])
            if group is not None:
                out[f"{group}.self_s"] += out.get(f"{layer.name}.self_s", 0.0)
        return out


def catalog_cache_counts() -> Dict[str, int]:
    """Hits and misses of the catalog's construction caches."""
    catalog = sys.modules.get("splitcasimir.catalog")
    hits = misses = 0
    if catalog is not None:
        for fn in (catalog.defining, catalog.chevalley,
                   catalog.adjoint_context):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return {"catalog.hits": hits, "catalog.misses": misses}
