"""On-disk cache of constructed algebras and representations.

One file per (algebra, kind); the key embeds a format version and a content
hash of the construction code, so stale caches rebuild instead of silently
serving wrong operators.  Matrices use the binary rational serialization
from `serialize`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Optional, Tuple

from .algebras import LieAlgebra, Representation, symmetric_block_inverse
from .kernel import SparseOp
from .rootdata import root_system
from .serialize import SerializationError, read_sparse, write_sparse

CACHE_FORMAT_VERSION = 1
_MAGIC = b"SCCACHE1"


class CacheError(Exception):
    pass


def _code_hash() -> str:
    import splitcasimir
    base = Path(splitcasimir.__file__).parent
    h = hashlib.sha256()
    for name in ("rootdata.py", "chevalley.py", "classical.py",
                 "exceptional.py", "algebras.py", "kernel.py", "_kernels.py"):
        h.update((base / name).read_bytes())
    return h.hexdigest()[:16]


def cache_path(cache_dir: Path, name: str, kind: str) -> Path:
    safe = name.replace("(", "").replace(")", "")
    return Path(cache_dir) / \
        f"{safe}-{kind}-v{CACHE_FORMAT_VERSION}-{_code_hash()}.scz"


def write_bundle(path: Path, alg: LieAlgebra, rep: Representation) -> None:
    header = {
        "format_version": CACHE_FORMAT_VERSION,
        "code_hash": _code_hash(),
        "name": alg.name,
        "series": alg.series,
        "rank": alg.rank,
        "dim": alg.dim,
        "convention": alg.convention,
        "labels": alg.labels,
        "dim_module": rep.dim_module,
        "kind": rep.kind,
        "has_metric": rep.module_metric is not None,
    }
    raw = json.dumps(header, sort_keys=True).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        write_sparse(alg.struct, f)
        write_sparse(alg.killing, f)
        for gen in rep.generators:
            write_sparse(gen, f)
        if rep.module_metric is not None:
            write_sparse(rep.module_metric, f)
    tmp.replace(path)


def read_bundle(path: Path) -> Tuple[LieAlgebra, Representation]:
    try:
        with open(path, "rb") as f:
            if f.read(8) != _MAGIC:
                raise CacheError("bad cache magic")
            (hlen,) = struct.unpack("<I", f.read(4))
            header = json.loads(f.read(hlen).decode())
            if header["format_version"] != CACHE_FORMAT_VERSION \
                    or header["code_hash"] != _code_hash():
                raise CacheError("cache version/code mismatch")
            struct_op = read_sparse(f)
            killing = read_sparse(f)
            gens = [read_sparse(f) for _ in range(header["dim"])]
            metric = read_sparse(f) if header["has_metric"] else None
    except (OSError, struct.error, SerializationError, KeyError,
            json.JSONDecodeError) as exc:
        raise CacheError(f"unreadable cache {path}: {exc}") from exc
    rd = None
    try:
        rd = root_system(header["series"], header["rank"])
    except Exception:
        pass
    alg = LieAlgebra(header["name"], header["series"], header["rank"],
                     header["dim"], struct_op, killing,
                     symmetric_block_inverse(killing), header["convention"],
                     rd, header["labels"])
    rep = Representation(alg, header["dim_module"], gens, header["kind"],
                         module_metric=metric)
    return alg, rep


def load_or_build(name: str, cache_dir: Optional[Path]):
    """Defining representation through the cache, with rebuild-on-corruption."""
    from .catalog import defining
    warning = None
    if cache_dir is None:
        alg_rep = defining(name)
        return alg_rep, warning
    path = cache_path(Path(cache_dir), name, "defining")
    if path.exists():
        try:
            return read_bundle(path), warning
        except CacheError as exc:
            warning = f"cache rebuild: {exc}"
    alg, rep = defining(name)
    write_bundle(path, alg, rep)
    return (alg, rep), warning
