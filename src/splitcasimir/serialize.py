"""Binary-stable serialization of sparse rational matrices.

Layout (all integers little-endian): magic ``SCSO``, format version (u16),
rows (u64), cols (u64), nnz (u64); then per triplet row (u64), col (u64),
numerator and denominator each as a signed big-integer byte string prefixed
by its i32 length.  The tests pin construction outputs by the sha256 of
these bytes.
"""

from __future__ import annotations

import io
import struct
from fractions import Fraction
from typing import BinaryIO

from .kernel import KernelError, SparseOp

MAGIC = b"SCSO"
FORMAT_VERSION = 1


class SerializationError(KernelError):
    pass


def _write_bigint(stream: BinaryIO, value: int) -> None:
    nbytes = (value.bit_length() + 8) // 8 or 1
    raw = value.to_bytes(nbytes, "little", signed=True)
    stream.write(struct.pack("<i", len(raw)))
    stream.write(raw)


def _read_bigint(stream: BinaryIO) -> int:
    (length,) = struct.unpack("<i", stream.read(4))
    return int.from_bytes(stream.read(length), "little", signed=True)


def write_sparse(op: SparseOp, stream: BinaryIO) -> None:
    stream.write(MAGIC)
    stream.write(struct.pack("<HQQQ", FORMAT_VERSION, op.rows, op.cols, op.nnz))
    num, den = op.scale.numerator, op.scale.denominator
    for r, c, d in zip(op.row, op.col, op.data):
        value = Fraction(int(d) * num, den)
        stream.write(struct.pack("<QQ", int(r), int(c)))
        _write_bigint(stream, value.numerator)
        _write_bigint(stream, value.denominator)


def read_sparse(stream: BinaryIO) -> SparseOp:
    magic = stream.read(4)
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    version, rows, cols, nnz = struct.unpack("<HQQQ", stream.read(26))
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    triplets = []
    for _ in range(nnz):
        r, c = struct.unpack("<QQ", stream.read(16))
        num = _read_bigint(stream)
        den = _read_bigint(stream)
        triplets.append((r, c, Fraction(num, den)))
    return SparseOp.from_triplets(rows, cols, triplets)


def dumps(op: SparseOp) -> bytes:
    buf = io.BytesIO()
    write_sparse(op, buf)
    return buf.getvalue()


def loads(raw: bytes) -> SparseOp:
    return read_sparse(io.BytesIO(raw))
