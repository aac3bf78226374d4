"""The sparse linear-operator kernel over Q.

Every scalar is exact: a :class:`Vec` or :class:`SparseOp` holds an integer
array times one common rational ``scale`` (``fractions.Fraction``), so
arithmetic is closed and lossless and every check is a zero-residual
statement.  A :class:`SparseOp` stores sorted, deduplicated coordinate
triplets.  All hot arithmetic runs on ``int64`` numpy arrays through the
one set of numpy kernels in ``_kernels``.  Every operation that multiplies
or sums int64 data first bounds its result by ``_INT64_SAFE``; when the
bound trips, or when an operand already holds arbitrary-precision Python
ints in an object array, ``_lift`` turns every operand into object data and
the same kernels run on it.  Results never depend on which dtype ran.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels

# products and row-sums are kept strictly below this before falling back to
# arbitrary precision
_INT64_SAFE = 2 ** 62

ScalarLike = Union[int, Fraction]


class KernelError(Exception):
    pass


class DimensionMismatchError(KernelError):
    pass


class DimensionLimitError(KernelError):
    pass


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd on Q: largest rational dividing both with integer quotients."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(math.gcd(a.numerator, b.numerator),
                    math.lcm(a.denominator, b.denominator))


def _lift(trips: bool, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The operands as object (Python int) data when the caller's overflow
    bound ``trips`` or any operand already is object data; else unchanged.

    A bound only matters for all-int64 operands, so a caller whose bound is
    costly on object data may skip it then."""
    if trips or any(a.dtype == object for a in arrays):
        return tuple(a.astype(object, copy=False) for a in arrays)
    return arrays


def _max_abs(data: np.ndarray) -> int:
    if len(data) == 0:
        return 0
    if data.dtype == object:
        return max(abs(int(x)) for x in data)
    return int(np.abs(data).max())


def _gcd_reduce(data: np.ndarray) -> int:
    """gcd of the entries; 0 iff every entry is zero (or there are none)."""
    if data.dtype == object:
        g = 0
        for x in data:
            g = math.gcd(g, int(x))
            if g == 1:
                return 1
        return g
    if not len(data):
        return 0
    # the gcd of all entries divides that of the first 64, so a prefix gcd
    # of 1 settles it; most canonical data reaches 1 there
    head = int(np.gcd.reduce(np.abs(data[:64])))
    if head == 1 or len(data) <= 64:
        return head
    return int(np.gcd.reduce(np.abs(data)))


def _shrink_if_safe(data: np.ndarray) -> np.ndarray:
    """Drop an object array back to int64 once values fit again."""
    if data.dtype == object and (len(data) == 0 or _max_abs(data) < _INT64_SAFE):
        return data.astype(np.int64)
    return data


class Vec:
    """Dense vector over Q: int data * scale."""

    __slots__ = ("data", "scale")

    def __init__(self, data: np.ndarray, scale=Fraction(1),
                 _canonical: bool = False):
        self.data = data
        self.scale = scale
        if not _canonical:
            self._canonicalize()

    def _canonicalize(self) -> None:
        # divide out the gcd before shrinking, so reduced object data that
        # fits int64 becomes int64 again
        data = self.data
        g = _gcd_reduce(data)
        if g > 1:
            data = data // g
        if self.scale < 0:
            data, g = -data, -g
        self.scale = self.scale * g if g else Fraction(1)
        self.data = _shrink_if_safe(data)

    @staticmethod
    def from_fractions(values: Sequence[ScalarLike]) -> "Vec":
        fracs = [Fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * den) for f in fracs]
        arr = np.array(ints, dtype=object)
        return Vec(_shrink_if_safe(arr), Fraction(1, den))

    @staticmethod
    def zeros(n: int) -> "Vec":
        return Vec(np.zeros(n, dtype=np.int64))

    @staticmethod
    def random_exact(n: int, rng: np.random.Generator) -> "Vec":
        # numerators uniform in [-9, 9], denominator 1: keeps exact growth
        # bounded while still detecting any fixed nonzero polynomial
        return Vec(rng.integers(-9, 10, size=n).astype(np.int64))

    def __len__(self) -> int:
        return len(self.data)

    def fractions(self) -> list:
        s = self.scale
        return [int(x) * s for x in self.data]

    def max_abs_value(self) -> Fraction:
        return _max_abs(self.data) * abs(self.scale)

    def is_zero(self) -> bool:
        return not self.data.any()

    def scaled(self, c: ScalarLike) -> "Vec":
        c = Fraction(c)
        # a canonical zero has scale 1, so only then can the data be all zero
        if c == 0 or (self.scale == 1 and not self.data.any()):
            return Vec.zeros(len(self.data))
        if c < 0:
            return Vec(-self.data, self.scale * -c, _canonical=True)
        return Vec(self.data, self.scale * c, _canonical=True)

    def _plus(self, other: "Vec", sign: int) -> "Vec":
        if len(self) != len(other):
            raise DimensionMismatchError("vector length mismatch")
        s = fraction_gcd(self.scale, other.scale)
        ma, mb = int(self.scale / s), int(other.scale / s)
        a, b = self.data, other.data
        # the max(1, .) terms keep a multiplier past int64 from reaching
        # numpy even when its operand is all zero
        a, b = _lift(a.dtype != object and b.dtype != object
                     and (max(1, _max_abs(a)) * abs(ma)
                          + max(1, _max_abs(b)) * abs(mb) >= _INT64_SAFE),
                     a, b)
        return Vec(a * ma + b * (sign * mb), s)

    def __add__(self, other: "Vec") -> "Vec":
        return self._plus(other, 1)

    def __sub__(self, other: "Vec") -> "Vec":
        return self._plus(other, -1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self.scale == other.scale and bool(np.array_equal(self.data, other.data))

    __hash__ = None


class SparseOp:
    """Sparse matrix over Q.

    Invariants: triplets sorted by (row, col), no stored zeros, integer data
    with gcd 1 and positive ``scale``.
    """

    __slots__ = ("rows", "cols", "row", "col", "data", "scale",
                 "_indptr", "_segments", "_max_abs", "_row_nnz_max")

    def __init__(self, rows: int, cols: int, row: np.ndarray, col: np.ndarray,
                 data: np.ndarray, scale=Fraction(1), _canonical: bool = False):
        self.rows = rows
        self.cols = cols
        self.row = row
        self.col = col
        self.data = data
        self.scale = scale
        self._indptr = None
        self._segments = None
        self._max_abs = None
        self._row_nnz_max = None
        if not _canonical:
            self._normalize()

    # -- construction -----------------------------------------------------

    def _normalize(self) -> None:
        row = np.asarray(self.row, dtype=np.int64)
        col = np.asarray(self.col, dtype=np.int64)
        data = self.data
        key = row * self.cols + col
        if len(data) and not (np.all(np.diff(key) > 0)):
            # one stable sort on the (row, col) key; only key and data are
            # permuted, row and col are rebuilt from the reduced key
            order = np.argsort(key, kind="stable")
            key, data = key[order], data[order]
            boundary = np.empty(len(key), dtype=bool)
            boundary[0] = True
            np.not_equal(key[1:], key[:-1], out=boundary[1:])
            if not boundary.all():
                idx = np.flatnonzero(boundary)
                segment = np.diff(np.append(idx, len(key)))
                (data,) = _lift(data.dtype != object and int(segment.max())
                                * max(1, _max_abs(data)) >= _INT64_SAFE, data)
                data = np.add.reduceat(data, idx)
                key = key[idx]
            row, col = np.divmod(key, self.cols)
        data = np.asarray(data)
        if data.dtype != object:
            data = data.astype(np.int64, copy=False)
        keep = data != 0
        if not keep.all():
            row, col, data = row[keep], col[keep], data[keep]
        # divide out the gcd before shrinking, so reduced object data that
        # fits int64 becomes int64 again
        g = _gcd_reduce(data)
        if g > 1:
            data = data // g
            self.scale = self.scale * g
        if self.scale < 0:
            data = -data
            self.scale = -self.scale
        if len(data) == 0:
            self.scale = Fraction(1)
        self.row, self.col, self.data = row, col, _shrink_if_safe(data)

    @staticmethod
    def from_triplets(rows: int, cols: int,
                      triplets: Iterable[tuple]) -> "SparseOp":
        rr, cc, vv = [], [], []
        for r, c, v in triplets:
            rr.append(r)
            cc.append(c)
            vv.append(v)
        fracs = [Fraction(v) for v in vv]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        arr = np.empty(len(fracs), dtype=object)
        arr[:] = [int(f * den) for f in fracs]
        return SparseOp(rows, cols, np.array(rr, dtype=np.int64),
                        np.array(cc, dtype=np.int64), arr, Fraction(1, den))

    @staticmethod
    def from_dense(matrix) -> "SparseOp":
        matrix = np.asarray(matrix, dtype=object)
        rows, cols = matrix.shape
        trip = [(i, j, matrix[i, j]) for i in range(rows) for j in range(cols)
                if matrix[i, j] != 0]
        return SparseOp.from_triplets(rows, cols, trip)

    @staticmethod
    def identity(n: int, scale=Fraction(1)) -> "SparseOp":
        idx = np.arange(n, dtype=np.int64)
        return SparseOp(n, n, idx, idx, np.ones(n, dtype=np.int64),
                        Fraction(scale), _canonical=(scale == 1))

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseOp":
        e = np.zeros(0, dtype=np.int64)
        return SparseOp(rows, cols, e, e, e, _canonical=True)

    # -- cached structure --------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def indptr(self) -> np.ndarray:
        if self._indptr is None:
            self._indptr = np.searchsorted(self.row, np.arange(self.rows + 1))
        return self._indptr

    @property
    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, starts): the non-empty rows and the index of each one's
        first entry, the segments the matvec kernels sum over."""
        if self._segments is None:
            rows = np.flatnonzero(np.diff(self.indptr))
            self._segments = (rows, self.indptr[rows])
        return self._segments

    @property
    def max_abs(self) -> int:
        if self._max_abs is None:
            self._max_abs = _max_abs(self.data)
        return self._max_abs

    @property
    def row_nnz_max(self) -> int:
        if self._row_nnz_max is None:
            self._row_nnz_max = int(np.diff(self.indptr).max()) if self.rows else 0
        return self._row_nnz_max

    def entries(self) -> Iterator[tuple]:
        s = self.scale
        for r, c, d in zip(self.row, self.col, self.data):
            yield int(r), int(c), int(d) * s

    def to_dense_fractions(self) -> np.ndarray:
        out = np.full((self.rows, self.cols), Fraction(0), dtype=object)
        for r, c, v in self.entries():
            out[r, c] = v
        return out

    def transpose(self) -> "SparseOp":
        return SparseOp(self.cols, self.rows, self.col.copy(), self.row.copy(),
                        self.data.copy(), self.scale)

    def is_zero(self) -> bool:
        return self.nnz == 0

    def is_identity(self) -> bool:
        # canonical triplets are distinct, so n diagonal ones of an n x n
        # operator fill the diagonal
        return (self.rows == self.cols == self.nnz and self.scale == 1
                and bool(np.array_equal(self.row, self.col))
                and bool((self.data == 1).all()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOp):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.scale == other.scale
                and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col)
                and bool(np.array_equal(self.data, other.data)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseOp({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- arithmetic ---------------------------------------------------------

    def scaled(self, c: ScalarLike) -> "SparseOp":
        c = Fraction(c)
        if c == 0 or self.nnz == 0:
            return SparseOp.zero(self.rows, self.cols)
        if c < 0:
            return SparseOp(self.rows, self.cols, self.row, self.col,
                            -self.data, self.scale * -c, _canonical=True)
        return SparseOp(self.rows, self.cols, self.row, self.col, self.data,
                        self.scale * c, _canonical=True)

    def __neg__(self) -> "SparseOp":
        return self.scaled(-1)

    def __rmul__(self, c: ScalarLike) -> "SparseOp":
        return self.scaled(c)

    def __add__(self, other: "SparseOp") -> "SparseOp":
        return combine([(1, self), (1, other)])

    def __sub__(self, other: "SparseOp") -> "SparseOp":
        return combine([(1, self), (-1, other)])

    def matvec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatchError("matvec length mismatch")
        bound = self.row_nnz_max * max(self.max_abs, 1) * max(_max_abs(v.data), 1)
        data, vdata = _lift(bound >= _INT64_SAFE, self.data, v.data)
        out = _kernels.csr_matvec(*self.segments, self.col, data, vdata,
                                  self.rows)
        return Vec(out, self.scale * v.scale)

    def apply_dense(self, b: np.ndarray) -> np.ndarray:
        """Raw CSR x dense-matrix product on the integer cores."""
        trips = (self.data.dtype != object and b.dtype != object
                 and self.row_nnz_max * max(self.max_abs, 1)
                 * max(1, int(np.abs(b).max()) if b.size else 1) >= _INT64_SAFE)
        data, b = _lift(trips, self.data, b)
        return _kernels.csr_matmat_dense(*self.segments, self.col, data, b,
                                        self.rows)

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # an output entry, and each partial sum spmm forms of it, adds at most
        # row_nnz_max products
        bound = (min(self.row_nnz_max, other.nnz or 1)
                 * max(self.max_abs, 1) * max(other.max_abs, 1))
        da, db = _lift(bound >= _INT64_SAFE, self.data, other.data)
        # spmm returns merged triplets, so normalising skips its sort
        r, c, d = _kernels.spmm(self.row, self.col, da,
                                other.indptr, other.col, db)
        return SparseOp(self.rows, other.cols, r, c, d,
                        self.scale * other.scale)

    def trace(self) -> Fraction:
        mask = self.row == self.col
        total = sum(int(x) for x in self.data[mask])
        return total * self.scale


# ---------------------------------------------------------------------------
# kernel operations
# ---------------------------------------------------------------------------

def kron(a: SparseOp, b: SparseOp) -> SparseOp:
    """Kronecker product; entry ((i1,i2),(j1,j2)) = a(i1,j1) * b(i2,j2)."""
    if a.rows * b.rows >= 2 ** 62 or a.cols * b.cols >= 2 ** 62:
        raise DimensionLimitError("kron index arithmetic would overflow")
    row = (a.row[:, None] * b.rows + b.row[None, :]).ravel()
    col = (a.col[:, None] * b.cols + b.col[None, :]).ravel()
    da, db = _lift(max(a.max_abs, 1) * max(b.max_abs, 1) >= _INT64_SAFE,
                   a.data, b.data)
    data = (da[:, None] * db[None, :]).ravel()
    return SparseOp(a.rows * b.rows, a.cols * b.cols, row, col, data,
                    a.scale * b.scale)


def combine(terms: Iterable[Tuple[ScalarLike, SparseOp]]) -> SparseOp:
    """Materialize sum_k c_k * op_k from (c_k, op_k) pairs in one pass.

    The scaled triplets of all terms are concatenated over the common scale
    gcd and normalized once; int64 terms are lifted to object data when a
    term's largest entry times its multiplier reaches ``_INT64_SAFE``, and
    duplicate positions by the segment-sum guard of ``_normalize``.
    ``SparseOp.__add__`` and ``__sub__`` are two-term calls of it.
    """
    terms = [(Fraction(c), op) for c, op in terms]
    if not terms:
        raise ValueError("combine needs at least one term")
    rows, cols = terms[0][1].rows, terms[0][1].cols
    if any((op.rows, op.cols) != (rows, cols) for _, op in terms):
        raise DimensionMismatchError("combine terms differ in shape")
    live = [(c * op.scale, op) for c, op in terms if c != 0 and op.nnz]
    if not live:
        return SparseOp.zero(rows, cols)
    s = live[0][0]
    for sc, _ in live[1:]:
        s = fraction_gcd(s, sc)
    mults = [int(sc / s) for sc, _ in live]
    data = _lift(any(op.max_abs * abs(m) >= _INT64_SAFE
                     for m, (_, op) in zip(mults, live)),
                 *(op.data for _, op in live))
    data = [d * m if m != 1 else d for m, d in zip(mults, data)]
    return SparseOp(rows, cols, np.concatenate([op.row for _, op in live]),
                    np.concatenate([op.col for _, op in live]),
                    np.concatenate(data), s)


def vec_columns(ops: Sequence[SparseOp]) -> SparseOp:
    """The operators as the columns of one operator: entry (r, c) of
    ``ops[a]`` sits at row r * cols + c of column a, which is vec(ops[a])."""
    rows, cols = ops[0].rows, ops[0].cols
    if any((op.rows, op.cols) != (rows, cols) for op in ops):
        raise DimensionMismatchError("vec_columns operators differ in shape")
    # each column keeps its operator's sorted, reduced triplets
    return combine((1, SparseOp(rows * cols, len(ops), op.row * cols + op.col,
                                np.full(op.nnz, a, dtype=np.int64), op.data,
                                op.scale, _canonical=True))
                   for a, op in enumerate(ops))


def apply_poly_factors(op, roots: Sequence[ScalarLike], v: Vec,
                       unit: Optional[SparseOp] = None) -> Vec:
    """Apply prod_i (op - r_i * unit) to v, left to right, factor by factor.

    ``op`` needs only ``rows``, ``cols`` and ``matvec``: a SparseOp or a
    matvec-only view such as ``casimir.SplitPart``.  ``unit`` defaults to
    the identity; passing a subspace projector makes the factors act as
    shifts on that subspace (callers feed subspace vectors).
    """
    if op.rows != op.cols:
        raise DimensionMismatchError("apply_poly_factors needs a square op")
    if len(v) != op.cols:
        raise DimensionMismatchError("vector length mismatch")
    out = v
    for r in roots:
        shifted = out if unit is None else unit.matvec(out)
        out = op.matvec(out) - shifted.scaled(r)
    return out


def _pair_trace(a: SparseOp, b: SparseOp) -> Fraction:
    # Tr(A B) = sum_{ij} A_ij B_ji via a sorted key join
    if a.cols != b.rows or a.rows != b.cols:
        raise DimensionMismatchError("trace_word pair shape mismatch")
    if a.nnz == 0 or b.nnz == 0:
        return Fraction(0)
    key_a = a.row * a.cols + a.col
    key_b = b.col * a.cols + b.row
    order = np.argsort(key_b, kind="stable")
    key_b_sorted = key_b[order]
    pos = np.searchsorted(key_b_sorted, key_a)
    pos_c = np.minimum(pos, len(key_b_sorted) - 1)
    hit = key_b_sorted[pos_c] == key_a
    if not hit.any():
        return Fraction(0)
    da = a.data[hit]
    db = b.data[order[pos_c[hit]]]
    # the dot sums len(da) products of at most max|a| * max|b| each
    da, db = _lift(len(da) * max(a.max_abs, 1) * max(b.max_abs, 1)
                   >= _INT64_SAFE, da, db)
    return int(np.dot(da, db)) * a.scale * b.scale


def trace_word(ops: Sequence[SparseOp]) -> Fraction:
    """Exact trace of one operator or of the product of two, never
    materialized: a single factor reads the diagonal, a pair uses a sorted
    triplet join."""
    if len(ops) == 1:
        if ops[0].rows != ops[0].cols:
            raise DimensionMismatchError("trace_word operator is not square")
        return ops[0].trace()
    if len(ops) == 2:
        return _pair_trace(*ops)
    raise ValueError("trace_word takes one or two operators")


def apply_two_site(op: SparseOp, v: Vec, sites: Tuple[int, int],
                   n_sites: int, d: int) -> Vec:
    """Apply a two-site operator (d^2 x d^2) to a vector on V^(x n_sites)
    without materializing the embedded operator: reshape, act, reshape back.
    """
    a, b = sites
    if op.rows != d * d or op.cols != d * d:
        raise DimensionMismatchError("two-site operator has wrong shape")
    if len(v) != d ** n_sites:
        raise DimensionMismatchError("vector length mismatch")
    cube = v.data.reshape((d,) * n_sites)
    axes = [a, b] + [k for k in range(n_sites) if k not in (a, b)]
    moved = np.ascontiguousarray(np.transpose(cube, axes))
    flat = moved.reshape(d * d, d ** (n_sites - 2))
    out = op.apply_dense(flat)
    out_cube = out.reshape((d,) * n_sites)
    inverse = np.argsort(axes)
    restored = np.ascontiguousarray(np.transpose(out_cube, inverse)).ravel()
    return Vec(restored, op.scale * v.scale)


def product_of_shifts(op: SparseOp, roots: Sequence[ScalarLike],
                      unit: Optional[SparseOp] = None) -> SparseOp:
    """Materialize prod_i (op - r_i * unit) * unit (unit defaults to the
    identity).  The first root acts first, as in ``apply_poly_factors``, so
    column j is that function's image of ``unit`` e_j.

    ``unit`` must be idempotent and commute with ``op``; then every partial
    product is a polynomial in op times unit, so unit @ acc == acc and a
    shift needs no product."""
    if unit is None:
        unit = SparseOp.identity(op.rows)
    elif unit @ unit != unit or op @ unit != unit @ op:
        raise KernelError("unit must be idempotent and commute with op")
    acc = unit
    for r in roots:
        acc = combine([(1, op @ acc), (-r, acc)])
    return acc
