"""Hot numeric kernels for exact sparse integer linear algebra.

Every operator in this package is stored as integer coordinate triplets
times a single rational scale, so the kernels below work on the integer
cores only.  Each is one vectorized numpy function that serves ``int64``
data and arbitrary-precision (Python int) data in object arrays alike.
``kernel`` picks the dtype by its overflow guards and passes all operands
of a call in the same one.

The triplets are sorted by (row, col), so A @ v and A @ B (B dense) are one
``np.add.reduceat`` segment sum per non-empty row, over the row starts the
operator caches (``SparseOp.segments``).  Only spmm's dense accumulator
scatters with ``np.add.at``: its keys are not sorted within a row.

spmm expands a block of products by repeating each A entry's row key,
value and B offset over the products it makes and completing them in place,
so no per-product index array is gathered through; its dense accumulator
finds the nonzero slots through a bool cast, which reads int64 and object
data alike.
"""

import numpy as np

# There is no compiled kernel path.  The constant stays because the
# benchmark child (perfbench/child.py) imports this module and records it.
NUMBA_ENABLED = False

# spmm expands about this many A_ik * B_kj products at a time (one row
# with more is expanded alone), which bounds its transient memory
BLOCK_PRODUCTS = 1 << 16
# spmm sums a block into a dense accumulator when the block's row span times
# the width of B is at most this many times its product count
DENSE_AREA_FACTOR = 4


def csr_matvec(rows, starts, col, data, v, n_rows):
    """out = A @ v for A given by (row, col)-sorted coo triplets: non-empty
    row ``rows[i]`` is one segment sum of the products from entry
    ``starts[i]`` on."""
    out = np.zeros(n_rows, dtype=np.result_type(data.dtype, v.dtype))
    out[rows] = np.add.reduceat(data * v[col], starts)
    return out


def csr_matmat_dense(rows, starts, col, data, b, n_rows):
    """out = A @ B with B a dense 2-d array, by the same segment sums."""
    out = np.zeros((n_rows, b.shape[1]), dtype=np.result_type(data.dtype, b.dtype))
    # the gather is already a fresh nnz x k array: scaling it in place saves
    # a second one, which costs more than the multiply
    prod = b[col].astype(out.dtype, copy=False)
    prod *= data[:, None]
    out[rows] = np.add.reduceat(prod, starts, axis=0)
    return out


def spmm(a_row, a_col, a_data, b_indptr, b_col, b_data):
    """A @ B as merged coo triplets: sorted by (row, col), duplicate positions
    summed and zeros dropped.

    A is row-sorted coo, B is csr.  A's rows are cut into blocks whose
    A_ik * B_kj expansion stays near ``BLOCK_PRODUCTS`` (a single heavier
    row is a block of its own), and each block is expanded and merged on its
    own, so the transient is bounded by the block rather than by the whole
    product (row-wise SpGEMM with a per-row accumulator, Gustavson 1978).
    """
    counts = b_indptr[a_col + 1] - b_indptr[a_col]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=a_data.dtype))
    width = int(b_col.max()) + 1
    # product p of A entry e reads B entry shift[e] + p
    shift = b_indptr[a_col] - (ends - counts)
    if total <= BLOCK_PRODUCTS:
        # one block, and most calls: skip cutting rows
        return _merged_block(a_row, a_data, counts, shift, b_col, b_data,
                             width, 0, len(a_row), 0, total)
    # A entries that open a row, and the product offset at each of them
    firsts = np.append(np.flatnonzero(np.diff(a_row, prepend=-1)), len(a_row))
    offsets = np.append(0, ends)[firsts]
    blocks = []
    i = 0
    while i < len(firsts) - 1:
        j = int(np.searchsorted(offsets, offsets[i] + BLOCK_PRODUCTS, "right")) - 1
        j = max(j, i + 1)
        if offsets[i] < offsets[j]:
            blocks.append(_merged_block(a_row, a_data, counts, shift, b_col,
                                        b_data, width, firsts[i], firsts[j],
                                        offsets[i], offsets[j]))
        i = j
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _merged_block(a_row, a_data, counts, shift, b_col, b_data, width,
                  lo, hi, p0, p1):
    """Expand and merge the products p0..p1 of A entries lo..hi (whole rows).

    When the block's row span times ``width`` is at most
    ``DENSE_AREA_FACTOR`` times its product count, the products are summed
    into a dense accumulator; otherwise a stable sort and a segment sum
    merge them."""
    cnt = counts[lo:hi]
    b_pos = np.repeat(shift[lo:hi], cnt)
    b_pos += np.arange(p0, p1)
    key = np.repeat(a_row[lo:hi] * width, cnt)
    key += b_col[b_pos]
    prod = np.repeat(a_data[lo:hi], cnt)
    prod *= b_data[b_pos]
    first_key = int(a_row[lo]) * width
    area = (int(a_row[hi - 1]) + 1) * width - first_key
    if area <= DENSE_AREA_FACTOR * (p1 - p0):
        acc = np.zeros(area, dtype=prod.dtype)
        key -= first_key
        np.add.at(acc, key, prod)
        nz = np.flatnonzero(acc.astype(bool))
        key, prod = nz + first_key, acc[nz]
    else:
        order = np.argsort(key, kind="stable")
        key, prod = key[order], prod[order]
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            idx = np.flatnonzero(first)
            key, prod = key[idx], np.add.reduceat(prod, idx)
        keep = prod != 0
        if not keep.all():
            key, prod = key[keep], prod[keep]
    row, col = np.divmod(key, width)
    return row, col, prod
