"""Hot numeric kernels for exact sparse integer linear algebra.

Every operator in this package is stored as integer coordinate triplets
times a single rational scale, so the kernels below work on the integer
cores only.  Each is one vectorized numpy function that serves ``int64``
data and arbitrary-precision (Python int) data in object arrays alike.
``kernel`` picks the dtype by its overflow guards and passes all operands
of a call in the same one.
"""

import numpy as np

# There is no compiled kernel path.  The constant stays because the
# benchmark child (perfbench/child.py) imports this module and records it.
NUMBA_ENABLED = False


def csr_matvec(row, col, data, v, n_rows):
    """out = A @ v for A given by row-sorted coo triplets."""
    out = np.zeros(n_rows, dtype=np.result_type(data.dtype, v.dtype))
    np.add.at(out, row, data * v[col])
    return out


def csr_matmat_dense(row, col, data, b, n_rows):
    """out = A @ B with B a dense 2-d array."""
    out = np.zeros((n_rows, b.shape[1]), dtype=np.result_type(data.dtype, b.dtype))
    np.add.at(out, row, data[:, None] * b[col])
    return out


def spmm(a_row, a_col, a_data, b_indptr, b_col, b_data):
    """Expand all A_ik * B_kj products of A @ B as an unreduced coo triple.

    Output rows come out in increasing order; duplicate (row, col) pairs are
    not summed, so callers must merge them (SparseOp construction does).
    """
    counts = b_indptr[a_col + 1] - b_indptr[a_col]
    total = int(counts.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=a_data.dtype))
    reps = np.repeat(np.arange(len(a_row)), counts)
    offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    b_pos = b_indptr[a_col][reps] + offs
    return a_row[reps], b_col[b_pos], a_data[reps] * b_data[b_pos]
