"""Hot numeric kernels for exact sparse integer linear algebra.

Every operator in this package is stored as integer coordinate triplets
times a single rational scale, so the inner loops below run on plain
``int64`` arrays.  When numba is importable and the environment variable
``SPLITCASIMIR_NUMBA`` is not set to ``0``, the loop kernels are
JIT-compiled; otherwise vectorized pure-numpy fallbacks are used.  Both
paths give bit-identical results.

Arbitrary-precision (Python int) data lives in object arrays and always
takes the numpy/pure-python path; numba never sees it.
"""

import os

import numpy as np


def _flag_enabled() -> bool:
    val = os.environ.get("SPLITCASIMIR_NUMBA", "1").strip().lower()
    return val not in ("0", "false", "no", "off")


NUMBA_ENABLED = False
if _flag_enabled():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:
        pass


# ---------------------------------------------------------------------------
# loop kernels (numba path)
# ---------------------------------------------------------------------------

def _csr_matvec_loop(indptr, col, data, v, out):
    n = indptr.shape[0] - 1
    for i in range(n):
        acc = out[i]
        for k in range(indptr[i], indptr[i + 1]):
            acc += data[k] * v[col[k]]
        out[i] = acc
    return out


def _csr_matmat_loop(indptr, col, data, b, out):
    n = indptr.shape[0] - 1
    m = b.shape[1]
    for i in range(n):
        for k in range(indptr[i], indptr[i + 1]):
            d = data[k]
            j = col[k]
            for c in range(m):
                out[i, c] += d * b[j, c]
    return out


def _spmm_count_loop(a_indptr, a_col, b_indptr, b_col, n_cols, mask, row_nnz):
    # symbolic pass of SMMP: nnz per output row
    n = a_indptr.shape[0] - 1
    for i in range(n):
        count = 0
        for ka in range(a_indptr[i], a_indptr[i + 1]):
            j = a_col[ka]
            for kb in range(b_indptr[j], b_indptr[j + 1]):
                c = b_col[kb]
                if mask[c] != i:
                    mask[c] = i
                    count += 1
        row_nnz[i] = count
    return row_nnz


def _spmm_fill_loop(a_indptr, a_col, a_data, b_indptr, b_col, b_data,
                    c_indptr, c_col, c_data, next_, sums):
    # numeric pass of SMMP with a sparse accumulator per row
    n = a_indptr.shape[0] - 1
    for i in range(n):
        head = -2
        length = 0
        for ka in range(a_indptr[i], a_indptr[i + 1]):
            j = a_col[ka]
            v = a_data[ka]
            for kb in range(b_indptr[j], b_indptr[j + 1]):
                c = b_col[kb]
                sums[c] += v * b_data[kb]
                if next_[c] == -1:
                    next_[c] = head
                    head = c
                    length += 1
        pos = c_indptr[i]
        for _ in range(length):
            c_col[pos] = head
            c_data[pos] = sums[head]
            pos += 1
            tmp = next_[head]
            next_[head] = -1
            sums[head] = 0
            head = tmp


if NUMBA_ENABLED:
    _csr_matvec_jit = njit(cache=True)(_csr_matvec_loop)
    _csr_matmat_jit = njit(cache=True)(_csr_matmat_loop)
    _spmm_count_jit = njit(cache=True)(_spmm_count_loop)
    _spmm_fill_jit = njit(cache=True)(_spmm_fill_loop)


# ---------------------------------------------------------------------------
# vectorized fallbacks (pure numpy; also serve object-dtype data)
# ---------------------------------------------------------------------------

def _csr_matvec_numpy(row, col, data, v, n_rows):
    out = np.zeros(n_rows, dtype=data.dtype)
    if len(data) == 0:
        return out
    np.add.at(out, row, data * v[col])
    return out


def _csr_matmat_numpy(row, col, data, b, n_rows):
    out = np.zeros((n_rows, b.shape[1]), dtype=np.result_type(data.dtype, b.dtype))
    if len(data) == 0:
        return out
    np.add.at(out, row, data[:, None] * b[col])
    return out


def _spmm_expand_numpy(a_row, a_col, a_data, b_indptr, b_col, b_data):
    """Expand all A_ik * B_kj products as an (unreduced) coo triple."""
    counts = b_indptr[a_col + 1] - b_indptr[a_col]
    total = int(counts.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=a_data.dtype))
    reps = np.repeat(np.arange(len(a_row)), counts)
    offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    b_pos = b_indptr[a_col][reps] + offs
    out_row = a_row[reps]
    out_col = b_col[b_pos]
    out_data = a_data[reps] * b_data[b_pos]
    return out_row, out_col, out_data


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------

def csr_matvec(indptr, row, col, data, v, n_rows):
    """out = A @ v for CSR/COO-sorted A.  data/v may be int64 or object."""
    if data.dtype == object or v.dtype == object:
        out = np.zeros(n_rows, dtype=object)
        out[:] = 0
        if len(data):
            np.add.at(out, row, data * v[col])
        return out
    if NUMBA_ENABLED:
        out = np.zeros(n_rows, dtype=np.result_type(data.dtype, v.dtype))
        return _csr_matvec_jit(indptr, col, data.astype(out.dtype, copy=False),
                               v.astype(out.dtype, copy=False), out)
    return _csr_matvec_numpy(row, col, data, v, n_rows)


def csr_matmat_dense(indptr, row, col, data, b, n_rows):
    """out = A @ B with B a dense 2-d array."""
    if data.dtype == object or b.dtype == object:
        out = np.zeros((n_rows, b.shape[1]), dtype=object)
        out[:] = 0
        if len(data):
            np.add.at(out, row, data[:, None] * b[col])
        return out
    if NUMBA_ENABLED:
        dt = np.result_type(data.dtype, b.dtype)
        out = np.zeros((n_rows, b.shape[1]), dtype=dt)
        return _csr_matmat_jit(indptr, col, data.astype(dt, copy=False),
                               b.astype(dt, copy=False), out)
    return _csr_matmat_numpy(row, col, data, b, n_rows)


def spmm(a_indptr, a_row, a_col, a_data, b_indptr, b_row, b_col, b_data,
         n_rows, n_cols):
    """Sparse product A @ B -> unsorted-within-row coo triplets (row, col, data).

    Output rows come out in increasing order; columns within a row are in
    accumulator order on the numba path and unreduced on the numpy path, so
    callers must re-sort/merge (SparseOp construction does).
    """
    if a_data.dtype == object or b_data.dtype == object:
        return _spmm_expand_numpy(a_row, a_col,
                                  a_data.astype(object, copy=False),
                                  b_indptr, b_col,
                                  b_data.astype(object, copy=False))
    if NUMBA_ENABLED:
        mask = np.full(n_cols, -1, dtype=np.int64)
        row_nnz = np.zeros(n_rows, dtype=np.int64)
        _spmm_count_jit(a_indptr, a_col, b_indptr, b_col, n_cols, mask, row_nnz)
        c_indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=c_indptr[1:])
        nnz = int(c_indptr[-1])
        c_col = np.zeros(nnz, dtype=np.int64)
        c_data = np.zeros(nnz, dtype=a_data.dtype)
        next_ = np.full(n_cols, -1, dtype=np.int64)
        sums = np.zeros(n_cols, dtype=a_data.dtype)
        _spmm_fill_jit(a_indptr, a_col, a_data, b_indptr, b_col, b_data,
                       c_indptr, c_col, c_data, next_, sums)
        c_row = np.repeat(np.arange(n_rows, dtype=np.int64), row_nnz)
        return c_row, c_col, c_data
    return _spmm_expand_numpy(a_row, a_col, a_data, b_indptr, b_col, b_data)
