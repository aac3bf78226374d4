"""Kernel tests: sparse ops against dense brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitcasimir import _kernels
from splitcasimir import kernel as kernel_module
from splitcasimir.kernel import (
    DimensionMismatchError,
    KernelError,
    SparseOp,
    Vec,
    _gcd_reduce,
    apply_poly_factors,
    combine,
    kron,
    product_of_shifts,
    trace_word,
)
from splitcasimir.identities import CharIdentity, verify_identity
from splitcasimir.serialize import dumps, loads


# --- oracles ----------------------------------------------------------------

def dense_kron(a, b):
    """Nested-loop Kronecker product on dense Fraction matrices."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.full((ra * rb, ca * cb), Fraction(0), dtype=object)
    for i1 in range(ra):
        for j1 in range(ca):
            for i2 in range(rb):
                for j2 in range(cb):
                    out[i1 * rb + i2, j1 * cb + j2] = a[i1, j1] * b[i2, j2]
    return out


def dense_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.full((n, m), Fraction(0), dtype=object)
    for i in range(n):
        for j in range(m):
            out[i, j] = sum(a[i, r] * b[r, j] for r in range(k))
    return out


def char_poly_faddeev(a):
    """Faddeev-LeVerrier: monic characteristic polynomial coefficients."""
    n = a.shape[0]
    coeffs = [Fraction(1)]
    m = np.full((n, n), Fraction(0), dtype=object)
    for k in range(1, n + 1):
        for i in range(n):
            m[i, i] += coeffs[-1]
        m = dense_matmul(a, m)
        c = -sum(m[i, i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs  # p(x) = sum coeffs[k] x^(n-k)


def integer_roots_from_char_poly(coeffs):
    """All integer roots with multiplicity, by divisor trial + deflation."""
    roots = []
    poly = list(coeffs)
    while len(poly) > 1:
        const = poly[-1]
        if const == 0:
            roots.append(Fraction(0))
            poly = poly[:-1]
            continue
        assert const.denominator == 1
        cands = set()
        for d in range(1, int(abs(const)) + 1):
            if abs(const.numerator) % d == 0:
                cands.update((d, -d))
        found = None
        for r in sorted(cands):
            if sum(c * r ** (len(poly) - 1 - k) for k, c in enumerate(poly)) == 0:
                found = Fraction(r)
                break
        if found is None:
            break
        # synthetic division
        out = [poly[0]]
        for c in poly[1:-1]:
            out.append(c + found * out[-1])
        poly = out
        roots.append(found)
    return roots


def random_exact_op(rng, rows, cols, density=0.4):
    trips = []
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                trips.append((i, j, Fraction(int(rng.integers(-9, 10)),
                                             int(rng.integers(1, 5)))))
    return SparseOp.from_triplets(rows, cols, trips)


# --- kron --------------------------------------------------------------------

def test_kron_identity():
    i2 = SparseOp.identity(2)
    assert kron(i2, i2) == SparseOp.identity(4)


def test_kron_assembles_permutation_components():
    # sum_ij e_ij (x) e_ji has components P^{ij}_{km} = delta^i_m delta^j_k
    d = 3
    acc = SparseOp.zero(d * d, d * d)
    for i in range(d):
        for j in range(d):
            e_ij = SparseOp.from_triplets(d, d, [(i, j, 1)])
            e_ji = SparseOp.from_triplets(d, d, [(j, i, 1)])
            acc = acc + kron(e_ij, e_ji)
    perm = SparseOp.from_triplets(
        d * d, d * d,
        [(i * d + j, j * d + i, 1) for i in range(d) for j in range(d)])
    assert acc == perm


def test_kron_matches_dense_oracle():
    rng = np.random.default_rng(11)
    a = random_exact_op(rng, 3, 3)
    b = random_exact_op(rng, 3, 3)
    got = kron(a, b)
    want = dense_kron(a.to_dense_fractions(), b.to_dense_fractions())
    assert np.array_equal(got.to_dense_fractions(), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kron_associativity(seed):
    rng = np.random.default_rng(seed)
    a = random_exact_op(rng, 2, 3, 0.6)
    b = random_exact_op(rng, 3, 2, 0.6)
    c = random_exact_op(rng, 2, 2, 0.6)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert left == right


# --- apply_poly_factors -------------------------------------------------------

def test_poly_factors_empty_roots_is_identity():
    rng = np.random.default_rng(3)
    op = random_exact_op(rng, 5, 5)
    v = Vec.random_exact(5, rng)
    assert apply_poly_factors(op, [], v) == v


def test_poly_factors_annihilates_diagonal():
    op = SparseOp.from_triplets(2, 2, [(0, 0, 2), (1, 1, 5)])
    v = Vec.from_fractions([Fraction(3, 7), Fraction(-2)])
    assert apply_poly_factors(op, [2, 5], v).is_zero()


def test_poly_factors_char_poly_oracle():
    # conjugate a known integer diagonal by a unimodular matrix, rediscover
    # the eigenvalues through the dense char-poly oracle, check annihilation
    rng = np.random.default_rng(7)
    n = 10
    diag_vals = [int(rng.integers(-4, 5)) for _ in range(n)]
    d = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        d[i, i] = Fraction(diag_vals[i])
    s = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        s[i, i] = Fraction(1)
        if i + 1 < n:
            s[i, i + 1] = Fraction(int(rng.integers(-2, 3)))
    s_inv = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        s_inv[i, i] = Fraction(1)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            s_inv[i, j] = -sum(s[i, k] * s_inv[k, j] for k in range(i + 1, j + 1))
    mat = dense_matmul(dense_matmul(s, d), s_inv)
    op = SparseOp.from_dense(mat)

    coeffs = char_poly_faddeev(mat)
    roots = integer_roots_from_char_poly(coeffs)
    assert sorted(roots) == sorted(Fraction(x) for x in diag_vals)

    v = Vec.random_exact(n, rng)
    assert apply_poly_factors(op, roots, v).is_zero()
    # order invariance: factors commute
    shuffled = list(roots)
    rng.shuffle(shuffled)
    w = Vec.random_exact(n, rng)
    assert (apply_poly_factors(op, roots, w)
            == apply_poly_factors(op, shuffled, w))


# --- trace_word ----------------------------------------------------------------

def test_trace_identity():
    assert trace_word([SparseOp.identity(7)]) == 7


def test_trace_permutation_on_tensor_square():
    for d in (2, 3, 5):
        perm = SparseOp.from_triplets(
            d * d, d * d,
            [(i * d + j, j * d + i, 1) for i in range(d) for j in range(d)])
        assert trace_word([perm]) == d


def test_trace_word_matches_dense_oracle():
    rng = np.random.default_rng(23)
    ops = [random_exact_op(rng, 4, 4, 0.5) for _ in range(2)]
    dense = dense_matmul(ops[0].to_dense_fractions(), ops[1].to_dense_fractions())
    want = sum(dense[i, i] for i in range(4))
    assert trace_word(ops) == want
    # the pair join agrees with the trace of the materialized product
    assert trace_word(ops) == trace_word([ops[0] @ ops[1]])
    with pytest.raises(ValueError):
        trace_word(ops + ops[:1])


def test_trace_word_cyclic_invariance():
    rng = np.random.default_rng(29)
    a = random_exact_op(rng, 3, 5, 0.7)
    b = random_exact_op(rng, 5, 3, 0.7)
    assert trace_word([a, b]) == trace_word([b, a])


# --- randomized zero checks ---------------------------------------------------

def test_zero_check_zero_operator():
    rep = verify_identity(SparseOp.zero(6, 6), CharIdentity([0]),
                          method="randomized_exact", trials=5, seed=1)
    assert rep.status == "PASS" and rep.trials == 5


def test_zero_check_identity_has_witness():
    ident = SparseOp.identity(4)
    rep = verify_identity(ident, CharIdentity([0]),
                          method="randomized_exact", trials=1, seed=1)
    assert rep.status == "FAIL"
    assert not Vec.from_fractions(rep.witness).is_zero()


def test_zero_check_tiny_scale_is_nonzero():
    # exact arithmetic has no tolerance: (1 + 10^-12) I - I is not zero
    near = SparseOp.identity(3, scale=1 + Fraction(1, 10 ** 12))
    rep = verify_identity(near, CharIdentity([1]), method="randomized_exact",
                          trials=4, seed=2)
    assert rep.status == "FAIL" and rep.trials == 1
    w = Vec.from_fractions(rep.witness)
    assert not (near.matvec(w) - w).is_zero()


# --- storage-order invariants -------------------------------------------

def test_exact_results_independent_of_entry_order():
    trips = [(0, 1, Fraction(1, 2)), (1, 0, Fraction(-2, 3)), (0, 0, 3)]
    a = SparseOp.from_triplets(2, 2, trips)
    b = SparseOp.from_triplets(2, 2, list(reversed(trips)))
    assert a == b


def test_duplicate_triplets_merge_and_zeros_drop():
    op = SparseOp.from_triplets(2, 2, [(0, 0, Fraction(1, 2)),
                                       (0, 0, Fraction(1, 2)),
                                       (1, 1, 1), (1, 1, -1)])
    assert op.nnz == 1
    assert list(op.entries()) == [(0, 0, Fraction(1))]


def test_add_matmul_against_dense():
    rng = np.random.default_rng(41)
    a = random_exact_op(rng, 4, 4)
    b = random_exact_op(rng, 4, 4)
    assert np.array_equal((a + b).to_dense_fractions(),
                          a.to_dense_fractions() + b.to_dense_fractions())
    assert np.array_equal((a @ b).to_dense_fractions(),
                          dense_matmul(a.to_dense_fractions(),
                                       b.to_dense_fractions()))


def test_matvec_against_dense():
    rng = np.random.default_rng(43)
    a = random_exact_op(rng, 5, 5)
    v = Vec.from_fractions([Fraction(int(rng.integers(-9, 10)), 3)
                            for _ in range(5)])
    got = a.matvec(v).fractions()
    dense = a.to_dense_fractions()
    vals = v.fractions()
    want = [sum(dense[i, j] * vals[j] for j in range(5)) for i in range(5)]
    assert got == want


def test_bigint_overflow_lift_is_exact():
    big = 2 ** 45
    a = SparseOp.from_triplets(2, 2, [(0, 0, big), (0, 1, big - 1),
                                      (1, 0, 3), (1, 1, -big)])
    prod = a @ a @ a  # would overflow int64 without the object lift
    dense = a.to_dense_fractions()
    want = dense_matmul(dense_matmul(dense, dense), dense)
    assert np.array_equal(prod.to_dense_fractions(), want)


@pytest.mark.parametrize("values", [
    [2] * 64 + [3],             # prefix gcd 2, total 1
    [0] * 64 + [6, -4],         # all-zero prefix, nonzero tail
    [4, -6, 10],                # shorter than the prefix
    [5] * 64,                   # exactly the prefix
    [0] * 100,                  # all zero: 0
    [],
    [-4] * 64 + [-6] * 10,      # negative entries, prefix gcd 4
    [1] + [10 ** 6] * 100,      # a prefix gcd of 1 settles it
])
def test_gcd_reduce_prefix_boundaries(values):
    want = math.gcd(*values)
    assert _gcd_reduce(np.array(values, dtype=np.int64)) == want
    assert _gcd_reduce(np.array(values, dtype=object)) == want
    assert _gcd_reduce(np.array(values + [2 ** 70], dtype=object)) == \
        math.gcd(want, 2 ** 70)


def test_vec_canonical_gcd_past_the_prefix():
    v = Vec(np.array([4] * 64 + [6], dtype=np.int64))
    assert v.scale == 2 and v.data.tolist() == [2] * 64 + [3]


def test_is_identity():
    assert SparseOp.identity(5).is_identity()
    assert not SparseOp.identity(5, scale=2).is_identity()
    diag = [(0, 0, 1), (1, 1, 1)]
    assert not SparseOp.from_triplets(3, 3, diag).is_identity()
    assert not SparseOp.from_triplets(3, 3, diag + [(2, 2, -1)]).is_identity()
    assert not SparseOp.from_triplets(3, 3, diag + [(2, 2, 2)]).is_identity()
    assert not SparseOp.from_triplets(3, 3, diag + [(2, 1, 1)]).is_identity()
    assert not SparseOp.from_triplets(2, 3, diag).is_identity()


def test_vec_scaled_negative_is_canonical():
    assert Vec.from_fractions([1, 2]).scaled(-1) == Vec.from_fractions([-1, -2])
    assert (Vec.from_fractions([Fraction(1, 3), 2]).scaled(Fraction(-3, 2))
            == Vec.from_fractions([Fraction(-1, 2), -3]))
    assert Vec.zeros(3).scaled(-5) == Vec.zeros(3)


def test_combine_matches_termwise_sum():
    rng = np.random.default_rng(53)
    ops = [random_exact_op(rng, 3, 5) for _ in range(6)]
    coeffs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
              for _ in ops]
    acc = SparseOp.zero(3, 5)
    dense = np.full((3, 5), Fraction(0), dtype=object)
    for c, op in zip(coeffs, ops):
        acc = acc + op.scaled(c)
        dense = dense + op.to_dense_fractions() * c
    got = combine(zip(coeffs, ops))
    assert got == acc
    assert np.array_equal(got.to_dense_fractions(), dense)
    # cancelling terms leave the canonical zero
    assert combine([(1, ops[0]), (-1, ops[0])]) == SparseOp.zero(3, 5)
    with pytest.raises(DimensionMismatchError):
        combine([(1, ops[0]), (1, SparseOp.identity(3))])


def _stored(op):
    return [int(x) for x in op.data]


@settings(max_examples=60, deadline=None)
@given(count=st.integers(2, 8), shift=st.integers(0, 2), sign=st.sampled_from([1, -1]),
       deltas=st.lists(st.integers(-64, 64), min_size=8, max_size=8),
       order=st.permutations(range(9)))
def test_normalize_segment_sum_across_int64_bound(count, shift, sign, deltas, order):
    # `count` duplicates of (1, 3) whose sum lands near 2^62 * 2^shift, plus a
    # lone unit entry that keeps the gcd at 1; 3x5 so row/col come back from
    # the key by divmod
    base = 2 ** (62 + shift) // count
    assume(base + 64 < 2 ** 62)
    vals = [sign * (base + d) for d in deltas[:count]]
    trips = [(1, 3, v) for v in vals] + [(2, 0, 1)]
    trips = [trips[i] for i in order if i < len(trips)]
    row, col, data = (np.array(x, dtype=np.int64) for x in zip(*trips))
    op = SparseOp(3, 5, row, col, data)
    total = sum(vals)
    assert list(op.entries()) == [(1, 3, Fraction(total)), (2, 0, Fraction(1))]
    assert (op.data.dtype == object) == (abs(total) >= 2 ** 62)
    assert _stored(op) == [total, 1]


@settings(max_examples=60, deadline=None)
@given(mult=st.integers(8, 4096), shift=st.integers(0, 2), delta=st.integers(-2, 2),
       other=st.integers(-3, 3), overlap=st.booleans())
def test_combine_multiplier_across_int64_bound(mult, shift, delta, other, overlap):
    # mult * max_abs lands near 2^62 * 2^shift; the second term shares the
    # big entry's position when `overlap`
    big = 2 ** (62 + shift) // mult + delta
    a = SparseOp(2, 3, np.array([0, 1]), np.array([0, 2]),
                 np.array([big, 1], dtype=np.int64))
    pos = (0, 0) if overlap else (1, 1)
    b = SparseOp.from_triplets(2, 3, [(pos[0], pos[1], 1)])
    want = np.full((2, 3), Fraction(0), dtype=object)
    want[0, 0] += big * mult
    want[1, 2] += mult
    want[pos] += other
    got = combine([(mult, a), (other, b)])
    assert np.array_equal(got.to_dense_fractions(), want)
    assert got == a.scaled(mult) + b.scaled(other)
    assert (got.data.dtype == object) == (max(abs(x) for x in _stored(got))
                                          >= 2 ** 62)


def test_poly_of_op_and_shifts():
    rng = np.random.default_rng(47)
    a = random_exact_op(rng, 4, 4, 0.6)
    dense = a.to_dense_fractions()
    ident = np.full((4, 4), Fraction(0), dtype=object)
    for i in range(4):
        ident[i, i] = Fraction(1)
    shifts = product_of_shifts(a, [1, -2])
    want = dense_matmul(dense - ident, dense + 2 * ident)
    assert np.array_equal(shifts.to_dense_fractions(), want)


def test_product_of_shifts_with_unit_pins_factor_order():
    rng = np.random.default_rng(59)
    n, k = 5, 2
    a = random_exact_op(rng, n, n, 0.6)
    # U = [[I_k, B], [0, 0]] is idempotent for any B
    trips = [(i, i, 1) for i in range(k)]
    trips += [(i, j, Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
              for i in range(k) for j in range(k, n)]
    unit = SparseOp.from_triplets(n, n, trips)
    du, da = unit.to_dense_fractions(), a.to_dense_fractions()
    assert np.array_equal(dense_matmul(du, du), du)
    assert not np.array_equal(dense_matmul(da, du), dense_matmul(du, da))
    r1, r2 = Fraction(2, 3), Fraction(-5, 2)
    # a unit that does not commute with the operator is refused
    with pytest.raises(KernelError):
        product_of_shifts(a, [r1, r2], unit=unit)
    # so is one that commutes but is not idempotent
    with pytest.raises(KernelError):
        product_of_shifts(a, [r1, r2], unit=a)
    # U X U + (1 - U) Y (1 - U) commutes with U
    ident = SparseOp.identity(n)
    co = unit @ a @ unit + (ident - unit) @ random_exact_op(
        rng, n, n, 0.6) @ (ident - unit)
    dc = co.to_dense_fractions()
    assert np.array_equal(dense_matmul(dc, du), dense_matmul(du, dc))
    want = dense_matmul(dense_matmul(dc - r2 * du, dc - r1 * du), du)
    got = product_of_shifts(co, [r1, r2], unit=unit)
    assert np.array_equal(got.to_dense_fractions(), want)
    assert not got.is_zero()
    # column j is the factor-by-factor image of unit e_j
    for j in range(n):
        e = Vec.zeros(n)
        e.data[j] = 1
        col = apply_poly_factors(co, [r1, r2], unit.matvec(e), unit=unit)
        assert col.fractions() == list(want[:, j])


def test_dimension_mismatch_raises():
    a = SparseOp.identity(3)
    b = SparseOp.identity(4)
    with pytest.raises(DimensionMismatchError):
        _ = a + b
    with pytest.raises(DimensionMismatchError):
        _ = a @ b
    with pytest.raises(DimensionMismatchError):
        a.matvec(Vec.zeros(4))


# --- kernels: int64 and object operands share one path ----------------------------

def _op_with_entry(rng, rows, cols, big):
    # a lone entry of 2^70 + 1 keeps the gcd at 1 and the data in object dtype
    op = random_exact_op(rng, rows, cols, 0.5)
    if big:
        op = op + SparseOp.from_triplets(rows, cols, [(0, cols - 1, 2 ** 70 + 1)])
    assert (op.data.dtype == object) == big
    return op


def _core(op):
    """Dense Fraction matrix of the integer core (data without the scale)."""
    return op.to_dense_fractions() / op.scale


@pytest.mark.parametrize("a_big,b_big", [(False, False), (True, False),
                                         (False, True), (True, True)],
                         ids=["int64", "object-left", "object-right", "object"])
def test_kernels_match_dense_oracle(a_big, b_big):
    rng = np.random.default_rng(53)
    a = _op_with_entry(rng, 6, 7, a_big)
    b = _op_with_entry(rng, 7, 5, b_big)
    da = a.to_dense_fractions()
    assert np.array_equal((a @ b).to_dense_fractions(),
                          dense_matmul(da, b.to_dense_fractions()))
    vals = [Fraction(int(x), 3) for x in rng.integers(-9, 10, size=7)]
    if b_big:
        vals[2] += 2 ** 70
    v = Vec.from_fractions(vals)
    assert (v.data.dtype == object) == b_big
    want = [sum(da[i, j] * vals[j] for j in range(7)) for i in range(6)]
    assert a.matvec(v).fractions() == want
    m = rng.integers(-9, 10, size=(7, 3)).astype(np.int64)
    if b_big:
        m = m.astype(object)
        m[4, 1] = -(2 ** 70)
    got = a.apply_dense(m)
    assert got.dtype == (object if a_big or b_big else np.int64)
    assert np.array_equal(got, dense_matmul(_core(a), m.astype(object)))


def test_kernel_paths_agree_int64():
    # int64 data and the same data as Python ints give equal results
    rng = np.random.default_rng(53)
    a = random_exact_op(rng, 8, 8, 0.4)
    obj = a.data.astype(object)
    core = _core(a)
    v = rng.integers(-9, 10, size=8).astype(np.int64)
    fast = _kernels.csr_matvec(*a.segments, a.col, a.data, v, 8)
    slow = _kernels.csr_matvec(*a.segments, a.col, obj, v.astype(object), 8)
    assert fast.dtype == np.int64 and slow.dtype == object
    assert np.array_equal(fast, slow)
    assert np.array_equal(fast.astype(object),
                          dense_matmul(core, v.astype(object)[:, None])[:, 0])
    b = rng.integers(-5, 6, size=(8, 3)).astype(np.int64)
    fast2 = _kernels.csr_matmat_dense(*a.segments, a.col, a.data, b, 8)
    slow2 = _kernels.csr_matmat_dense(*a.segments, a.col, obj, b.astype(object), 8)
    assert fast2.dtype == np.int64 and slow2.dtype == object
    assert np.array_equal(fast2, slow2)
    assert np.array_equal(fast2.astype(object), dense_matmul(core, b.astype(object)))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), shape=st.sampled_from(["gaps", "zero", "one-row"]),
       kind=st.sampled_from(["int64", "object"]), width=st.integers(1, 4))
def test_segment_kernels_match_dense_oracle(data, shape, kind, width):
    # each non-empty row is one segment sum written back at its own row; with
    # the first, middle and last rows empty, a sum written to the wrong row
    # shows
    big = _ENTRY_BIG[kind]
    cols = data.draw(st.integers(1, 6))
    if shape == "zero":
        a = SparseOp.zero(data.draw(st.integers(1, 6)), cols)
    elif shape == "one-row":
        a = _drawn_op(data, 1, cols, big)
    else:
        rows = data.draw(st.integers(3, 8))
        full = _drawn_op(data, rows, cols, big)
        keep = ~np.isin(full.row, [0, rows // 2, rows - 1])
        a = SparseOp(rows, cols, full.row[keep], full.col[keep], full.data[keep],
                     full.scale)
    dense = a.to_dense_fractions()
    seg_rows, starts = a.segments
    assert seg_rows.tolist() == [i for i in range(a.rows) if any(dense[i])]
    assert starts.tolist() == a.indptr[seg_rows].tolist()
    small = st.sampled_from([0, 1, -1, 2, -3])
    b = np.array(data.draw(st.lists(st.tuples(small, small), min_size=cols * width,
                                    max_size=cols * width)), dtype=object)
    b = (b[:, 0] * big + b[:, 1]).reshape(cols, width)
    if kind == "int64":
        b = b.astype(np.int64)
    got = a.apply_dense(b)
    assert np.array_equal(got, dense_matmul(_core(a), b.astype(object)))
    v = Vec.from_fractions(b[:, 0])
    want = dense_matmul(dense, np.array(v.fractions(), dtype=object)[:, None])
    assert a.matvec(v).fractions() == want[:, 0].tolist()


def test_spmm_paths_agree():
    # the expanded products of A @ B, merged, equal @ for int64 and object data
    rng = np.random.default_rng(59)
    a = random_exact_op(rng, 6, 7, 0.5)
    b = random_exact_op(rng, 7, 5, 0.5)
    prod = a @ b
    for a_data, b_data in ((a.data, b.data), (a.data.astype(object), b.data.astype(object))):
        r, c, d = _kernels.spmm(a.row, a.col, a_data, b.indptr, b.col, b_data)
        assert d.dtype == a_data.dtype
        assert SparseOp(6, 5, r, c, d, a.scale * b.scale) == prod
    assert np.array_equal(prod.to_dense_fractions(),
                          dense_matmul(a.to_dense_fractions(), b.to_dense_fractions()))


# --- spmm in row blocks ------------------------------------------------------------

_ENTRY_BIG = {"int64": 4, "object": 2 ** 70, "cross": 2 ** 31}


def _drawn_op(data, rows, cols, big):
    # entries v * big + w with small v, w: gcd 1 is likely, so object data
    # stays object, and 2^31-sized entries make sums of products pass 2^62
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    cells = data.draw(st.lists(st.tuples(small, st.sampled_from([0, 1, -1])),
                               min_size=rows * cols, max_size=rows * cols))
    trips = [(i // cols, i % cols, v * big + w)
             for i, (v, w) in enumerate(cells) if v * big + w]
    return SparseOp.from_triplets(rows, cols, trips)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.integers(1, 24),
       factor=st.sampled_from([0, 4, 10 ** 9]),
       kind=st.sampled_from(sorted(_ENTRY_BIG)))
def test_matmul_in_row_blocks_matches_dense_oracle(data, budget, factor, kind):
    # a budget of a few products cuts every product into many row blocks;
    # factor 0 forces the sort merge and 10^9 the dense accumulator
    n, k, m = (data.draw(st.integers(1, 8)) for _ in range(3))
    a = _drawn_op(data, n, k, _ENTRY_BIG[kind])
    b = _drawn_op(data, k, m, _ENTRY_BIG[kind])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK_PRODUCTS", budget)
        mp.setattr(_kernels, "DENSE_AREA_FACTOR", factor)
        got = a @ b
        da, db = a.data.astype(object), b.data.astype(object)
        r, c, d = _kernels.spmm(a.row, a.col, da, b.indptr, b.col, db)
    assert np.array_equal(got.to_dense_fractions(),
                          dense_matmul(a.to_dense_fractions(), b.to_dense_fractions()))
    assert (got.data.dtype == object) == (max(map(abs, _stored(got)), default=0)
                                          >= 2 ** 62)
    # spmm itself returns merged triplets: strictly increasing keys, no zeros
    key = r * m + c
    assert np.all(np.diff(key) > 0) and all(x != 0 for x in d)
    assert d.dtype == object
    assert SparseOp(n, m, r, c, d, a.scale * b.scale) == got


@pytest.mark.parametrize("factor", [0, 10 ** 9])
@pytest.mark.parametrize("big", [1, 2 ** 70])
def test_spmm_exact_cancellation_drops_the_zero(factor, big):
    # row 0 of A @ B sums to (3, 0, 5) and row 1 to (-1, 2 big, -1): the
    # products at (0, 1) cancel between two nonzero neighbours; factor 0
    # merges by the sort, 10^9 by the dense accumulator
    a = np.array([1, 1, 1, -1], dtype=object)
    b = np.array([1, big, 2, 2, -big, 3], dtype=object)
    if big == 1:
        a, b = a.astype(np.int64), b.astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "DENSE_AREA_FACTOR", factor)
        r, c, d = _kernels.spmm(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                                a, np.array([0, 3, 6]),
                                np.array([0, 1, 2, 0, 1, 2]), b)
    assert d.dtype == a.dtype
    assert np.all(np.diff(r * 3 + c) > 0)
    assert [(int(i), int(j), int(x)) for i, j, x in zip(r, c, d)] == [
        (0, 0, 3), (0, 2, 5), (1, 0, -1), (1, 1, 2 * big), (1, 2, -1)]


def test_matmul_transient_is_bounded_by_block():
    # the sp(6) adjoint C+ @ C+ expands about 1.29M products into 34458
    # entries; expanding them all at once peaked near 86x the result's bytes
    import tracemalloc

    from splitcasimir.catalog import adjoint_context
    cp, _ = adjoint_context("sp(6)").sc.parts()
    cp @ cp  # fills the cached csr structure outside the measurement
    tracemalloc.start()
    try:
        c2 = cp @ cp
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = c2.row.nbytes + c2.col.nbytes + c2.data.nbytes
    assert c2.nnz == 34458
    assert peak < 10 * result


# --- overflow guards at 2^62 against dense Fraction oracles ---------------------------

@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 4), mult=st.integers(8, 4096), shift=st.integers(0, 2),
       deltas=st.lists(st.integers(-64, 64), min_size=4, max_size=4))
def test_matvec_across_int64_bound(count, mult, shift, deltas):
    # row 0 of A holds `count` entries near 2^(62+shift) / (count * mult) and
    # meets `mult` in v, so its row sum lands near 2^(62+shift)
    base = 2 ** (62 + shift) // (count * mult)
    vals = [base + d for d in deltas[:count]]
    trips = [(0, j, x) for j, x in enumerate(vals)] + [(1, count, 1)]
    a = SparseOp(2, count + 1, *(np.array(x, dtype=np.int64) for x in zip(*trips)))
    v = Vec(np.array([mult] * count + [1], dtype=np.int64))
    got = a.matvec(v)
    total = mult * sum(vals)
    assert got.fractions() == [total, 1]
    assert (got.data.dtype == object) == (abs(total) >= 2 ** 62)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 4), mult=st.integers(8, 4096), shift=st.integers(0, 2),
       width=st.integers(1, 3), deltas=st.lists(st.integers(-64, 64), min_size=4,
                                                  max_size=4))
def test_apply_dense_across_int64_bound(count, mult, shift, width, deltas):
    base = 2 ** (62 + shift) // (count * mult)
    vals = [base + d for d in deltas[:count]]
    trips = [(0, j, x) for j, x in enumerate(vals)] + [(1, count, 1)]
    a = SparseOp(2, count + 1, *(np.array(x, dtype=np.int64) for x in zip(*trips)))
    b = np.arange(1, (count + 1) * width + 1, dtype=np.int64).reshape(count + 1, width)
    b[:count, 0] = mult
    got = a.apply_dense(b)
    want = dense_matmul(_core(a), b.astype(object))
    assert np.array_equal(got, want)
    if max(abs(x) for x in want.ravel()) >= 2 ** 62:
        assert got.dtype == object


@settings(max_examples=60, deadline=None)
@given(mult=st.integers(8, 4096), shift=st.integers(0, 2), delta=st.integers(-2, 2),
       other=st.integers(-3, 3))
def test_matmul_across_int64_bound(mult, shift, delta, other):
    # A[0, 0] * B[0, 0] lands near 2^(62+shift); A[0, 1] * B[1, 0] is summed
    # into the same entry
    big = 2 ** (62 + shift) // mult + delta
    a = SparseOp(2, 2, np.array([0, 0, 1]), np.array([0, 1, 1]),
                 np.array([big, 1, 1], dtype=np.int64))
    b = SparseOp(2, 3, np.array([0, 1, 1]), np.array([0, 0, 2]),
                 np.array([mult, other, 1], dtype=np.int64))
    got = a @ b
    want = dense_matmul(a.to_dense_fractions(), b.to_dense_fractions())
    assert np.array_equal(got.to_dense_fractions(), want)
    assert (got.data.dtype == object) == (max(abs(x) for x in _stored(got))
                                          >= 2 ** 62)


@settings(max_examples=60, deadline=None)
@given(mult=st.integers(8, 4096), shift=st.integers(0, 2), delta=st.integers(-2, 2),
       sign=st.sampled_from([1, -1]))
def test_kron_across_int64_bound(mult, shift, delta, sign):
    big = 2 ** (62 + shift) // mult + delta
    a = SparseOp(2, 2, np.array([0, 1]), np.array([0, 1]),
                 np.array([big, 1], dtype=np.int64))
    b = SparseOp(2, 3, np.array([0, 1]), np.array([1, 2]),
                 np.array([sign * mult, 1], dtype=np.int64))
    got = kron(a, b)
    assert np.array_equal(got.to_dense_fractions(),
                          dense_kron(a.to_dense_fractions(), b.to_dense_fractions()))
    assert (got.data.dtype == object) == (max(abs(x) for x in _stored(got))
                                          >= 2 ** 62)


@settings(max_examples=60, deadline=None)
@given(mult=st.integers(8, 4096), shift=st.integers(0, 2), delta=st.integers(-2, 2),
       other=st.integers(-2 ** 61, 2 ** 61), sub=st.booleans())
def test_vec_add_sub_across_int64_bound(mult, shift, delta, other, sub):
    # scales 1 and 1/mult align on 1/mult, so x's data is multiplied by mult
    big = 2 ** (62 + shift) // mult + delta
    x = Vec(np.array([big, 1], dtype=np.int64))
    y = Vec(np.array([other, 1], dtype=np.int64), Fraction(1, mult))
    got = x - y if sub else x + y
    sign = -1 if sub else 1
    assert got.fractions() == [a + sign * b for a, b in zip(x.fractions(),
                                                             y.fractions())]
    # lifted iff an entry reaches 2^62 once the gcd is divided out
    assert (got.data.dtype == object) == (max(abs(int(x)) for x in got.data)
                                          >= 2 ** 62)


@settings(max_examples=60, deadline=None)
@given(mult=st.integers(8, 4096), shift=st.integers(0, 2), delta=st.integers(-2, 2),
       other=st.integers(-2 ** 61, 2 ** 61), overlap=st.booleans())
def test_sparse_add_across_int64_bound(mult, shift, delta, other, overlap):
    big = 2 ** (62 + shift) // mult + delta
    a = SparseOp(2, 3, np.array([0, 1]), np.array([0, 2]),
                 np.array([big, 1], dtype=np.int64))
    pos = (0, 0) if overlap else (1, 1)
    b = SparseOp(2, 3, np.array([pos[0], 1]), np.array([pos[1], 2]),
                 np.array([other, 1], dtype=np.int64), Fraction(1, mult))
    got = a + b
    want = a.to_dense_fractions() + b.to_dense_fractions()
    assert np.array_equal(got.to_dense_fractions(), want)
    assert (got.data.dtype == object) == (max(abs(x) for x in _stored(got))
                                          >= 2 ** 62)


@settings(max_examples=80, deadline=None)
@given(count=st.integers(1, 8), shift=st.integers(0, 2),
       signs=st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8),
       deltas=st.lists(st.integers(-64, 64), min_size=16, max_size=16))
@example(count=4, shift=0, signs=[1] * 8, deltas=[0] * 16)
def test_pair_trace_across_int64_bound(count, shift, signs, deltas):
    # Tr(A B) = sum_j x_j y_j over `count` pairs of entries near 2^(31-shift),
    # so the dot crosses 2^62 as count and shift vary; A's and B's unit
    # entries keep each gcd at 1 and meet no partner
    base = 2 ** (31 - shift)
    xs = [s * (base + d) for s, d in zip(signs, deltas[:count])]
    ys = [base + d for d in deltas[8:8 + count]]
    a = SparseOp.from_triplets(2, count + 1, [(0, j, x) for j, x in enumerate(xs)]
                               + [(1, count, 1)])
    b = SparseOp.from_triplets(count + 1, 2, [(j, 0, y) for j, y in enumerate(ys)]
                               + [(count, 0, 1)])
    assert a.data.dtype == b.data.dtype == np.int64
    lift = kernel_module._lift
    ran = []

    def spy(trips, *arrays):
        out = lift(trips, *arrays)
        ran.append(out[0].dtype)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_module, "_lift", spy)
        got = trace_word([a, b])
    total = sum(x * y for x, y in zip(xs, ys))
    dense = dense_matmul(a.to_dense_fractions(), b.to_dense_fractions())
    assert got == total == dense[0, 0] + dense[1, 1]
    # int64 below the bound, Python ints from it on
    past = count * max(map(abs, xs)) * max(ys) >= 2 ** 62
    assert ran == [np.dtype(object) if past else np.dtype(np.int64)]
    if abs(total) >= 2 ** 63:
        # the same dot on int64 data wraps
        assert past
        assert int(np.dot(np.array(xs, dtype=np.int64),
                          np.array(ys, dtype=np.int64))) != total


def test_zero_operand_with_multiplier_past_int64():
    # aligning on the scale 1/2^70 multiplies the zero operand by 2^70
    tiny = Fraction(1, 2 ** 70)
    v = Vec(np.array([3, 1], dtype=np.int64), tiny)
    assert Vec.zeros(2) + v == v
    assert v + Vec.zeros(2) == v
    assert Vec.zeros(2) - v == v.scaled(-1)
    op = SparseOp(2, 2, np.array([0, 1]), np.array([1, 0]),
                  np.array([3, 1], dtype=np.int64), tiny)
    zero = SparseOp.zero(2, 2)
    assert zero + op == op
    assert op + zero == op
    assert zero - op == -op
    for got in (Vec.zeros(2) + v, zero + op):
        assert got.data.dtype == np.int64


def test_reduced_result_that_fits_int64_is_int64():
    # over the common scale 1/2 the sum is [2^62 + 2, 3] (lifted); its gcd 3
    # leaves (2^62 + 2) / 3 < 2^62
    want = [2 ** 61 + 1, Fraction(3, 2)]
    got = Vec(np.array([2 ** 61, 1])) + Vec(np.array([2, 1]), Fraction(1, 2))
    assert got.fractions() == want
    assert got.data.dtype == np.int64
    a = SparseOp(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([2 ** 61, 1]))
    b = SparseOp(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([2, 1]),
                 Fraction(1, 2))
    got = a + b
    assert [v for _, _, v in got.entries()] == want
    assert got.data.dtype == np.int64


# --- serialization -----------------------------------------------------------------

def test_serialization_round_trip():
    rng = np.random.default_rng(61)
    op = random_exact_op(rng, 6, 4, 0.3)
    assert loads(dumps(op)) == op


def test_serialization_big_integers():
    op = SparseOp.from_triplets(
        2, 2, [(0, 1, Fraction(2 ** 200 + 1, 3 ** 40)), (1, 0, -(2 ** 99))])
    assert loads(dumps(op)) == op


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.fractions(min_value=-10, max_value=10,
                                       max_denominator=9)),
                max_size=12))
def test_serialization_round_trip_property(trips):
    op = SparseOp.from_triplets(5, 5, trips)
    assert loads(dumps(op)) == op


def test_kron_dimension_limit():
    from splitcasimir.kernel import DimensionLimitError
    big = SparseOp.from_triplets(2 ** 31, 2 ** 31, [(0, 0, 1)])
    with pytest.raises(DimensionLimitError):
        kron(big, big)
