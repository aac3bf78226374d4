"""Classical constructions, metric closed forms, nullspace and basis changes."""

import dataclasses
import hashlib
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcasimir import algebras, classical
from splitcasimir.algebras import (
    ConstructionError,
    Representation,
    _check_brackets,
    algebra_from_struct,
    check_adjoint_casimir_is_identity,
    check_antisymmetry,
    check_jacobi,
    check_killing,
    check_representation,
    killing_from_struct,
    sparse_nullspace,
    structure_from_generators,
    symmetric_block_inverse,
    trace_form,
)
from splitcasimir.classical import _metric_c, build_classical, build_so_sp
from splitcasimir.catalog import defining
from splitcasimir.kernel import (
    SparseOp,
    _pair_trace,
    combine,
    kron,
    vec_columns,
)
from splitcasimir.serialize import dumps


@pytest.mark.parametrize("series,rank,dim,module", [
    ("A", 1, 3, 2), ("A", 3, 15, 4), ("B", 2, 10, 5), ("B", 3, 21, 7),
    ("C", 2, 10, 4), ("C", 3, 21, 6), ("D", 3, 15, 6), ("D", 4, 28, 8),
])
def test_classical_invariants(series, rank, dim, module):
    alg, rep = build_classical(series, rank)
    assert alg.dim == dim
    assert rep.dim_module == module
    assert check_antisymmetry(alg)
    assert check_jacobi(alg)
    assert check_killing(alg)
    assert check_adjoint_casimir_is_identity(alg)
    assert check_representation(rep)


def test_so_sp_skips_only_root_data_errors(monkeypatch):
    # so(3) and so(4) lie outside the B/D rank ranges of `root_system`
    assert build_so_sp(3, +1)[0].root_data is None
    assert build_so_sp(4, +1)[0].root_data is None
    assert build_so_sp(5, +1)[0].root_data is not None

    def broken(series, rank):
        raise ValueError("broken root data")

    monkeypatch.setattr(classical, "root_system", broken)
    for n in (3, 5):
        with pytest.raises(ValueError, match="broken root data"):
            build_so_sp(n, +1)


def _digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(dumps(op))
    return h.hexdigest()


# sha256 of `serialize.dumps` of each output, as built by the per-pair
# Fraction bracket tables these constructions replaced
_PINNED = {
    "sl(2).struct":
        "bf2820bad3a601461273756c23053760f01cf52a2aaf5be461658e8e5a08c3d9",
    "sl(2).killing":
        "ea8f1ce126eb6f9199201f9bf6776a3cddde7f273e4be2efefb3c1a295b7c865",
    "sl(2).generators":
        "bc15f6b897a5ee4e67f41266c88e9d755276df03d6ad8f4fff2a9bf6c263bf11",
    "sl(4).struct":
        "5e000449d85331163736dd20e27e1f04506354c4de71aee37c7538d6acb7ab5b",
    "sl(4).killing":
        "b296710e7ded1bc16fa74b2fb805d664729944ceb2b845e3795cf8da240d3166",
    "sl(4).generators":
        "af357167a750d10fa134011eaedada1869cc9d9128ccfff72a4d7ce513892507",
    "so(3).struct":
        "38349a249bdaecf18e947ef99a49869d6c91f9e3e35ff341262b0d8da1e691ec",
    "so(3).killing":
        "b60f338bfa127766b273501ec5d58fa8b5597f64d7ff7a82429d101d77842543",
    "so(3).generators":
        "eafe5a7545f0ad33560ce8dec04560aafd129c429cbfaa286e48ff7ea2a70ae1",
    "so(4).struct":
        "bba29dee466eabd20d672b338f66c52f957be080d8b60adf1b1aa1f39f55c857",
    "so(4).killing":
        "fb01cde53b11a2ccf9627d3361150d2b5f16707ac304cf76ec0595e1952c7094",
    "so(4).generators":
        "7f59724fdf93ea7da71076a2abe3740ac19edb2b8c9adbb227342c5585d66b4a",
    "so(7).struct":
        "8c5f16162219a318b6178c6bfdd7f8b0c4dbbcdebb878b30913b573015df80a6",
    "so(7).killing":
        "97dbc5d5e3cecee25363a0fa6bb4e5c4e9760d7cb06843c7bbdb80bcf3fe19a4",
    "so(7).generators":
        "869da9819d7adaa1f7680fd8a3f64f068ed1d51a424d6fbec03090f0a31dc939",
    "so(8).struct":
        "4cea1536e57c3154ae661b8fc7eb0eb44161817bb490fd281bd4ed9ef1711f5f",
    "so(8).killing":
        "34e69536d5ae1a2bf6177a1c54219004dbabd2d6cb7be7edb03b128bf7cadd68",
    "so(8).generators":
        "1768e81e83bd9c8e341fd014ac9a7424c3febf9ecfca4abd1c76b143e42f6a5b",
    "sp(2).struct":
        "a3ae1f680488fb19110330a4ef516ecddd0f00b72e0571f3658938d953d7ecb2",
    "sp(2).killing":
        "584386600dcdcfe5de3fa640388fd403e0da219a81cd94a0c7ac4773667f2c84",
    "sp(2).generators":
        "170108fa3bcf8a96e7a29815b01931ab852b7f9e843ec6338f0dcd264d4d8340",
    "sp(6).struct":
        "400cf523daacaa99f2cbea4b2d628cdd101f1627a8b8c7ceee4e70dbacea2567",
    "sp(6).killing":
        "7529df91d532fea51b1fea584ede49ffcb57099c8815c04c067db67977e78f87",
    "sp(6).generators":
        "028e26b8eb08a9ef875748a5936231d4d69aa478f67ebeb84af2a7deb2263905",
}


def test_classical_and_normalize_outputs_are_pinned():
    got = {}
    for name in ("sl(2)", "sl(4)", "so(3)", "so(4)", "so(7)", "so(8)",
                 "sp(2)", "sp(6)"):
        alg, rep = defining(name)
        got[f"{name}.struct"] = _digest([alg.struct])
        got[f"{name}.killing"] = _digest([alg.killing])
        got[f"{name}.generators"] = _digest(rep.generators)
    assert got == _PINNED


def test_randomized_representation_check_probes_every_pair():
    # generator 3 of sl(4) occurs in none of the 8 basis pairs (nor their
    # brackets) that a pair-sampling check with the default seed would draw
    alg, rep = build_classical("A", 3)
    assert check_representation(rep)
    gens = list(rep.generators)
    gens[3] = gens[3].scaled(2)
    bad = Representation(alg, rep.dim_module, gens, rep.kind)
    assert not check_representation(bad)


@pytest.mark.parametrize("name", ["sl(4)", "g2"])
def test_combine_equals_termwise_sum(name):
    from splitcasimir.catalog import defining
    alg, rep = defining(name)
    rng = np.random.default_rng(61)
    for gens in (rep.generators, alg.ad_matrices()):
        ints = rng.integers(-3, 4, size=alg.dim)
        fracs = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                 for _ in range(alg.dim)]
        for coeffs in (ints, fracs):
            got = combine(zip(coeffs, gens))
            acc = SparseOp.zero(gens[0].rows, gens[0].cols)
            for op, c in zip(gens, coeffs):
                if c != 0:
                    acc = acc + op.scaled(Fraction(c))
            assert got == acc


@pytest.mark.parametrize("name", ["so(7)", "sp(6)"])
def test_lower_bracket_entries_expand_fresh_commutators(name):
    # the build evaluates each commutator once per pair a < b; every entry
    # at (b, a) must still expand [T_b, T_a], computed here anew
    alg, rep = defining(name)
    gens, dim = rep.generators, alg.dim
    coeffs = {}
    for r, d, v in alg.struct.entries():
        coeffs.setdefault(r, []).append((v, gens[d]))
    for b in range(dim):
        for a in range(b):
            comm = gens[b] @ gens[a] - gens[a] @ gens[b]
            terms = coeffs.get(b * dim + a)
            if terms is None:
                assert comm.is_zero()
            else:
                assert combine(terms) == comm


def test_perturbed_generator_leaves_the_span():
    # a diagonal entry is invisible to the so(5) readout (it reads strict
    # upper triangles), so only the span check can reject it
    alg, rep = build_classical("B", 2)
    gens = rep.generators
    iu, ju = np.triu_indices(5, 1)
    readout = SparseOp(10, 25, np.arange(10), iu * 5 + ju,
                       np.ones(10, dtype=np.int64))
    bad = list(gens)
    bad[5] = gens[5] + SparseOp.from_triplets(5, 5, [(0, 0, 1)])
    assert readout @ vec_columns(bad) == SparseOp.identity(10)
    with pytest.raises(ConstructionError, match="left the span"):
        structure_from_generators(bad, readout)
    assert structure_from_generators(gens, readout) == alg.struct


def _brackets_pairwise(struct, gens):
    """Oracle: [T_a, T_b] = C^d_ab T_d, one ordered pair at a time."""
    dim = len(gens)
    terms = {}
    for r, d, v in struct.entries():
        terms.setdefault(r, []).append((v, gens[d]))
    for a in range(dim):
        for b in range(dim):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            if a * dim + b in terms:
                comm = comm - combine(terms[a * dim + b])
            if not comm.is_zero():
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bracket_product_check_matches_pairwise_oracle(data):
    # random operators and tensors, and small true algebras with or without
    # a perturbed structure entry or generator, in blocks of 1 to 3
    if data.draw(st.booleans(), label="random"):
        dim = data.draw(st.integers(1, 4), label="dim")
        n = data.draw(st.integers(1, 3), label="n")
        gens = _sparse_ops(data, dim, n, n, "gen")
        (struct,) = _sparse_ops(data, 1, dim * dim, dim, "struct")
    else:
        alg, rep = build_classical(*data.draw(st.sampled_from(
            [("A", 1), ("A", 2), ("B", 1)]), label="algebra"))
        dim, struct = alg.dim, alg.struct
        gens = list(data.draw(st.sampled_from(
            [rep.generators, alg.ad_matrices()]), label="operators"))
        kind = data.draw(st.sampled_from(["exact", "struct", "gen"]))
        if kind == "struct":
            (bump,) = _sparse_ops(data, 1, dim * dim, dim, "bump")
            struct = struct + bump
        elif kind == "gen":
            k = data.draw(st.integers(0, dim - 1), label="which")
            (bump,) = _sparse_ops(data, 1, gens[k].rows, gens[k].cols, "bump")
            gens[k] = gens[k] + bump
    block = data.draw(st.integers(1, 3), label="block")
    with mock.patch.object(algebras, "BRACKET_BLOCK", block):
        got = _check_brackets(SimpleNamespace(dim=dim, struct=struct), gens)
    assert got == _brackets_pairwise(struct, gens)


@pytest.mark.parametrize("name", ["sp(6)", "so(7)", "g2", "f4", "e6", "e7",
                                  "e8"])
def test_struct_off_by_one_fails_bracket_check(name):
    # +1 on a stored entry, and on the zero entry C^0_{00}
    alg, rep = defining(name)
    t = alg.struct
    k = t.nnz // 2
    for row, col in ((int(t.row[k]), int(t.col[k])), (0, 0)):
        bump = SparseOp.from_triplets(t.rows, t.cols, [(row, col, 1)])
        bad = dataclasses.replace(alg, struct=t + bump, _ad=None)
        assert not check_representation(
            Representation(bad, rep.dim_module, rep.generators, rep.kind))


def _adjoint_casimir_by_loop(alg):
    """Oracle: sum over kappa^{ab} of kappa^{ab} ad_a ad_b, term by term."""
    ads = alg.ad_matrices()
    acc = SparseOp.zero(alg.dim, alg.dim)
    for a, b, v in alg.killing_inv.entries():
        acc = acc + (ads[a] @ ads[b]).scaled(v)
    return acc == SparseOp.identity(alg.dim)


@pytest.mark.parametrize("name", ["sl(3)", "so(5)", "g2"])
def test_adjoint_casimir_product_matches_loop(name):
    alg, _ = defining(name)
    ki = alg.killing_inv
    off = SparseOp.from_triplets(ki.rows, ki.cols, [(0, ki.cols - 1, 1)])
    for inv in (ki, ki.scaled(2), ki + off):
        probe = dataclasses.replace(alg, killing_inv=inv)
        assert check_adjoint_casimir_is_identity(probe) == \
            _adjoint_casimir_by_loop(probe) == (inv is ki)


# closed-form pair-indexed metrics of the paper's spanning sets
# (T_ij = e_ij - delta_ij I/N for sl(N), M_ij for so/sp), as oracles

def sl_pair_metric(n):
    def g(i, j, k, l):
        return Fraction(2 * (n * (j == k) * (i == l) - (i == j) * (k == l)))
    return g


def sl_pair_metric_inv(n):
    def ginv(i, j, k, l):
        return (Fraction((j == k) * (i == l)) - Fraction((i == j) * (k == l), n)) \
            / (2 * n)
    return ginv


def sosp_pair_metric(n, eps):
    c = _metric_c(n, eps).to_dense_fractions()

    def g(i1, i2, j1, j2):
        return 2 * (n - 2 * eps) * (c[i2][j1] * c[j2][i1]
                                    - eps * c[i1][j1] * c[j2][i2])
    return g


def test_sl_killing_pair_formula():
    # g_{ij,kl} = 2(N d_jk d_il - d_ij d_kl) against the basis-free trace form
    n = 4
    alg, rep = build_classical("A", n - 1)
    g = sl_pair_metric(n)
    # check on the off-diagonal part of the true basis, where basis elements
    # are single matrix units e_ij
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            want = g(i, j, k, l)
            got = next((v for r, c, v in alg.killing.entries()
                        if (r, c) == (a, b)), Fraction(0))
            assert got == want


def test_sl_pair_metric_contraction_is_dimension():
    for n in (2, 3, 4, 5):
        g = sl_pair_metric(n)
        ginv = sl_pair_metric_inv(n)
        total = sum(g(i, j, k, l) * ginv(i, j, k, l)
                    for i in range(n) for j in range(n)
                    for k in range(n) for l in range(n))
        assert total == n * n - 1


def test_sosp_killing_formula_and_duality():
    # so/sp closed form 2(N-2eps)(c c - eps c c); N -> -N maps the so and sp
    # dimension polynomials onto each other
    for n, eps in [(5, 1), (6, 1), (4, -1), (6, -1)]:
        fam = "B" if (eps == 1 and n % 2) else ("D" if eps == 1 else "C")
        rank = (n - 1) // 2 if fam == "B" else n // 2
        alg, rep = build_classical(fam, rank)
        g = sosp_pair_metric(n, eps)
        pairs = [(i, j) for i in range(n) for j in range(i + (1 if eps == 1 else 0), n)]
        dense = alg.killing.to_dense_fractions()
        for a, (i1, i2) in enumerate(pairs):
            for b, (j1, j2) in enumerate(pairs):
                assert dense[a][b] == g(i1, i2, j1, j2)
    # dim so(N) = N(N-1)/2 and dim sp(N) = N(N+1)/2 are exchanged by N -> -N
    for n in (4, 6, 8):
        assert n * (n - 1) // 2 == ((-n) * ((-n) + 1) // 2)


def test_d2_values():
    for series, rank, want in [("A", 2, Fraction(1, 6)),
                               ("A", 4, Fraction(1, 10)),
                               ("B", 2, Fraction(1, 3)),
                               ("D", 4, Fraction(1, 6)),
                               ("C", 3, Fraction(1, 8))]:
        _, rep = build_classical(series, rank)
        assert rep.d2() == want


def test_c2_times_dim_relation():
    # c2 * dim(module) = d2 * dim(g)
    for series, rank in [("A", 2), ("B", 2), ("C", 2)]:
        alg, rep = build_classical(series, rank)
        ki = alg.killing_inv
        acc = SparseOp.zero(rep.dim_module, rep.dim_module)
        for a, b, v in ki.entries():
            acc = acc + (rep.generators[a] @ rep.generators[b]).scaled(v)
        c2 = acc.trace() / rep.dim_module
        assert acc == SparseOp.identity(rep.dim_module, scale=c2)
        assert c2 * rep.dim_module == rep.d2() * alg.dim


def test_sparse_nullspace_known_kernel():
    # x0 + x1 = 0, x1 + x2 = 0 -> kernel spanned by (1, -1, 1)
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(1), 2: Fraction(1)}]
    basis, free = sparse_nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[free[0]] == 1
    ratios = [vec.get(k, Fraction(0)) for k in range(3)]
    assert ratios[0] == ratios[2] == -ratios[1]


def test_sparse_nullspace_overdetermined_consistent():
    rng = np.random.default_rng(5)
    # many repeated/linearly dependent rows of a rank-2 system on 4 unknowns
    base = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2), 3: Fraction(1)}]
    rows = []
    for _ in range(300):
        c1, c2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        row = {}
        for r, c in zip(base, (c1, c2)):
            for k, v in r.items():
                row[k] = row.get(k, Fraction(0)) + c * v
        row = {k: v for k, v in row.items() if v}
        if row:
            rows.append(row)
    basis, _ = sparse_nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        for r in base:
            assert sum(r.get(k, 0) * v for k, v in vec.items()) == 0


def _dense_rref_nullspace(rows, n):
    """Reduced-row-echelon nullspace of a dense Fraction matrix, as
    (basis, free) in the layout `sparse_nullspace` promises."""
    m = [[r.get(j, Fraction(0)) for j in range(n)] for r in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = {j: Fraction(1)}
        for r, p in enumerate(pivots):
            if m[r][j] != 0:
                vec[p] = -m[r][j]
        basis.append(vec)
    return basis, free


_nonzero_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                               st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_nullspace_matches_dense_rref(data):
    # over-determined systems: duplicates, zero rows and Fraction
    # combinations of a few base rows, in a drawn order
    n = data.draw(st.integers(1, 8), label="n")
    base = data.draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), _nonzero_fractions,
                        max_size=n), max_size=5), label="base")
    rows = []
    for _ in range(data.draw(st.integers(0, 3 * n + 6), label="n_rows")):
        kind = data.draw(st.sampled_from(["base", "dup", "zero", "comb"]))
        if kind == "base" and base:
            rows.append(dict(data.draw(st.sampled_from(base))))
        elif kind == "dup" and rows:
            rows.append(dict(data.draw(st.sampled_from(rows))))
        elif kind == "comb" and base:
            row = {}
            for r in base:
                c = data.draw(st.sampled_from(
                    [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7)]))
                for k, v in r.items():
                    row[k] = row.get(k, Fraction(0)) + c * v
            rows.append({k: v for k, v in row.items() if v})
        else:
            rows.append({})
    want_basis, want_free = _dense_rref_nullspace(rows, n)
    basis, free = sparse_nullspace(rows, n)
    assert free == want_free
    assert basis == want_basis


def _pair_trace_form(gens):
    """Oracle: B_ab = Tr(T_a T_b), one sorted triplet join per pair."""
    n = len(gens)
    return SparseOp.from_triplets(n, n, [
        (a, b, _pair_trace(gens[a], gens[b]))
        for a in range(n) for b in range(n)])


def _ad_by_mask(struct, dim):
    """Oracle: ad(X_a)^d_b = C^d_{ab}, one row mask per a."""
    a_of, b_of = struct.row // dim, struct.row % dim
    return [SparseOp(dim, dim, struct.col[a_of == a], b_of[a_of == a],
                     struct.data[a_of == a], struct.scale)
            for a in range(dim)]


# small values and values whose products pass 2^62 (object data)
_entry_values = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.integers(-2 ** 40, 2 ** 40))


def _sparse_ops(data, count, rows, cols, label):
    out = []
    for k in range(count):
        trips = data.draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, cols - 1),
            _entry_values), max_size=2 * rows * cols), label=f"{label}{k}")
        out.append(SparseOp.from_triplets(rows, cols, trips))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_form_matches_pair_traces(data):
    n = data.draw(st.integers(1, 5), label="n")
    d = data.draw(st.integers(1, 5), label="d")
    gens = _sparse_ops(data, n, d, d, "gen")
    assert trace_form(gens) == _pair_trace_form(gens)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_killing_from_struct_matches_pair_traces(data):
    dim = data.draw(st.integers(1, 4), label="dim")
    (struct,) = _sparse_ops(data, 1, dim * dim, dim, "struct")
    assert killing_from_struct(struct, dim) == \
        _pair_trace_form(_ad_by_mask(struct, dim))


@pytest.mark.parametrize("name", ["so(7)", "g2"])
def test_trace_forms_of_builds_match_pair_traces(name):
    alg, rep = defining(name)
    assert trace_form(rep.generators) == _pair_trace_form(rep.generators)
    assert killing_from_struct(alg.struct, alg.dim) == \
        _pair_trace_form(_ad_by_mask(alg.struct, alg.dim)) == alg.killing


def test_symmetric_block_inverse():
    m = SparseOp.from_triplets(4, 4, [(0, 0, 2), (1, 2, Fraction(1, 3)),
                                      (2, 1, Fraction(1, 3)), (3, 3, -5)])
    inv = symmetric_block_inverse(m)
    assert m @ inv == SparseOp.identity(4)
    singular = SparseOp.from_triplets(3, 3, [(0, 0, 1), (1, 1, 1), (1, 2, 1),
                                             (2, 1, 1), (2, 2, 1)])
    with pytest.raises(algebras.ConstructionError, match="singular"):
        symmetric_block_inverse(singular)


def test_normalize_preserves_casimir_and_d2():
    # a change of basis X'_a = S_a^b X_b by a fixed integer unitriangular S:
    # C'^d_{ab} = S_a^p S_b^q C^r_{pq} (S^-1)_r^d and T'_a = S_a^b T_b
    from splitcasimir.casimir import split_casimir
    alg, rep = build_classical("A", 2)
    sc = split_casimir(rep, rep)
    n = alg.dim
    # E maps the last four basis vectors into the first four, so E^2 = 0
    # and S = I + E has the inverse I - E
    e = SparseOp.from_triplets(n, n, [(0, 4, 1), (0, 5, 2), (1, 4, -1),
                                      (2, 7, 3), (3, 6, 1)])
    s_op, s_inv = SparseOp.identity(n) + e, SparseOp.identity(n) - e
    assert s_op @ s_inv == SparseOp.identity(n)
    struct2 = kron(s_op, s_op) @ alg.struct @ s_inv
    alg2 = algebra_from_struct(alg.name, alg.series, alg.rank, n, struct2)
    rows = {}
    for a, b, v in s_op.entries():
        rows.setdefault(a, []).append((v, rep.generators[b]))
    gens2 = [combine(rows[a]) for a in range(n)]
    rep2 = Representation(alg2, rep.dim_module, gens2, rep.kind)
    assert alg2.killing != alg.killing
    assert check_representation(rep2)
    # the split Casimir is basis independent
    assert split_casimir(rep2, rep2).operator == sc.operator
    # sl(N) trace convention: d2 = 1/(2N) in any basis
    assert rep2.d2() == Fraction(1, 6)
