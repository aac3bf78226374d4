"""Root systems, weights and the normalized inner product."""

from fractions import Fraction

import pytest

from splitcasimir.catalog import parse_name
from splitcasimir.rootdata import algebra_name, root_system


@pytest.mark.parametrize("series,rank,n_pos,h_dual", [
    ("A", 1, 1, 2), ("A", 2, 3, 3), ("A", 4, 10, 5),
    ("B", 2, 4, 3), ("B", 3, 9, 5),
    ("C", 3, 9, 4), ("D", 4, 12, 6), ("D", 5, 20, 8),
    ("G", 2, 6, 4), ("F", 4, 24, 9),
    ("E", 6, 36, 12), ("E", 7, 63, 18), ("E", 8, 120, 30),
])
def test_positive_root_counts_and_dual_coxeter(series, rank, n_pos, h_dual):
    rs = root_system(series, rank)
    assert len(rs.positive_roots) == n_pos
    assert rs.dual_coxeter == h_dual


def test_highest_root_is_long_and_normalized():
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4),
                         ("E", 6)]:
        rs = root_system(series, rank)
        theta = rs.highest_root
        # standard normalization: long roots squared length 2
        assert rs.root_length_sq(theta) == 2
        # paper normalization: (theta, theta) = 1/t
        lam = rs.root_to_weight(theta)
        assert rs.weight_bilinear(lam, lam) == Fraction(1, rs.dual_coxeter)


def test_adjoint_casimir_value_is_one():
    # c2 of the highest weight = adjoint equals 1 in the 1/t normalization
    for series, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2),
                         ("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        rs = root_system(series, rank)
        labels = rs.root_to_weight(rs.highest_root)
        assert rs.casimir_c2(labels) == 1


def test_sl_defining_casimir_value():
    # c2(omega_1) = (N^2-1)/(2N^2) for sl(N)
    for n in (2, 3, 4, 5):
        rs = root_system("A", n - 1)
        omega1 = tuple(int(i == 0) for i in range(n - 1))
        assert rs.casimir_c2(omega1) == Fraction(n * n - 1, 2 * n * n)


def test_coroot_coefficients_are_integers():
    rs = root_system("G", 2)
    for root in rs.positive_roots:
        co = rs.coroot_coeffs(root)
        assert all(isinstance(c, int) for c in co)


def test_weyl_orbit_sizes():
    rs = root_system("A", 2)
    assert len(rs.weyl_orbit((1, 0))) == 3
    assert len(rs.weyl_orbit((1, 1))) == 6
    rs7 = root_system("E", 7)
    sizes = sorted(len(rs7.weyl_orbit(tuple(int(i == k) for i in range(7))))
                   for k in range(7))
    assert 56 in sizes  # the minuscule fundamental orbit


def test_root_strings_give_all_roots():
    rs = root_system("B", 2)
    # B2 positive roots: e2, e1-e2, e1, e1+e2
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 4), ("B", 2), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
    ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
])
def test_root_lengths_and_coroots_match_fraction_form(series, rank):
    # oracle: (x, y) = sum_ij x_i y_j d_j A_ij over Fraction, and
    # root^vee = sum_i 2 k_i d_i / (root, root) alpha_i^vee
    rs = root_system(series, rank)

    def form(x, y):
        return sum((Fraction(xi * yj) * rs.d[j] * rs.cartan[i][j]
                    for i, xi in enumerate(x) for j, yj in enumerate(y)),
                   Fraction(0))

    roots = rs.positive_roots + [tuple(-k for k in r)
                                 for r in rs.positive_roots]
    for root in roots:
        sq = form(root, root)
        assert sq == rs.bilinear_std(root, root)
        assert rs.root_length_sq(root) == sq
        assert rs.root_length_sq(root) == sq  # the cached value
        coroot = tuple(2 * k * d / sq for k, d in zip(root, rs.d))
        assert all(c.denominator == 1 for c in coroot)
        assert rs.coroot_coeffs(root) == tuple(int(c) for c in coroot)



def test_name_table_round_trip():
    for series, ranks in (("A", (1, 2, 7)), ("B", (1, 2, 5)), ("C", (1, 3)),
                          ("D", (2, 4, 5)), ("G", (2,)), ("F", (4,)),
                          ("E", (6, 7, 8))):
        for rank in ranks:
            name = parse_name(algebra_name(series, rank))
            assert name.series_rank == (series, rank)
            assert parse_name(f"{series}{rank}") == name
    assert str(parse_name("B3")) == "so(7)" and str(parse_name("C2")) == "sp(4)"
