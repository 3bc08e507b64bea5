from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import invdeg.mldegree as mldegree
import invdeg.multidegree as multidegree
from invdeg.exact import InvariantViolation, _eliminate
from invdeg.mldegree import (
    finite_difference_check,
    ml_degree,
    ml_polynomial,
    ml_table,
    smallest_valid_n,
)
from invdeg.multidegree import beta, gamma_degrees, sym_dimension
from invdeg.psi import p_alpha, psi_seq
from oracles import lagrange_fit


def test_ml_degree_known_values():
    assert ml_degree(3, 1) == 1
    assert ml_degree(3, 3) == 4
    assert ml_degree(3, 6) == 1
    assert ml_degree(2, 2) == 1


def test_ml_degree_out_of_range():
    with pytest.raises(ValueError, match="dimension d out of range for n"):
        ml_degree(3, 0)
    with pytest.raises(ValueError, match="dimension d out of range for n"):
        ml_degree(3, 7)
    with pytest.raises(ValueError):
        ml_degree(0, 1)


def test_ml_table_rows():
    rows = ml_table(3)
    assert rows == [(1,), (1, 1, 1), (1, 2, 4, 4, 2, 1)]
    with pytest.raises(ValueError):
        ml_table(0)


def test_ml_table_equals_gamma_degrees_up_to_20():
    rows = [gamma_degrees(n) for n in range(1, 21)]
    for n_max in range(1, 21):
        assert ml_table(n_max) == rows[:n_max]


def test_ml_table_runs_one_closed_elimination_per_evaluation_point(monkeypatch):
    calls = []
    for name in ("leading_pfaffians", "_closed_leading_pfaffians"):
        real = getattr(multidegree, name)
        monkeypatch.setattr(multidegree, name, lambda matrix, real=real: calls.append(matrix) or real(matrix))
    assert ml_table(1) == [(1,)] and [m.size for m in calls] == [2, 2]  # G(1) and G(2^K) for n = 1
    calls.clear()
    ml_table(9)
    # both parities at once, (A0, B0, 1..9, X), at t = 1 and at t = 2^K;
    # entry (A0, 1) is -t
    t = -calls[1].rows[0][2]
    assert [m.size for m in calls] == [12, 12] and t > 1 and t & (t - 1) == 0
    assert calls == [multidegree._generating_matrix(9, 1, closed=True), multidegree._generating_matrix(9, t, closed=True)]


def test_ml_table_rejects_a_zero_leading_pfaffian(monkeypatch):
    monkeypatch.setattr(multidegree, "_pair_matrix", lambda size: [[0] * (size + 1) for _ in range(size + 1)])
    with pytest.raises(InvariantViolation, match="leading principal Pfaffian"):
        ml_table(4)


def test_ml_degree_boundaries():
    for n in range(1, 11):
        m = sym_dimension(n)
        assert ml_degree(n, 1) == 1
        assert ml_degree(n, m) == 1


def test_ml_degree_rows_palindromic():
    for n in range(1, 9):
        m = sym_dimension(n)
        row = [ml_degree(n, d) for d in range(1, m + 1)]
        assert row == row[::-1]


def test_ml_degree_pairs_sum_to_beta():
    for n in range(2, 8):
        m = sym_dimension(n)
        for d in range(1, m):
            assert ml_degree(n, d) + ml_degree(n, d + 1) == beta(n, d)


def test_smallest_valid_n():
    assert smallest_valid_n(1) == 1
    assert smallest_valid_n(2) == 2
    assert smallest_valid_n(3) == 2
    assert smallest_valid_n(4) == 3
    assert smallest_valid_n(7) == 4
    with pytest.raises(ValueError):
        smallest_valid_n(0)


def test_ml_polynomial_constant_and_linear():
    p1 = ml_polynomial(1)
    assert p1.coeffs == (Fraction(1),)
    assert p1.degree == 0
    p2 = ml_polynomial(2)
    assert p2.coeffs == (Fraction(-1), Fraction(1))  # n - 1
    assert p2.evaluate(7) == 6


def test_ml_polynomial_quadratic():
    p3 = ml_polynomial(3)
    assert p3.coeffs == (Fraction(1), Fraction(-2), Fraction(1))  # (n - 1)^2
    assert [p3.evaluate(n) for n in range(2, 8)] == [gamma_degrees(n)[2] for n in range(2, 8)]


def test_ml_polynomial_matches_table_beyond_validation():
    for d in range(1, 6):
        poly = ml_polynomial(d)
        assert poly.degree == d - 1
        assert poly.coeffs[-1] > 0
        assert poly.sample_start == smallest_valid_n(d)
        assert poly.validated_at == tuple(range(poly.sample_start + d, poly.sample_start + d + 3))
        for n in range(poly.sample_start, poly.sample_start + d + 6):
            assert poly.evaluate(n) == ml_degree(n, d)


def test_ml_polynomial_rejects_bad_d():
    with pytest.raises(ValueError):
        ml_polynomial(0)


def test_ml_polynomial_detects_non_polynomial_data(monkeypatch):
    monkeypatch.setattr(mldegree, "_ml_degrees", lambda d, ns: [2 ** n for n in ns])
    with pytest.raises(InvariantViolation, match="polynomiality violated"):
        ml_polynomial(3)


def test_finite_difference_check_passes():
    rep = finite_difference_check(2, 6)
    assert rep.ok
    assert rep.start_n == 2
    assert rep.window == 6
    assert len(rep.differences) == 4
    assert finite_difference_check(1, 5).ok
    for d in range(1, 6):
        assert finite_difference_check(d, d + 8).ok


def test_finite_difference_check_validation():
    with pytest.raises(ValueError):
        finite_difference_check(0, 5)
    with pytest.raises(ValueError):
        finite_difference_check(3, 3)


def test_finite_difference_check_sees_broken_table(monkeypatch):
    monkeypatch.setattr(mldegree, "_ml_degrees", lambda d, ns: [n ** d for n in ns])
    rep = finite_difference_check(2, 6)
    assert not rep.ok


# ------------------------------------------------------- weight-sliced engine

def test_ml_degree_matches_mask_table():
    # The full beta table (minor-summation Pfaffian) is the oracle for the light slice.
    for n in range(1, 13):
        gam = gamma_degrees(n)
        assert [ml_degree(n, d) for d in range(1, sym_dimension(n) + 1)] == list(gam)


def test_gamma_prefix_matches_mask_table():
    for n in range(1, 10):
        gam = gamma_degrees(n)
        for k in range(1, sym_dimension(n) + 1):
            assert next(multidegree._gamma_prefixes([(n, k)])) == gam[:k]


_full_gamma = lru_cache(maxsize=None)(gamma_degrees)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 22).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(12, sym_dimension(n))))))
def test_gamma_prefix_matches_full_table(nk):
    n, k = nk
    assert next(multidegree._gamma_prefixes([(n, k)])) == _full_gamma(n)[:k]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_light_family_pfaffians_match_psi_routes(data):
    n = data.draw(st.integers(1, 14), label="n")
    a = data.draw(st.lists(st.integers(1, n), unique=True, max_size=5).map(sorted), label="a")
    extra = data.draw(st.integers(0, 3), label="extra")
    k = min(sum(a) + 1 + extra, sym_dimension(n))
    light = {s: (w, psi_a, psi_c) for s, w, psi_a, psi_c in next(multidegree._light_psi([(n, k)]))}
    assert all(w < k for w, _, _ in light.values())
    subset = sum(1 << (e - 1) for e in a)
    if sum(a) >= k:  # only the full set {1..n} can reach weight m
        assert subset not in light
        return
    assert light[subset] == (sum(a), psi_seq(a), p_alpha(a, n))


def test_light_family_is_exactly_the_light_subsets():
    for n in range(1, 8):
        m = sym_dimension(n)
        for k in range(1, m + 1):
            got = sorted(s for s, _, _, _ in next(multidegree._light_psi([(n, k)])))
            want = [s for s in range(1 << n) if sum(i + 1 for i in range(n) if s >> i & 1) < k]
            assert got == want


def test_bordered_pair_matrix_has_determinant_one():
    for n in range(1, 31):
        big = n if n % 2 else n + 1
        _, det, _ = _eliminate(multidegree._pair_matrix(big))
        assert det == 1


def test_ml_degree_rejects_bad_bordered_determinant(monkeypatch):
    pair_matrix = multidegree._pair_matrix
    monkeypatch.setattr(multidegree, "_pair_matrix", lambda size: [[2 * v for v in row] for row in pair_matrix(size)])
    with pytest.raises(InvariantViolation, match="leading block of size 2 has Pfaffian 2, expected 1"):
        ml_degree(5, 3)


def test_nested_inverses_match_gauss_jordan():
    inverses = list(multidegree._nested_inverses(multidegree._pair_matrix(25)))
    assert [len(c) for c in inverses] == list(range(2, 27, 2))
    for big in range(1, 26, 2):
        assert inverses[big // 2] == _eliminate(multidegree._pair_matrix(big))[2], big


def test_nested_inverses_are_signed_binomials_and_pair_complements():
    # C_N, the inverse of the leading block on 0..N for odd N, in closed form:
    # signed binomials on the border row and the last column, and inside,
    # signed psi of a pair's complement (Jacobi's identity on 2-subsets)
    inverses = list(multidegree._nested_inverses(multidegree._pair_matrix(61)))
    for big in range(1, 62, 2):
        c = inverses[big // 2]
        assert c[0] == [0] + [(-1) ** j * comb(big, j) for j in range(1, big + 1)], big
        assert [row[big] for row in c] == [(-1) ** (i + 1) * comb(big - 1, i) for i in range(big + 1)], big
        if big <= 21:
            for i in range(1, big):
                assert c[i][i + 1 : big] == [(-1) ** (i + j) * p_alpha((i, j), big) for j in range(i + 1, big)], big


@pytest.mark.parametrize("i, j", [(0, 1), (2, 5), (3, 6), (1, 10)])
def test_nested_inverses_reject_a_perturbed_pair_entry(i, j):
    w = multidegree._pair_matrix(11)
    w[i][j] += 1
    w[j][i] -= 1
    size = (j | 1) + 1  # the first leading even block that holds index j
    with pytest.raises(InvariantViolation, match=f"leading block of size {size} has Pfaffian"):
        list(multidegree._nested_inverses(w))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 16), st.integers(1, 12)), min_size=1, max_size=6))
def test_one_pass_matches_the_full_table_per_sample(raw):
    samples = sorted((n, min(k, sym_dimension(n))) for n, k in raw)
    assert list(multidegree._gamma_prefixes(samples)) == [_full_gamma(n)[:k] for n, k in samples]


def test_samples_must_come_in_increasing_n():
    assert list(multidegree._gamma_prefixes([(5, 3), (4, 3)])) == [_full_gamma(5)[:3], _full_gamma(4)[:3]]
    with pytest.raises(ValueError, match="increasing order of n"):
        list(multidegree._gamma_prefixes([(5, 3), (3, 3)]))


@settings(max_examples=100, deadline=None)
@given(st.integers(-20, 20), st.lists(st.integers(), min_size=1, max_size=15))
def test_newton_fit_matches_lagrange_oracle(x0, values):
    points = list(zip(range(x0, x0 + len(values)), values))
    assert mldegree._newton_fit(values, x0) == lagrange_fit(points)


def test_ml_degree_positivity_violation_raises(monkeypatch):
    monkeypatch.setattr(multidegree, "_light_psi", lambda samples: iter([[(0, 0, 1, 1), (1, 1, 1, 1)]]))
    with pytest.raises(InvariantViolation, match="multidegree positivity violated"):
        ml_degree(4, 2)


def test_ml_degree_beyond_mask_table():
    for n in (25, 30, 40):
        m = sym_dimension(n)
        assert ml_degree(n, 1) == 1
        assert ml_degree(n, 2) == n - 1
        assert ml_degree(n, m - 1) == n - 1


def test_ml_degree_never_builds_mask_table(monkeypatch):
    def refuse(n, *args):
        raise AssertionError(f"full beta table computed for n={n}")

    row = gamma_degrees(7)
    monkeypatch.setattr(multidegree, "_generating_values", refuse)
    monkeypatch.setattr(multidegree, "beta_vector", refuse)
    assert [ml_degree(7, d) for d in range(1, 29)] == list(row)
    poly = ml_polynomial(12)
    assert poly.degree == 11 and poly.validated_at == (17, 18, 19)
    assert finite_difference_check(8, 14).ok
