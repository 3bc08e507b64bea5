import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import invdeg.multidegree as multidegree
import invdeg.psi as psi
from invdeg.exact import SkewMatrix, binomial, pfaffian_reference
from invdeg.mldegree import ml_table
from invdeg.multidegree import _pair_matrix
from invdeg.psi import PsiTable, p_alpha, psi_pair, psi_seq, psi_single, psi_table


def test_psi_single_values():
    assert [psi_single(i) for i in (1, 2, 3, 4)] == [1, 2, 4, 8]
    assert psi_single(10) == 512


def test_psi_single_rejects_nonpositive():
    with pytest.raises(ValueError):
        psi_single(0)
    with pytest.raises(ValueError):
        psi_single(-3)


def test_psi_pair_values():
    assert psi_pair(1, 2) == 1
    assert psi_pair(1, 3) == 3
    assert psi_pair(2, 3) == 3
    assert psi_pair(3, 4) == 10


def test_psi_pair_requires_increasing():
    with pytest.raises(ValueError, match="psi_pair requires i < j"):
        psi_pair(2, 2)
    with pytest.raises(ValueError, match="psi_pair requires i < j"):
        psi_pair(3, 1)
    with pytest.raises(ValueError):
        psi_pair(0, 2)


def test_psi_pair_binomial_sum():
    for i in range(1, 12):
        for j in range(i + 1, 13):
            assert psi_pair(i, j) == sum(binomial(i + j - 2, k) for k in range(i, j))


def test_psi_table_contents_and_cache():
    table = psi_table(5)
    assert isinstance(table, PsiTable)
    assert table.singles == (1, 2, 4, 8, 16)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert table.pair(i, j) == psi_pair(i, j)
    assert psi_table(5) is table
    with pytest.raises(ValueError):
        table.pair(1, 6)
    with pytest.raises(ValueError):
        table.single(0)


def test_psi_table_cache_holds_a_small_constant_number_of_tables():
    psi_table.cache_clear()
    for n in range(1, 41):
        p_alpha((1,), n)
    info = psi_table.cache_info()
    assert 2 <= info.maxsize <= 4 and info.currsize <= info.maxsize
    # one elimination for both parities, at t = 1 and at t = 2^K: one build
    psi_table.cache_clear()
    ml_table(12)
    assert psi_table.cache_info().misses == 1


def test_psi_table_matches_binomial_sum():
    for n in range(41):
        table = psi_table(n)
        assert len(table.pairs) == n and all(len(row) == n for row in table.pairs)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert table.pairs[i - 1][j - 1] == (psi_pair(i, j) if i < j else 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 300).flatmap(lambda j: st.tuples(st.integers(1, j - 1), st.just(j))))
def test_psi_table_pascal_recurrence(pair):
    i, j = pair
    value = psi_table(j).pair(i, j)
    assert value == psi_pair(i, j)
    if j > i + 1:
        assert value == 2 * psi_pair(i, j - 1) + binomial(i + j - 2, i - 1)
    else:
        assert value == binomial(2 * i - 1, i)


def test_pair_matrix_borders_psi_table():
    for size in range(34):
        w = _pair_matrix(size)
        assert len(w) == size + 1 and all(len(row) == size + 1 for row in w)
        for i in range(size + 1):
            assert w[i][i] == 0
            for j in range(i + 1, size + 1):
                expected = psi_single(j) if i == 0 else psi_pair(i, j)
                assert (w[i][j], w[j][i]) == (expected, -expected)


def test_pair_builders_make_no_psi_pair_call(monkeypatch):
    calls = []
    real = psi.psi_pair
    for module in (psi, multidegree):
        monkeypatch.setattr(module, "psi_pair", lambda i, j: calls.append((i, j)) or real(i, j), raising=False)
    psi_table.cache_clear()
    assert psi_table(150).pair(1, 150) == real(1, 150)
    assert _pair_matrix(30)[29][30] == real(29, 30)
    assert calls == []


def test_psi_seq_small_values():
    assert psi_seq(()) == 1
    assert psi_seq((1,)) == 1
    assert psi_seq((2,)) == 2
    assert psi_seq((2, 3)) == 3
    assert psi_seq((1, 2, 3)) == 1


def test_psi_seq_full_sequence_is_one():
    for n in range(1, 17):
        assert psi_seq(range(1, n + 1)) == 1


def test_psi_seq_accepts_subsequence_and_table():
    table = psi_table(6)
    assert psi_seq((2, 5), table) == psi_pair(2, 5)
    assert psi_seq((2, 5), table) == psi_seq((2, 5))
    with pytest.raises(ValueError):
        psi_seq((2, 7), table)
    with pytest.raises(ValueError):
        psi_seq((3, 2))


def test_psi_seq_matches_reference_pfaffian():
    # independent route: build the bordered pair matrix by hand and expand naively
    rng = random.Random(3)
    table = psi_table(10)
    for _ in range(60):
        size = rng.randint(0, 6)
        entries = tuple(sorted(rng.sample(range(1, 11), size)))
        r = len(entries)
        if r % 2 == 0:
            rows = SkewMatrix.from_upper(r, lambda k, l: psi_pair(entries[k], entries[l]))
        else:
            def upper(k, l):
                if k == 0:
                    return psi_single(entries[l - 1])
                return psi_pair(entries[k - 1], entries[l - 1])
            rows = SkewMatrix.from_upper(r + 1, upper)
        assert psi_seq(entries, table) == pfaffian_reference(rows)


def test_p_alpha_values():
    assert p_alpha((1,), 3) == psi_seq((2, 3)) == 3
    assert p_alpha((4,), 3) == 0
    assert p_alpha((), 0) == 1
    for n in range(1, 9):
        assert p_alpha((), n) == 1
    with pytest.raises(ValueError):
        p_alpha((1,), -1)


@pytest.mark.parametrize("alpha", [(1.5,), (1.0,), (1, 2.0), (Fraction(2),)])
def test_non_integer_indices_raise_type_error(alpha):
    # the complement of (1.5,) in {1, 2, 3} would be all of it, and 1.0 and
    # Fraction(2) would pass for 1 and 2
    with pytest.raises(TypeError):
        p_alpha(alpha, 3)
    with pytest.raises(TypeError):
        psi_seq(alpha, psi_table(3))


def test_p_alpha_counts_linear_sequence():
    # complement of {1} in {1..n} has psi equal to n
    for n in range(1, 10):
        assert p_alpha((1,), n) == n


def diffs(values):
    return [b - a for a, b in zip(values, values[1:])]


@pytest.mark.parametrize("alpha", [(1,), (2,), (1, 2), (3,), (1, 3), (1, 2, 3)])
def test_p_alpha_is_polynomial_of_degree_weight(alpha):
    d = sum(alpha)
    start = max(alpha)
    values = [p_alpha(alpha, n) for n in range(start, start + d + 13)]
    for _ in range(d):
        values = diffs(values)
    # degree is exactly the weight: constant nonzero d-th differences,
    # vanishing (d+1)-th differences
    assert values and all(v == values[0] for v in values)
    assert values[0] != 0
    assert all(v == 0 for v in diffs(values))
