import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from invdeg.exact import (
    InvariantViolation,
    SkewMatrix,
    _closed_leading_pfaffians,
    _eliminate,
    _rank_mod,
    binomial,
    leading_pfaffians,
    matrix_rank,
    pfaffian,
    pfaffian_reference,
)


def det_fraction(rows):
    """Independent determinant oracle: plain Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    k = len(a)
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, k):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, k):
                    a[r][c] -= f * a[col][c]
    return det


def random_skew(rng, size, bound=30):
    return SkewMatrix.from_upper(size, lambda i, j: rng.randint(-bound, bound))


# ----------------------------------------------------------------------- binomial

def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(4, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0


def test_binomial_negative_a_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_stdlib_grid():
    for a in range(0, 30):
        for b in range(0, a + 1):
            assert binomial(a, b) == comb(a, b)


@given(st.integers(0, 300), st.integers(-10, 310))
def test_binomial_pascal_rule(a, b):
    if a >= 1:
        assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


@given(st.integers(0, 200), st.integers(0, 200))
def test_binomial_symmetry(a, b):
    assert binomial(a, b) == binomial(a, a - b)


# --------------------------------------------------------------------- SkewMatrix

def test_skew_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        SkewMatrix([[0, 1], [-1, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        SkewMatrix([[0, 1]])


def test_skew_matrix_rejects_non_antisymmetric():
    with pytest.raises(ValueError, match="antisymmetric"):
        SkewMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="antisymmetric"):
        SkewMatrix([[1, 1], [-1, 0]])


def test_skew_matrix_from_upper():
    m = SkewMatrix.from_upper(3, lambda i, j: 10 * i + j)
    assert m.rows == ((0, 1, 2), (-1, 0, 12), (-2, -12, 0))
    assert m.size == 3


@pytest.mark.parametrize("x", [1.5, 1.0, Fraction(1, 2), Fraction(2, 1)])
def test_skew_matrix_rejects_non_integers_on_every_path(x):
    # int(x) would truncate 1.5 to 1 and 1/2 to 0, and the Pfaffian would be wrong
    rows = [[0, x], [-x, 0]]
    good = SkewMatrix(((0, 1), (-1, 0)))
    for build in (
        lambda: pfaffian(rows),
        lambda: SkewMatrix.from_upper(2, lambda i, j: x),
        lambda: SkewMatrix(rows),
        lambda: SkewMatrix._make([rows]),
        lambda: good._replace(rows=rows),
    ):
        with pytest.raises(TypeError):
            build()


# ----------------------------------------------------------------------- pfaffian

def test_pfaffian_empty_matrix():
    assert pfaffian([]) == 1
    assert pfaffian_reference([]) == 1


def test_pfaffian_2x2():
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    assert pfaffian([[0, -7], [7, 0]]) == -7


def test_pfaffian_4x4_worked_example():
    rows = [[0, 1, 2, 4], [-1, 0, 1, 3], [-2, -1, 0, 3], [-4, -3, -3, 0]]
    # expansion along the first row: 1*3 - 2*3 + 4*1 = 1
    assert pfaffian(rows) == 1
    assert pfaffian_reference(rows) == 1


def test_pfaffian_odd_size_rejected():
    rows = [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]
    with pytest.raises(ValueError, match="pfaffian requires even dimension"):
        pfaffian(rows)
    with pytest.raises(ValueError, match="pfaffian requires even dimension"):
        pfaffian_reference(rows)


def test_pfaffian_zero_and_block_diagonal():
    assert pfaffian([[0] * 4 for _ in range(4)]) == 0
    rows = [[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]]
    assert pfaffian(rows) == 3 * -2


def test_pfaffian_matches_reference_random():
    rng = random.Random(0)
    for size in (2, 4, 6, 8):
        for _ in range(20):
            m = random_skew(rng, size)
            assert pfaffian(m) == pfaffian_reference(m)


def test_pfaffian_squares_to_determinant():
    rng = random.Random(1)
    for size in (2, 4, 6, 8):
        for _ in range(10):
            m = random_skew(rng, size)
            assert Fraction(pfaffian(m)) ** 2 == det_fraction(m.rows)


def test_pfaffian_row_column_swap_negates():
    rng = random.Random(2)
    for size in (4, 6):
        for _ in range(10):
            m = random_skew(rng, size)
            i, j = rng.sample(range(size), 2)
            rows = [list(r) for r in m.rows]
            rows[i], rows[j] = rows[j], rows[i]
            for r in rows:
                r[i], r[j] = r[j], r[i]
            assert pfaffian(rows) == -pfaffian(m)


@st.composite
def skew_matrices(draw):
    half = draw(st.integers(0, 4))
    size = 2 * half
    count = size * (size - 1) // 2
    vals = draw(st.lists(st.integers(-40, 40), min_size=count, max_size=count))
    it = iter(vals)
    return SkewMatrix.from_upper(size, lambda i, j: next(it))


@given(skew_matrices())
def test_pfaffian_agrees_with_reference(m):
    assert pfaffian(m) == pfaffian_reference(m)


@given(skew_matrices())
def test_pfaffian_square_is_determinant(m):
    assert Fraction(pfaffian(m)) ** 2 == det_fraction(m.rows)


@st.composite
def sparse_skew_rows(draw):
    """Even-size skew rows with many zeros, so zero pivots, index swaps and
    singular matrices all occur."""
    size = 2 * draw(st.integers(0, 5))
    count = size * (size - 1) // 2
    vals = iter(draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=count, max_size=count)))
    return [list(row) for row in SkewMatrix.from_upper(size, lambda i, j: next(vals)).rows]


@given(sparse_skew_rows())
def test_pfaffian_kernel_differential_sparse(rows):
    expected = pfaffian_reference(rows)
    for arg in (rows, SkewMatrix(rows)):
        got = pfaffian(arg)
        assert type(got) is int
        assert got == expected


@given(st.one_of(skew_matrices(), sparse_skew_rows()))
def test_leading_pfaffians_are_the_pfaffians_of_the_leading_blocks(m):
    rows = m.rows if isinstance(m, SkewMatrix) else m
    blocks = [pfaffian([row[:size] for row in rows[:size]]) for size in range(2, len(rows) + 1, 2)]
    if all(blocks):
        got = leading_pfaffians(m)
        assert got == blocks
        assert all(type(v) is int for v in got)
        assert (got[-1] if got else 1) == pfaffian(m)
    else:
        with pytest.raises(InvariantViolation, match="leading principal Pfaffian"):
            leading_pfaffians(m)


@st.composite
def skew_matrices_of_any_size(draw):
    size = draw(st.integers(1, 9))
    vals = iter(draw(st.lists(st.integers(-9, 9), min_size=size * (size - 1) // 2, max_size=size * (size - 1) // 2)))
    return SkewMatrix.from_upper(size, lambda i, j: next(vals))


@given(skew_matrices_of_any_size())
def test_closed_leading_pfaffians_close_each_odd_block_by_the_last_index(m):
    z = m.size - 1
    blocks = []
    for j in range(1, m.size):
        idx = [*range(j), z] if j % 2 else list(range(j))
        blocks.append(pfaffian_reference([[m.rows[p][q] for q in idx] for p in idx]))
    if all(blocks[1::2]):  # the even blocks are the pivots
        assert _closed_leading_pfaffians(m) == blocks
    else:
        with pytest.raises(InvariantViolation, match="leading principal Pfaffian"):
            _closed_leading_pfaffians(m)


def test_leading_pfaffians_examples():
    assert leading_pfaffians([]) == []
    assert leading_pfaffians([[0, 3], [-3, 0]]) == [3]
    # Pf of the 4 x 4 block is a01 a23 - a02 a13 + a03 a12 = 1*1 - 2*3 + 4*5 = 15
    m = SkewMatrix.from_upper(4, lambda i, j: {(0, 1): 1, (0, 2): 2, (0, 3): 4, (1, 2): 5, (1, 3): 3, (2, 3): 1}[i, j])
    assert leading_pfaffians(m) == [1, 15] and pfaffian(m) == 15
    swapped = SkewMatrix.from_upper(4, lambda i, j: {(0, 1): 0, (0, 2): 2}.get((i, j), 1))
    assert pfaffian(swapped) == pfaffian_reference(swapped) == -1
    with pytest.raises(InvariantViolation, match="size 2 is zero"):
        leading_pfaffians(swapped)
    with pytest.raises(ValueError, match="even dimension"):
        leading_pfaffians([[0]])


def test_pfaffian_accepts_list_input_and_validates():
    with pytest.raises(ValueError, match="antisymmetric"):
        pfaffian([[0, 1], [2, 0]])
    assert isinstance(pfaffian([[0, 2], [-2, 0]]), int)


def test_invariant_violation_is_runtime_error():
    assert issubclass(InvariantViolation, RuntimeError)


# -------------------------------------------------------------------- elimination

def gauss_jordan_fraction(rows):
    """Independent (rank, det, adj) oracle: Gauss-Jordan on [A | I] over
    Fraction with unit pivots. det and adj = det * A^-1 are (0, None) unless
    A is square of full rank."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(nrows)] for i, row in enumerate(rows)]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    if rank != nrows or nrows != ncols:
        return rank, 0, None
    det = det_fraction(rows)
    return rank, det, [[det * x for x in row[ncols:]] for row in a]


@st.composite
def eliminable_matrices(draw):
    """Square and rectangular matrices of ints or of Fractions, with many
    zeros, so that row swaps and columns without a pivot occur, and often a
    last row that combines two others, so that square ones are singular."""
    nrows = draw(st.integers(0, 6))
    ncols = (nrows or 1) if draw(st.booleans()) else draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    if draw(st.booleans()):
        entry = st.builds(Fraction, entry, st.sampled_from([1, 2, 3, 4]))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=300, deadline=None)
@given(eliminable_matrices())
def test_eliminate_matches_fraction_gauss_jordan(rows):
    # _eliminate takes integers; rational rows reach it only through matrix_rank
    rank, det, adj = gauss_jordan_fraction(rows)
    assert matrix_rank(rows) == rank
    if all(type(x) is int for row in rows for x in row):
        got = _eliminate(rows)
        assert got == (rank, det, adj)
        assert all(type(v) is int for v in [got[1]] + [x for row in got[2] or [] for x in row])


@settings(max_examples=200, deadline=None)
@given(
    eliminable_matrices(),
    st.integers(-(10**30), 10**30).filter(bool),
    st.lists(st.sampled_from([1, -1, 2, 7, 10**12 + 39]), min_size=6, max_size=6),
)
def test_matrix_rank_of_high_content_rows_matches_gauss_jordan(rows, det, row_factors):
    # a witness holds det(A)^2 N: every entry shares the factor det^2, and
    # the rows here carry factors of their own on top of it
    scale = det * det * lcm(*(x.denominator for row in rows for x in row))
    ints = [[int(x * scale) * f for x in row] for row, f in zip(rows, row_factors)]
    assert matrix_rank(ints) == _eliminate(ints)[0] == gauss_jordan_fraction(rows)[0]


def test_eliminate_columns_of_the_adjugate():
    rows = [[0, 2, 1], [3, 1, 0], [1, 0, 4]]  # the first pivot needs a row swap
    rank, det, adj = _eliminate(rows)
    assert (rank, det) == (3, -25)
    assert adj == [[4, -8, -1], [-12, -1, 3], [-1, 2, -6]]


def rank_mod_by_minors(rows, p):
    """Rank oracle over F_p: the size of the largest minor that is nonzero mod p."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                if det_fraction([[rows[i][j] for j in cs] for i in rs]) % p:
                    return k
    return 0


BIG_PRIME = 1_073_741_789


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_mod_matches_the_minors(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, BIG_PRIME]), label="p")
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 1, -1, 2, 3, -5, 7, 10, 21, BIG_PRIME, -2 * BIG_PRIME, BIG_PRIME + 1])
    rows = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    got = _rank_mod(rows, p)
    assert got == rank_mod_by_minors(rows, p)
    assert got <= matrix_rank(rows)


def test_rank_mod_examples():
    assert _rank_mod([], 7) == 0
    assert _rank_mod([[7, 0], [0, 1]], 7) == 1
    assert _rank_mod([[1, 2], [3, 4]], 2) == 1  # det -2
    assert _rank_mod([[1, 2], [3, 4]], 3) == 2
    assert _rank_mod([[0, 0, 5], [0, 3, 1]], 7) == 2
