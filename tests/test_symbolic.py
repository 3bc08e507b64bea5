import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import invdeg.symbolic as symbolic
from invdeg.cli import main
from invdeg.exact import InvariantViolation
from invdeg.symbolic import (
    RationalSymMatrix,
    SparsePoly,
    SymbolicMatrix,
    VarId,
    adjugate,
    adjugate_identity_holds,
    adjugate_identity_numeric,
    adjugate_sym,
    det_sym,
    determinant,
    generic_sym_matrix,
    graph_ideal_generators,
    mat_mul,
    matrix_rank,
    product_entries,
    product_matrix,
    spans_product_entries,
    sparse_rank,
    swap_sides,
    swap_symmetry_holds,
    verify_graph_vanishing,
    witness_pair_valid,
    witness_rank_pair,
    xvar,
    yvar,
)


def det_fraction(rows):
    """Independent determinant oracle: Gaussian elimination over Fraction."""
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


def var(v):
    return SparsePoly.variable(v)


# -------------------------------------------------------------------- variables

def test_var_factories_normalize():
    assert xvar(2, 1) == xvar(1, 2)
    assert yvar(3, 1).row == 1 and yvar(3, 1).col == 3
    assert xvar(1, 2).kind == "X" and yvar(1, 2).kind == "Y"
    assert str(xvar(1, 2)) == "X[1,2]"
    with pytest.raises(ValueError):
        xvar(0, 1)


# ------------------------------------------------------------------- SparsePoly

def test_poly_arithmetic_identities():
    x = var(xvar(1, 1))
    assert (x + 1) * (x - 1) == x * x - 1
    assert x - x == SparsePoly.zero()
    assert (x - x).is_zero
    assert 2 * x + x == 3 * x
    assert x * 0 == 0
    assert (x + 2) ** 2 == x * x + 4 * x + 4
    assert -(x - 1) == 1 - x


def test_poly_scalar_equality():
    assert SparsePoly.constant(5) == 5
    assert SparsePoly.zero() == 0
    assert SparsePoly.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert var(xvar(1, 1)) != 1


def test_poly_bidegree():
    g = var(xvar(1, 1)) * var(yvar(1, 2))
    assert g.bidegree() == (1, 1)
    assert (var(xvar(1, 1)) * var(xvar(1, 2))).bidegree() == (2, 0)
    with pytest.raises(ValueError):
        (var(xvar(1, 1)) + var(yvar(1, 1))).bidegree()
    with pytest.raises(ValueError):
        SparsePoly.zero().bidegree()


def test_poly_substitute_scalars():
    p = var(xvar(1, 1)) * var(yvar(1, 1)) + 1
    assert p.evaluate({xvar(1, 1): 2, yvar(1, 1): 3}) == 7
    assert p.substitute({xvar(1, 1): 2, yvar(1, 1): 3}) == 7


def test_poly_substitute_polynomials():
    x, y = var(xvar(1, 1)), var(yvar(1, 1))
    p = x * x - y
    q = p.substitute({xvar(1, 1): y + 1, yvar(1, 1): y})
    assert q == y * y + y + 1


def test_poly_substitute_missing_variable():
    p = var(xvar(1, 1)) + var(yvar(1, 1))
    with pytest.raises(ValueError, match="missing variable in substitution"):
        p.evaluate({xvar(1, 1): 1})
    with pytest.raises(ValueError, match="missing variable in substitution"):
        p.substitute({xvar(1, 1): 1})


def test_poly_sign_normalized_and_str():
    x = var(xvar(1, 1))
    p = -3 * x + 1
    assert p.sign_normalized() == 3 * x - 1
    assert str(SparsePoly.zero()) == "0"
    assert str(2 * x * x) == "2*X[1,1]^2"


# Repeated X and Y variables, so that products raise powers and swapping
# exchanges monomials of different shapes.
POLY_VARS = (xvar(1, 1), xvar(1, 2), xvar(2, 2), yvar(1, 1), yvar(1, 2))


@st.composite
def poly_specs(draw):
    """A polynomial as (coefficient, factor list) terms, factors may repeat."""
    term = st.tuples(st.integers(-5, 5), st.lists(st.sampled_from(POLY_VARS), max_size=4))
    return draw(st.lists(term, max_size=5))


def poly_from(spec):
    out = SparsePoly.zero()
    for c, factors in spec:
        t = SparsePoly.constant(c)
        for v in factors:
            t = t * var(v)
        out = out + t
    return out


def value_of(spec, point):
    total = 0
    for c, factors in spec:
        t = c
        for v in factors:
            t *= point[v]
        total += t
    return total


@settings(max_examples=150, deadline=None)
@given(poly_specs(), poly_specs(), st.integers(0, 3),
       st.lists(st.integers(-4, 4), min_size=len(POLY_VARS), max_size=len(POLY_VARS)))
def test_poly_ring_ops_match_evaluation(a_spec, b_spec, e, values):
    point = dict(zip(POLY_VARS, values))
    a, b = poly_from(a_spec), poly_from(b_spec)
    va, vb = value_of(a_spec, point), value_of(b_spec, point)
    assert a.evaluate(point) == va
    assert (a + b).evaluate(point) == va + vb
    assert (a - b).evaluate(point) == va - vb
    assert (a * b).evaluate(point) == va * vb
    assert (a ** e).evaluate(point) == va ** e
    assert a.substitute(point) == va
    assert swap_sides(swap_sides(a)) == a
    flipped = {VarId("Y" if v.kind == "X" else "X", v.row, v.col): x for v, x in point.items()}
    assert swap_sides(a).evaluate(flipped) == va


# sha256 of str() of every generator and then every product entry, one per
# line, recorded before the monomial format changed.
GENERATOR_STR_SHA256 = {
    1: "33bec54918c06afbecb8f9003b3ce19c6571e5b37bc61689379e807bfcc71e13",
    2: "7f57fd5e856983027b5d86e4652fc59f94f6b5646d7b0d47b6cefc1f45f3a037",
    3: "8cbaf1ffba7ce2f87d6c84415e8330d04b7ae63940a08c70caf0447ec25bfa83",
    4: "070bd04774a23940ffc6658551b9be973d54d1525abb3d96847294340a7dfbe6",
    5: "654847dc74205ac4b7555752fbc23b7924c7e967f8bc440f3e6feb0c5109a734",
}


def test_generator_strings_are_pinned():
    for n, digest in GENERATOR_STR_SHA256.items():
        text = "\n".join(str(p) for p in graph_ideal_generators(n) + product_entries(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


# ----------------------------------------------------------------- determinants

def test_determinant_small():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2


def test_determinant_matches_elimination():
    rng = random.Random(4)
    for size in range(1, 7):
        for _ in range(8):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            assert determinant(rows) == det_fraction(rows)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2], [3, 4], [5, 6]])


def test_det_sym_generic_2x2():
    x = generic_sym_matrix(2, "X")
    det = det_sym(x)
    expected = var(xvar(1, 1)) * var(xvar(2, 2)) - var(xvar(1, 2)) * var(xvar(1, 2))
    assert det == expected


def test_adjugate_small():
    assert adjugate([[5]]) == [[1]]
    assert adjugate([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]


def test_adjugate_rank_deficient():
    # rank n - 1: the adjugate is nonzero of rank 1 and A * adj(A) = 0
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    adj = adjugate(rows)
    assert adj == [[-3, 6, -3], [6, -12, 6], [-3, 6, -3]]
    assert matrix_rank(adj) == 1
    assert all(sum(rows[i][k] * adj[k][j] for k in range(3)) == 0 for i in range(3) for j in range(3))
    assert symbolic._eliminate(rows) == (2, 0, None)


def test_adjugate_identity_numeric_random():
    rng = random.Random(5)
    for size in range(1, 6):
        for _ in range(5):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            adj = adjugate(rows)
            det = determinant(rows)
            for i in range(size):
                for j in range(size):
                    got = sum(rows[i][k] * adj[k][j] for k in range(size))
                    assert got == (det if i == j else 0)


# Mostly zeros, so that pivot swaps and singular matrices are common.
sparse_entries = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def square_matrices(draw):
    size = draw(st.integers(0, 7))
    return [draw(st.lists(sparse_entries, min_size=size, max_size=size)) for _ in range(size)]


@st.composite
def rational_matrices(draw):
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entry = st.builds(Fraction, sparse_entries, st.sampled_from([1, 1, 2, 3]))
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


def sparse_rows(rows):
    return [{c: x for c, x in enumerate(row)} for row in rows]


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_eliminate_matches_subset_dp(rows):
    rank, det, adj = symbolic._eliminate(rows)
    assert rank == sparse_rank(sparse_rows(rows))
    assert det == determinant(rows) == det_fraction(rows)
    assert adj == (adjugate(rows) if det else None)
    assert all(type(v) is int for v in [det] + [x for row in adj or [] for x in row])


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_eliminate_rational_and_rectangular(rows):
    rank, det, adj = symbolic._eliminate(rows)
    assert rank == matrix_rank(rows) == sparse_rank(sparse_rows(rows))
    if len(rows) != len(rows[0] if rows else []) or rank < len(rows):
        assert (det, adj) == (0, None)
    else:
        assert det == det_fraction(rows)
        assert adj == adjugate(rows)


def test_numeric_checks_never_reach_subset_dp(monkeypatch, capsys):
    def numeric_guard(fn):
        def guarded(rows):
            if any(isinstance(x, (int, Fraction)) for row in rows for x in row):
                raise AssertionError(f"{fn.__name__} called with numeric entries")
            return fn(rows)
        return guarded

    monkeypatch.setattr(symbolic, "determinant", numeric_guard(determinant))
    monkeypatch.setattr(symbolic, "adjugate", numeric_guard(adjugate))
    assert verify_graph_vanishing(5, mode="numeric", trials=5, seed=3).trials == 5
    assert adjugate_identity_numeric(5, trials=5, seed=3)
    assert main(["verify", "--n", "4", "--mode", "numeric", "--trials", "3", "--format", "csv"]) == 0
    assert "fail" not in capsys.readouterr().out


def test_adjugate_identity_symbolic():
    for n in range(1, 5):
        assert adjugate_identity_holds(n)


def test_adjugate_identity_checks_the_given_adjugate():
    n = 3
    adj = adjugate_sym(generic_sym_matrix(n, "X"))
    assert adjugate_identity_holds(n, adj)
    zero = SymbolicMatrix(n, tuple(tuple(SparsePoly.zero() for _ in range(n)) for _ in range(n)))
    assert not adjugate_identity_holds(n, zero)
    assert verify_graph_vanishing(n, mode="symbolic", adj_x=adj).generators == len(graph_ideal_generators(n))
    with pytest.raises(InvariantViolation, match="does not vanish"):
        verify_graph_vanishing(n, mode="symbolic", adj_x=generic_sym_matrix(n, "X"))


def test_symbolic_verify_builds_one_adjugate(capsys, monkeypatch):
    calls = {"adjugate": 0, "det_sym": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(symbolic, "adjugate", counted("adjugate", adjugate))
    monkeypatch.setattr(symbolic, "det_sym", counted("det_sym", det_sym))
    assert main(["verify", "--n", "4", "--format", "csv"]) == 0
    assert "fail" not in capsys.readouterr().out
    assert calls == {"adjugate": 1, "det_sym": 1}


def test_adjugate_identity_numeric_checker():
    assert adjugate_identity_numeric(5, trials=5, seed=9)


# ----------------------------------------------------------------- matrices

def test_generic_sym_matrix_shape():
    x = generic_sym_matrix(3, "X")
    assert x.entries[0][2] == x.entries[2][0] == var(xvar(1, 3))
    with pytest.raises(ValueError):
        generic_sym_matrix(3, "Z")
    with pytest.raises(ValueError):
        generic_sym_matrix(0, "X")


def test_mat_mul_shape_and_values():
    x = generic_sym_matrix(2, "X")
    y = generic_sym_matrix(2, "Y")
    prod = mat_mul(x, y)
    assert prod.entries[0][1] == var(xvar(1, 1)) * var(yvar(1, 2)) + var(xvar(1, 2)) * var(yvar(2, 2))
    with pytest.raises(ValueError):
        mat_mul(x, generic_sym_matrix(3, "Y"))
    with pytest.raises(ValueError):
        SymbolicMatrix(2, (tuple([SparsePoly.zero()]),))


# ---------------------------------------------------------------- generators

def test_generator_counts():
    assert graph_ideal_generators(1) == []
    assert len(graph_ideal_generators(2)) == 3
    assert len(graph_ideal_generators(3)) == 8
    assert len(graph_ideal_generators(5)) == 24
    assert len(product_entries(3)) == 9


def test_generators_n2_exact():
    x11, x12, x22 = var(xvar(1, 1)), var(xvar(1, 2)), var(xvar(2, 2))
    y11, y12, y22 = var(yvar(1, 1)), var(yvar(1, 2)), var(yvar(2, 2))
    gens = graph_ideal_generators(2)
    assert gens[0] == x11 * y12 + x12 * y22
    assert gens[1] == x12 * y11 + x22 * y12
    assert gens[2] == x11 * y11 - x22 * y22


def test_generators_bidegree():
    for n in range(2, 7):
        for g in graph_ideal_generators(n):
            assert g.bidegree() == (1, 1)
        for p in product_entries(n):
            assert p.bidegree() == (1, 1)


def test_diagonal_differences_span_all_pairs():
    # consecutive differences are a basis choice; they must span every pairwise one
    for n in range(2, 7):
        prod = product_matrix(n).entries
        consecutive = [(prod[i][i] - prod[i + 1][i + 1]).terms for i in range(n - 1)]
        all_pairs = [(prod[i][i] - prod[j][j]).terms for i, j in combinations(range(n), 2)]
        assert sparse_rank(consecutive) == n - 1
        assert sparse_rank(consecutive + all_pairs) == n - 1


def test_sparse_rank_basics():
    assert sparse_rank([]) == 0
    assert sparse_rank([{"a": 1}, {"a": 2}]) == 1
    assert sparse_rank([{"a": 1, "b": 1}, {"b": 1}, {"a": 1}]) == 2


def test_swap_sides_and_symmetry():
    g = var(xvar(1, 1)) * var(yvar(1, 2))
    assert swap_sides(g) == var(yvar(1, 1)) * var(xvar(1, 2))
    for n in range(1, 7):
        assert swap_symmetry_holds(n)


def test_spans_product_entries():
    for n in range(1, 6):
        assert spans_product_entries(n)


def test_span_check_builds_one_product(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return product_matrix(n)

    monkeypatch.setattr(symbolic, "product_matrix", counted)
    assert spans_product_entries(4)
    assert calls == [4]


# ------------------------------------------------------------ graph vanishing

def test_graph_vanishing_symbolic():
    for n in range(1, 5):
        rep = verify_graph_vanishing(n, mode="symbolic")
        assert rep.mode == "symbolic"
        assert rep.generators == len(graph_ideal_generators(n))
        assert rep.trials == 0


def test_graph_vanishing_symbolic_cap():
    with pytest.raises(ValueError, match="capped"):
        verify_graph_vanishing(5, mode="symbolic")
    rep = verify_graph_vanishing(5, mode="symbolic", symbolic_cap=5)
    assert rep.generators == 24


def test_graph_vanishing_numeric():
    for n in (5, 6):
        rep = verify_graph_vanishing(n, mode="numeric", trials=5, seed=11)
        assert rep.mode == "numeric" and rep.trials == 5


def test_graph_vanishing_bad_arguments():
    with pytest.raises(ValueError):
        verify_graph_vanishing(3, mode="fuzzy")
    with pytest.raises(ValueError):
        verify_graph_vanishing(3, mode="numeric", trials=0)


def test_graph_vanishing_detects_nonmember(monkeypatch):
    # a constant can never vanish under either mode
    monkeypatch.setattr(symbolic, "graph_ideal_generators", lambda n: [SparsePoly.constant(1)])
    with pytest.raises(InvariantViolation, match="does not vanish"):
        verify_graph_vanishing(2, mode="symbolic")
    with pytest.raises(InvariantViolation, match="does not vanish"):
        verify_graph_vanishing(2, mode="numeric", trials=2, seed=0)


# ----------------------------------------------------------------- witnesses

def test_matrix_rank_examples():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert matrix_rank([]) == 0
    assert matrix_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert matrix_rank([[0], [Fraction(2, 3)], [1]]) == 1


def test_rational_sym_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        RationalSymMatrix.from_rows([[0, 1], [2, 0]])
    m = RationalSymMatrix.from_rows([[1, 2], [2, 3]])
    assert m.rank() == 2


def test_witness_extreme_ranks():
    m, w = witness_rank_pair(3, 0, seed=5)
    assert m.rank() == 0 and w.rank() == 3
    assert all(v == 0 for row in m.rows for v in row)
    m, w = witness_rank_pair(3, 3, seed=5)
    assert m.rank() == 3 and w.rank() == 0


def test_witness_rank_one_minors_vanish():
    m, w = witness_rank_pair(3, 1, seed=7)
    assert m.rank() == 1 and w.rank() == 2
    rows = m.rows
    for r1, r2 in combinations(range(3), 2):
        for c1, c2 in combinations(range(3), 2):
            assert rows[r1][c1] * rows[r2][c2] - rows[r1][c2] * rows[r2][c1] == 0
    assignment = {}
    for i in range(3):
        for j in range(i, 3):
            assignment[xvar(i + 1, j + 1)] = m.rows[i][j]
            assignment[yvar(i + 1, j + 1)] = w.rows[i][j]
    assert all(g.evaluate(assignment) == 0 for g in product_entries(3))


def test_witness_sweep_small():
    for n in range(1, 5):
        for r in range(n + 1):
            for seed in (0, 1):
                assert witness_pair_valid(n, r, seed)


@pytest.mark.parametrize("m, w, valid", [
    ([[1, 0], [0, 0]], [[0, 0], [0, 1]], True),
    ([[1, 1], [0, 0]], [[1, -1], [-1, 1]], False),  # M is not symmetric
    ([[1, 0], [0, 0]], [[0, 0], [1, 1]], False),  # N is not symmetric
    ([[1, 0], [0, 0]], [[1, 0], [0, 0]], False),  # M N != 0
    ([[0, 0], [0, 0]], [[1, 0], [0, 0]], False),  # rank M = 0
    ([[1, 0], [0, 0]], [[0, 0], [0, 0]], False),  # rank N = 0
])
def test_witness_verdict(monkeypatch, m, w, valid):
    # each invalid pair breaks one condition of the verdict and keeps the rest
    monkeypatch.setattr(symbolic, "_witness_rows", lambda n, r, seed: (m, w, 1))
    assert witness_pair_valid(2, 1) is valid


def test_witness_deterministic_in_seed():
    a = witness_rank_pair(4, 2, seed=123)
    b = witness_rank_pair(4, 2, seed=123)
    assert a == b
    c = witness_rank_pair(4, 2, seed=124)
    assert a != c


# sha256 over repr((r, seed, M.rows, N.rows)) for every r and seeds 0..5,
# one per line, recorded when the witnesses were built in Fraction arithmetic.
WITNESS_SHA256 = {
    1: "69d85af272e4b6113da9d8f7cfdc9d4a10707cb207051be2b4894bc795f72bc0",
    2: "2c45c9eefbebc7442dc56f23999b8f87dd82bcc5b5a480d69fc0baf96d049bf5",
    3: "21cadb320403bf81538015861f201efc950637b04fdd64818540c1db808ffbb0",
    4: "fccfe277f5fd80594f22c18369121cf8d1b9ae1607522f803d6b4e7077d516e4",
    5: "453849c4c30be15eac1ecb964d3ef6b2838c5603546519b20e0becf8bdbc5624",
    6: "478babae9719c973d484153e1c743833f2cdd5cdac162103d5baf937effa69e4",
    7: "a067c764c7109ea4937c1e982002075b4c29aa09db73607f1b475ee7cfb83ebd",
    8: "06f12837f4a30a1f933b0e31004e679b7357002ea6de60ccdfbcb89d3738f225",
}


def test_witness_pairs_are_pinned():
    for n, digest in WITNESS_SHA256.items():
        lines = []
        for r in range(n + 1):
            for seed in range(6):
                m, w = witness_rank_pair(n, r, seed)
                lines.append(repr((r, seed, m.rows, w.rows)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, n


def test_witness_validation():
    with pytest.raises(ValueError):
        witness_rank_pair(0, 0)
    with pytest.raises(ValueError, match="rank r out of range"):
        witness_rank_pair(3, 4)
    with pytest.raises(ValueError, match="rank r out of range"):
        witness_rank_pair(3, -1)
