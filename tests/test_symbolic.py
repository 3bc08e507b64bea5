import hashlib
import random
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import invdeg.poly as poly
import invdeg.symbolic as symbolic
from invdeg.cli import main
from invdeg.exact import InvariantViolation, _eliminate, _rank_mod, matrix_rank
from invdeg.poly import (
    SparsePoly,
    SymbolicMatrix,
    VarId,
    det_sym,
    determinant,
    generic_sym_matrix,
    mat_mul,
    swap_sides,
    xvar,
    yvar,
)
from invdeg.symbolic import (
    PairChecks,
    RationalSymMatrix,
    adjugate,
    adjugate_identity_holds,
    adjugate_identity_numeric,
    adjugate_sym,
    graph_ideal_generators,
    product_entries,
    product_matrix,
    spans_product_entries,
    sparse_rank,
    swap_symmetry_holds,
    verify_graph_vanishing,
    witness_pair_valid,
    witness_rank_pair,
)
from oracles import InversePair, adjugate_from_det, exact_witness_verdict, inverse_pair, materialized_checks


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
    x = var(xvar(1, 1))
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == SparsePoly({1: Fraction(1, 2)})
    assert str(x * Fraction(3, 2) - x) == "1/2*X[1,1]"
    assert x * Fraction(0) == 0
    assert (x == "X[1,1]") is False


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


@lru_cache(maxsize=None)
def var_power(v, e):
    return var(v) ** e


def poly_from(spec):
    out = SparsePoly.zero()
    for c, factors in spec:
        t = SparsePoly.constant(c)
        for v, e in Counter(factors).items():
            t = t * var_power(v, e)
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


def term_powers(spec):
    """Reference model of a spec: {sorted (variable, power) pairs: coefficient}, zeros dropped."""
    out = {}
    for c, factors in spec:
        key = tuple(sorted(Counter(factors).items()))
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def max_power(spec):
    return max((p for key in term_powers(spec) for _, p in key), default=0)


def product_overflows(a_spec, b_spec):
    """Some pair of surviving terms multiplies to a power of 2^7 or more."""
    for ka in term_powers(a_spec):
        for kb in term_powers(b_spec):
            total = Counter(dict(ka))
            total.update(dict(kb))
            if max(total.values(), default=0) >= 128:
                return True
    return False


# Exponents near the 2^7 limit of a packed field: lifting a's terms by one
# variable up to 127 makes products and powers cross the limit.
LIFTS = st.tuples(st.sampled_from(POLY_VARS), st.sampled_from([0, 0, 0, 1, 40, 63, 64, 65, 100, 126, 127]))


@settings(max_examples=150, deadline=None)
@given(poly_specs(), poly_specs(), st.integers(0, 3),
       st.lists(st.integers(-4, 4), min_size=len(POLY_VARS), max_size=len(POLY_VARS)), LIFTS)
def test_poly_ring_ops_match_evaluation(a_spec, b_spec, e, values, lift):
    lifted, h = lift
    a_spec = [(c, factors + [lifted] * min(h, 127 - factors.count(lifted))) for c, factors in a_spec]
    point = dict(zip(POLY_VARS, values))
    a, b = poly_from(a_spec), poly_from(b_spec)
    va, vb = value_of(a_spec, point), value_of(b_spec, point)
    assert a.evaluate(point) == va
    assert (a + b).evaluate(point) == va + vb
    assert (a - b).evaluate(point) == va - vb
    if product_overflows(a_spec, b_spec):
        with pytest.raises(ValueError, match=r"2\^7"):
            a * b
    else:
        assert (a * b).evaluate(point) == va * vb
    # a ** e multiplies a^(e-1) by a; the leading terms survive, so it
    # raises exactly when e times the top power reaches 2^7
    if e * max_power(a_spec) >= 128:
        with pytest.raises(ValueError, match=r"2\^7"):
            a ** e
    else:
        assert (a ** e).evaluate(point) == va ** e
    assert a.substitute(point) == va
    assert swap_sides(swap_sides(a)) == a
    flipped = {VarId("Y" if v.kind == "X" else "X", v.row, v.col): x for v, x in point.items()}
    assert swap_sides(a).evaluate(flipped) == va


def one_by_one(p):
    return SymbolicMatrix(1, ((p,),))


def diagonal(p, k):
    return SymbolicMatrix(k, tuple(tuple(p if i == j else SparsePoly() for j in range(k)) for i in range(k)))


def test_exponent_overflow_raises_and_spares_neighbours():
    x, y = var(xvar(1, 1)), var(yvar(1, 1))  # neighbouring fields
    top = x ** 127 * y ** 127
    assert str(top) == "X[1,1]^127*Y[1,1]^127"
    assert top.bidegree() == (127, 127)
    assert top.evaluate({xvar(1, 1): 2, yvar(1, 1): 3}) == 6 ** 127
    assert str(swap_sides(x ** 127 * y)) == "X[1,1]*Y[1,1]^127"
    x42, x43, x63, x64 = x ** 42, x ** 43, x ** 63, x ** 64
    x63y, x64y = x63 * y ** 5, x64 * y ** 5
    # products up to 2^7 - 1 are exact, whether or not an operand field reaches 2^6
    for op, want in (
        (lambda: x63 * x63y, "X[1,1]^126*Y[1,1]^5"),
        (lambda: mat_mul(one_by_one(x63y), one_by_one(x63)).entries[0][0], "X[1,1]^126*Y[1,1]^5"),
        (lambda: det_sym(diagonal(x63, 2)), "X[1,1]^126"),
        (lambda: det_sym(diagonal(x42, 3)), "X[1,1]^126"),
        (lambda: x64y * x63, "X[1,1]^127*Y[1,1]^5"),
        (lambda: x63 * x64y, "X[1,1]^127*Y[1,1]^5"),
        (lambda: mat_mul(one_by_one(x64y), one_by_one(x63)).entries[0][0], "X[1,1]^127*Y[1,1]^5"),
        (lambda: det_sym(SymbolicMatrix(2, ((x64y, x), (x, x63)))), "X[1,1]^127*Y[1,1]^5 - X[1,1]^2"),
        (lambda: (x * x * x).substitute({xvar(1, 1): y}), "Y[1,1]^3"),
        (lambda: (x ** 2).substitute({xvar(1, 1): x63}), "X[1,1]^126"),
    ):
        assert str(op()) == want
    # at 2^7 it raises, before the carry could reach Y[1,1]
    for overflow in (
        lambda: top * x,
        lambda: x * top,
        lambda: x ** 128,
        lambda: x64 * x64,
        lambda: x64y * x64,
        lambda: (x ** 100 + y) ** 2,
        lambda: (top + 1) * (y + 1),
        lambda: (x ** 127).substitute({xvar(1, 1): x * x}),
        # x^128 and x^192 come first: x^256 alone would carry into Y[1,1]
        lambda: (x ** 4).substitute({xvar(1, 1): x64}),
        lambda: det_sym(SymbolicMatrix(2, ((top, x), (x, y)))),
        lambda: det_sym(diagonal(x64y, 2)),
        lambda: det_sym(diagonal(x43, 3)),
        # every minor is checked: x^300 alone would carry past the level-2 x^200
        lambda: det_sym(diagonal(x ** 100, 3)),
        lambda: mat_mul(one_by_one(top), one_by_one(x)),
        lambda: mat_mul(one_by_one(x64y), one_by_one(x64)),
    ):
        with pytest.raises(ValueError, match=r"2\^7"):
            overflow()
    assert str(top) == "X[1,1]^127*Y[1,1]^127"
    assert str(x64y) == "X[1,1]^64*Y[1,1]^5"
    assert x ** 126 * x == x ** 127
    assert str(x ** 127 * var(xvar(1, 2)) ** 127) == "X[1,1]^127*X[1,2]^127"


def test_sparse_poly_rejects_a_key_that_is_not_a_nonnegative_int():
    # _decode never ends on a negative key, so str() and variables() would hang
    for key in (-1, "a", 1.0):
        with pytest.raises(ValueError, match="nonnegative int"):
            SparsePoly({key: 1})


def test_sparse_poly_rejects_a_monomial_past_2_7():
    # X[1,1]^128 would print, and its square would carry into Y[1,1]
    with pytest.raises(ValueError, match=r"2\^7"):
        SparsePoly({0x80: 1})
    assert str(SparsePoly({0x7F: 1})) == "X[1,1]^127"


def test_sparse_poly_rejects_a_zero_coefficient():
    # the class keeps no zero coefficients, so equality with the zero polynomial holds
    with pytest.raises(ValueError, match="zero coefficient"):
        SparsePoly({5: 0})


def test_sparse_poly_keeps_a_copy_of_the_callers_dict():
    # a later change to the dict, even one that would fail the checks, does not reach the polynomial
    d = {1: 1}
    p = SparsePoly(d)
    d[0x80] = 1
    d[2] = 0
    assert str(p) == "X[1,1]" and p.terms == {1: 1}


def test_polynomials_are_read_only_so_the_kept_product_cannot_change():
    # product_matrix is cached: a write through a handed-out entry would reach every later check
    assert swap_symmetry_holds(3)
    with pytest.raises(TypeError):
        product_entries(3)[1].terms[5] = 1
    first = graph_ideal_generators(3)[0].terms
    with pytest.raises(TypeError):
        del first[next(iter(first))]
    assert swap_symmetry_holds(3) and spans_product_entries(3)
    assert symbolic.symbolic_checks(3) == PairChecks(8, None, True)


def test_a_cancelling_term_past_2_7_leaves_the_exact_sum():
    # (0,0) entry: x^128 - x^128; the check sees the finished entry only
    x64 = var(xvar(1, 1)) ** 64
    zero = SparsePoly()
    a = SymbolicMatrix(2, ((x64, x64), (zero, zero)))
    b = SymbolicMatrix(2, ((x64, zero), (-x64, zero)))
    assert mat_mul(a, b) == SymbolicMatrix(2, ((zero, zero), (zero, zero)))


def exponent_terms(spec):
    """Reference model of a spec with unbounded exponents: {exponent tuple
    over POLY_VARS: coefficient}, zeros dropped."""
    out = {}
    for c, factors in spec:
        key = tuple(factors.count(v) for v in POLY_VARS)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def exponent_sum(pairs):
    """The sum of the products of the reference models, pair by pair."""
    out = {}
    for a, b in pairs:
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple(map(sum, zip(ka, kb)))
                out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def assert_matches_reference(compute, models):
    """compute() lists the polynomials that the models describe: equal when
    every exponent is below 2^7, and ValueError exactly when one reaches it."""
    if any(e >= 128 for model in models for key in model for e in key):
        with pytest.raises(ValueError, match=r"2\^7"):
            compute()
    else:
        specs = [[(c, [v for v, e in zip(POLY_VARS, key) for _ in range(e)]) for key, c in m.items()] for m in models]
        assert compute() == [poly_from(spec) for spec in specs]


@st.composite
def lifted_matrices(draw, k):
    """A k x k matrix of specs, each entry's terms lifted by one variable
    toward 2^7, with every exponent below 2^7."""
    entries = []
    for _ in range(k * k):
        lifted, h = draw(LIFTS)
        spec = draw(poly_specs())
        entries.append([(c, factors + [lifted] * min(h, 127 - factors.count(lifted))) for c, factors in spec])
    return [entries[i * k:(i + 1) * k] for i in range(k)]


def symbolic_of(specs):
    return SymbolicMatrix(len(specs), tuple(tuple(poly_from(s) for s in row) for row in specs))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(lifted_matrices(k), lifted_matrices(k))))
def test_mat_mul_raises_exactly_when_an_entry_reaches_2_7(pair):
    a_specs, b_specs = pair
    k = len(a_specs)
    models = [
        exponent_sum([(exponent_terms(a_specs[i][t]), exponent_terms(b_specs[t][j])) for t in range(k)])
        for i in range(k) for j in range(k)
    ]
    a, b = symbolic_of(a_specs), symbolic_of(b_specs)
    assert_matches_reference(lambda: [e for row in mat_mul(a, b).entries for e in row], models)


@settings(max_examples=100, deadline=None)
@given(lifted_matrices(2))
def test_det_sym_raises_exactly_when_the_determinant_reaches_2_7(specs):
    (p, q), (r, s) = [[exponent_terms(e) for e in row] for row in specs]
    minus_r = {key: -c for key, c in r.items()}
    assert_matches_reference(lambda: [det_sym(symbolic_of(specs))], [exponent_sum([(p, s), (q, minus_r)])])


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


# sha256 of str(det_sym(X)) and of str() of every adjugate_sym(X) entry,
# row-major, one per line, for the generic symmetric X. Unlike the
# generators these print repeated variables, so they pin the order of
# powers in the decoded monomials. Recorded before monomials were packed.
DET_ADJ_STR_SHA256 = {
    1: ("e8e4b16d6412d34ab8ce76935db30dcb316d7dcf98b160d4c30d16396a9a5c32",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    2: ("e3995ddba216d74cad9c0b650dff87015194a69a50bc42332aeb531266b09d1a",
        "583053cccb3bd5c488907e83b4dfb31d4ea2dcf459f0f8f5f29250cec5909a6a"),
    3: ("df8379a4f3be9c143211cc75aeb0839c7e48e920e35db776ea3cfd421639a0c1",
        "e4b8f543cefd9376833da2c1e60b79f6ecc17feb1ec4c1f485ad03eeacbee48f"),
    4: ("709cacec5fddf5016dabb294379a5a52e7526da9f8b617a11ad25b588a4c8e49",
        "c1d7d24e91327819ae38b3816a0dfde3ffa4adf40c6516a3248fdf84ed46395f"),
    5: ("d9886a431ce4f6d2967c5b92de536af766bbd6ef87163e6529d2ec847cc1f12e",
        "c0c1435a1e1e718c7897027bf7f25592bba4f9d31a24d9be8ddf8f1d955d0217"),
}


def test_det_and_adjugate_strings_are_pinned():
    for n, (det_digest, adj_digest) in DET_ADJ_STR_SHA256.items():
        x = generic_sym_matrix(n, "X")
        adj = "\n".join(str(e) for row in adjugate_sym(x).entries for e in row)
        assert hashlib.sha256(str(det_sym(x)).encode()).hexdigest() == det_digest, n
        assert hashlib.sha256(adj.encode()).hexdigest() == adj_digest, n


# ----------------------------------------------------------------- determinants

def test_determinant_small():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2


def test_determinant_matches_elimination():
    # sizes 0..7, a repeated row now and then for a zero determinant
    rng = random.Random(4)
    for size in range(8):
        for _ in range(8):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            if size and rng.random() < 0.3:
                rows[-1] = list(rows[0])
            assert determinant(rows) == det_fraction(rows) == _eliminate(rows)[1], rows


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
    assert _eliminate(rows) == (2, 0, None)


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


def integer_rows(rows):
    """An int/Fraction matrix times the lcm of its denominators, as ints."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows]


def fraction_sparse_rank(vectors):
    """Rank oracle: Gaussian elimination of dict vectors over Fraction, the
    kernel ``sparse_rank`` used before it moved to integers."""
    basis = {}
    for vec in vectors:
        v = {k: Fraction(c) for k, c in vec.items() if c}
        while v:
            pivot = max(v)
            if pivot not in basis:
                basis[pivot] = v
                break
            other = basis[pivot]
            f = v[pivot] / other[pivot]
            for k, c in other.items():
                nc = v.get(k, 0) - f * c
                if nc:
                    v[k] = nc
                else:
                    v.pop(k, None)
    return len(basis)


@st.composite
def low_rank_matrices(draw):
    """A B for random nrows x r and r x ncols A, B: rank at most r, often less."""
    nrows, ncols, r = draw(st.integers(0, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 4))
    entry = st.builds(Fraction, sparse_entries, st.sampled_from([1, 1, 1, 2, 3]))
    a = [draw(st.lists(entry, min_size=r, max_size=r)) for _ in range(nrows)]
    b = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(r)]
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] or [0] * ncols for row in a]


@settings(max_examples=300, deadline=None)
@given(st.one_of(square_matrices(), rational_matrices(), low_rank_matrices()))
def test_forward_rank_matches_gauss_jordan_and_fractions(rows):
    # _eliminate takes integers: rational rows go through matrix_rank, and
    # both eliminations run on the rows scaled to integers
    ints = integer_rows(rows)
    forward, full = _eliminate(ints, False), _eliminate(ints)
    assert forward[0] == full[0] == matrix_rank(rows) == fraction_sparse_rank(sparse_rows(rows))
    assert forward[1] == full[1] and forward[2] is None


@st.composite
def sparse_vector_lists(draw):
    """Dict vectors with string keys and int or Fraction coefficients, plus
    rational combinations of them, so that dependent vectors are common."""
    coeff = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    vectors = draw(st.lists(st.dictionaries(st.sampled_from("abcdefg"), coeff, max_size=5), max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        combo: dict = {}
        for vec in vectors:
            f = draw(coeff)
            for k, c in vec.items():
                combo[k] = combo.get(k, 0) + f * c
        vectors.insert(draw(st.integers(0, len(vectors))), combo)
    return vectors


@settings(max_examples=300, deadline=None)
@given(sparse_vector_lists())
def test_integer_sparse_rank_matches_fraction_elimination(vectors):
    copies = [dict(v) for v in vectors]
    assert sparse_rank(vectors) == fraction_sparse_rank(vectors)
    assert vectors == copies  # the input vectors are not reduced in place


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_eliminate_matches_subset_dp(rows):
    rank, det, adj = _eliminate(rows)
    assert rank == sparse_rank(sparse_rows(rows))
    assert det == determinant(rows) == det_fraction(rows)
    assert adj == (adjugate(rows) if det else None)
    assert all(type(v) is int for v in [det] + [x for row in adj or [] for x in row])


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_eliminate_rational_and_rectangular(rows):
    # rational rows reach _eliminate only through matrix_rank; det and adj
    # are checked on the rows scaled to integers
    ints = integer_rows(rows)
    rank, det, adj = _eliminate(ints)
    assert rank == matrix_rank(rows) == sparse_rank(sparse_rows(rows))
    if len(rows) != len(rows[0] if rows else []) or rank < len(rows):
        assert (det, adj) == (0, None)
    else:
        assert det == det_fraction(ints)
        assert adj == adjugate(ints)


def test_numeric_checks_never_reach_subset_dp(monkeypatch, capsys):
    def numeric_guard(fn):
        def guarded(rows):
            if any(isinstance(x, (int, Fraction)) for row in rows for x in row):
                raise AssertionError(f"{fn.__name__} called with numeric entries")
            return fn(rows)
        return guarded

    monkeypatch.setattr(poly, "determinant", numeric_guard(determinant))  # the DP behind det_sym
    monkeypatch.setattr(symbolic, "determinant", numeric_guard(determinant))  # the one behind adjugate
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
    assert calls == {"adjugate": 0, "det_sym": 1}


def test_numeric_verify_draws_one_sample_per_trial(capsys, monkeypatch):
    draws = []
    draw = symbolic._invertible_symmetric
    monkeypatch.setattr(symbolic, "_invertible_symmetric", lambda rng, n: draws.append(n) or draw(rng, n))
    for threads in ("1", "2"):
        draws.clear()
        args = ["--threads", threads, "verify", "--n", "5", "--mode", "numeric", "--trials", "7", "--format", "csv"]
        assert main(args) == 0
        assert "fail" not in capsys.readouterr().out
        assert draws == [5] * 7


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_verify_builds_one_product_matrix(capsys, monkeypatch, mode):
    # every check asks product_matrix for X * Y, and it is multiplied out once
    calls = []
    monkeypatch.setattr(symbolic, "mat_mul", lambda a, b: calls.append(a.n) or mat_mul(a, b))
    product_matrix.cache_clear()
    assert main(["verify", "--n", "4", "--mode", mode, "--trials", "3", "--format", "csv"]) == 0
    assert "fail" not in capsys.readouterr().out
    assert calls == [4]


def test_adjugate_from_det_matches_the_minor_dp():
    for n in range(1, 7):
        pair = inverse_pair(n)
        assert pair.det == det_sym(pair.x)
        assert pair.adj == adjugate_sym(pair.x), n
        # the streamed columns are the columns of the whole adjugate
        columns = [list(column) for column in poly._adjugate_columns(n, pair.det.terms)]
        assert [[SparsePoly(columns[j][i]) for j in range(n)] for i in range(n)] == list(map(list, pair.adj.entries)), n
        if n in DET_ADJ_STR_SHA256:
            adj = "\n".join(str(e) for row in pair.adj.entries for e in row)
            assert hashlib.sha256(adj.encode()).hexdigest() == DET_ADJ_STR_SHA256[n][1], n


def test_adjugate_from_det_rejects_an_odd_derivative(monkeypatch, capsys):
    # d/dX[1,2] of X[1,1]*X[2,2] - X[1,2] is -1, which is not twice a cofactor
    f = var(xvar(1, 1)) * var(xvar(2, 2)) - var(xvar(1, 2))
    with pytest.raises(InvariantViolation, match=r"d det/d X\[1,2\] has an odd coefficient"):
        adjugate_from_det(2, f)
    with pytest.raises(InvariantViolation, match=r"d det/d X\[1,2\] has an odd coefficient"):
        [list(column) for column in poly._adjugate_columns(2, f.terms)]
    monkeypatch.setattr(symbolic, "det_sym", lambda a: f)
    with pytest.raises(InvariantViolation, match=r"d det/d X\[1,2\] has an odd coefficient"):
        symbolic.symbolic_checks(2)
    assert main(["verify", "--n", "2", "--mode", "symbolic", "--format", "csv"]) == 3
    assert "odd coefficient" in capsys.readouterr().err


def test_odd_derivatives_are_named_in_row_major_order():
    # X[2,3] and X[1,4] both have odd derivatives; X[1,4] comes first in the
    # upper triangle row by row, X[2,3] first column by column
    f = var(xvar(1, 1)) * var(xvar(2, 2)) * var(xvar(3, 3)) * var(xvar(4, 4)) + var(xvar(2, 3)) + var(xvar(1, 4))
    with pytest.raises(InvariantViolation, match=r"X\[1,4\]"):
        adjugate_from_det(4, f)
    with pytest.raises(InvariantViolation, match=r"X\[1,4\]"):
        [list(column) for column in poly._adjugate_columns(4, f.terms)]


class _CountedScans(Mapping):
    """A read-only terms dict that counts the scans of its keys."""

    def __init__(self, terms):
        self.terms, self.scans = terms, 0

    def __getitem__(self, key):
        return self.terms[key]

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        self.scans += 1
        return iter(self.terms)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_adjugate_columns_scan_det_once_per_variable_they_need(n):
    # columns 1 and 2 hold 2n - 1 variables, all n columns n(n + 1) / 2
    det = det_sym(generic_sym_matrix(n, "X")).terms
    counted = _CountedScans(det)
    stream = poly._adjugate_columns(n, counted)
    first = [list(column) for column in islice(stream, 2)]
    assert counted.scans == 2 * n - 1
    rest = [list(column) for column in stream]
    assert counted.scans == n * (n + 1) // 2
    assert first + rest == [list(column) for column in poly._adjugate_columns(n, det)]


def test_graph_images_from_the_product_equal_substitution(monkeypatch, pair_assignment):
    for n in range(1, 6):
        pair = inverse_pair(n)
        gens = graph_ideal_generators(n)
        assignment = pair_assignment(pair.x.entries, pair.adj.entries)
        images = symbolic._at_generator_places(pair.prod.entries)
        assert images == [g.substitute(assignment) for g in gens], n
    # the generators of X * Y are never substituted
    calls = []
    substitute = SparsePoly.substitute
    monkeypatch.setattr(SparsePoly, "substitute", lambda self, a: calls.append(1) or substitute(self, a))
    assert verify_graph_vanishing(4, mode="symbolic").generators == 15
    assert calls == []


@pytest.mark.parametrize("scale", [2, 0])
def test_adjugate_identity_fails_on_a_scaled_determinant(monkeypatch, scale):
    # adj is read off the derivatives of scale * det, so X * adj = (scale * det) * Id
    # holds, and only the coefficient of X[1,1]*...*X[n,n] tells it apart
    monkeypatch.setattr(symbolic, "det_sym", lambda a: scale * det_sym(a))
    for n in range(1, 5):
        pair = inverse_pair(n)
        prod = pair.prod.entries
        assert all(prod[i][j] == (pair.det if i == j else 0) for i in range(n) for j in range(n))
        assert not adjugate_identity_holds(n), n


PERTURBED_CELLS = [[(0, 0)], [(0, 1)], [(1, 0)], [(0, 2), (2, 0)], [(2, 2)]]


@pytest.mark.parametrize("cells", PERTURBED_CELLS)
def test_perturbed_adjugate_fails_both_checks(cells):
    n = 3
    rows = [list(row) for row in inverse_pair(n).adj.entries]
    for i, j in cells:
        rows[i][j] = rows[i][j] + var(xvar(1, 1))
    adj = SymbolicMatrix(n, tuple(map(tuple, rows)))
    assert not adjugate_identity_holds(n, adj)
    symmetric = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    with pytest.raises(InvariantViolation, match="does not vanish" if symmetric else "needs a symmetric adjugate"):
        verify_graph_vanishing(n, mode="symbolic", adj_x=adj)


def _adjugates_under_test(n):
    """Every adjugate the differential test runs: the derivative adjugate
    (None), the minor DP, zero, X itself and the perturbed ones."""
    x = generic_sym_matrix(n, "X")
    zero = SymbolicMatrix(n, tuple(tuple(SparsePoly.zero() for _ in range(n)) for _ in range(n)))
    out = {"derivative": None, "adjugate_sym": adjugate_sym(x), "zero": zero, "generic X": x}
    for cells in PERTURBED_CELLS:
        if all(max(cell) < n for cell in cells):
            rows = [list(row) for row in inverse_pair(n).adj.entries]
            for i, j in cells:
                rows[i][j] = rows[i][j] + var(xvar(1, 1))
            out[f"perturbed {cells}"] = SymbolicMatrix(n, tuple(map(tuple, rows)))
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_streamed_checks_match_the_materialized_product(n):
    for name, adj in _adjugates_under_test(n).items():
        assert symbolic.symbolic_checks(n, adj_x=adj) == materialized_checks(n, adj), (n, name)


@pytest.mark.parametrize("scale", [0, 2])
def test_streamed_checks_match_the_materialized_product_on_a_scaled_determinant(monkeypatch, scale):
    monkeypatch.setattr(symbolic, "det_sym", lambda a: scale * det_sym(a))
    for n in range(1, 6):
        for name in ("derivative", "adjugate_sym"):
            adj = _adjugates_under_test(n)[name]
            assert symbolic.symbolic_checks(n, adj_x=adj) == materialized_checks(n, adj), (n, name)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_streamed_checks_match_the_materialized_product_on_random_changes(data):
    # random terms added to random cells of the derivative adjugate, mirrored
    # or not, so that off-diagonal, diagonal and symmetry failures all occur
    n = data.draw(st.integers(1, 4))
    rows = [list(row) for row in inverse_pair(n).adj.entries]
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in data.draw(st.lists(cell, max_size=3)):
        v = xvar(data.draw(st.integers(1, n)), data.draw(st.integers(1, n)))
        change = data.draw(st.sampled_from([-2, -1, 1, 3])) * var(v) ** data.draw(st.integers(0, 2))
        rows[i][j] = rows[i][j] + change
        if data.draw(st.booleans()):
            rows[j][i] = rows[i][j]
    adj = SymbolicMatrix(n, tuple(map(tuple, rows)))
    assert symbolic.symbolic_checks(n, adj_x=adj) == materialized_checks(n, adj)


def test_symbolic_checks_hold_no_whole_product(monkeypatch):
    # neither mat_mul nor a whole adjugate runs: P is formed entry by entry,
    # and X * Y is built before counting starts
    product_matrix(5)
    calls = Counter()
    for name in ("mat_mul", "adjugate", "adjugate_sym"):
        fn = getattr(symbolic, name)
        monkeypatch.setattr(symbolic, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    assert symbolic.symbolic_checks(5) == PairChecks(24, None, True)
    assert calls == Counter()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_passing_run_forms_only_p11_and_p12(monkeypatch, n):
    # n = 1 has no P[1,2] and no generator of S_n; at n = 2 the cycle is the transposition
    product_matrix(n)
    products, calls, drawn = [], [], []
    mul_into, columns = symbolic._mul_into, symbolic._adjugate_columns

    def counted_columns(*args):
        calls.append(args[2:])
        for column in columns(*args):
            drawn.append(1)
            yield column

    monkeypatch.setattr(symbolic, "_mul_into", lambda *a: products.append(1) or mul_into(*a))
    monkeypatch.setattr(symbolic, "_adjugate_columns", counted_columns)
    assert symbolic.symbolic_checks(n) == materialized_checks(n) == PairChecks(n * (n - 1) + n - 1, None, True)
    assert len(products) <= 2 * n
    # one stream, no column selector, and only its first two columns drawn
    assert calls == [()] and len(drawn) == min(n, 2)


def _invariant_but_wrong(n, det):
    """det + 2 * sum over i < j of X[i,j]^2 times the other diagonal entries:
    fixed by S_n, but X * adj = f * Id fails for it."""
    diagonal = [var(xvar(k, k)) for k in range(1, n + 1)]
    extra = SparsePoly()
    for i, j in combinations(range(1, n + 1), 2):
        others = SparsePoly.constant(2)
        for k in range(1, n + 1):
            if k not in (i, j):
                others = others * diagonal[k - 1]
        extra = extra + var(xvar(i, j)) ** 2 * others
    return det + extra


def _fixed_by_the_transposition_only(n, det):
    """det + (X[1,1] X[2,2] - X[1,2]^2) X[3,3]^(n-2): P[1,1] = f, P[1,2] = 0
    and coefficient 1 on X[1,1]*...*X[n,n] for n >= 4, but the n-cycle moves it."""
    block = var(xvar(1, 1)) * var(xvar(2, 2)) - var(xvar(1, 2)) ** 2
    return det + block * var(xvar(3, 3)) ** (n - 2)


CHANGED_DETERMINANTS = {
    "det + 1": (lambda n, det: det + 1, range(1, 6)),
    "S_n-invariant": (_invariant_but_wrong, range(2, 6)),
    "(1 2)-invariant": (_fixed_by_the_transposition_only, range(4, 6)),
}


@pytest.mark.parametrize("name", CHANGED_DETERMINANTS)
def test_fast_path_falls_back_to_the_materialized_verdict(monkeypatch, name):
    change, sizes = CHANGED_DETERMINANTS[name]
    monkeypatch.setattr(symbolic, "det_sym", lambda a: change(a.n, det_sym(a)))
    for n in sizes:
        got = symbolic.symbolic_checks(n)
        assert got == materialized_checks(n), (n, name)
        assert not got.identity, (n, name)


def test_fast_path_itself_rejects_an_invariant_wrong_determinant():
    for n in range(2, 6):
        x = [e.terms for e in generic_sym_matrix(n, "X").entries[0]]
        f = _invariant_but_wrong(n, det_sym(generic_sym_matrix(n, "X"))).terms
        assert poly._fixed_by(f, n, [1, 0, *range(2, n)]) and poly._fixed_by(f, n, [*range(1, n), 0]), n
        assert not symbolic._two_entries_suffice(n, x, f), n
        if n >= 4:
            g = _fixed_by_the_transposition_only(n, det_sym(generic_sym_matrix(n, "X"))).terms
            assert poly._fixed_by(g, n, [1, 0, *range(2, n)]) and not poly._fixed_by(g, n, [*range(1, n), 0]), n


def test_symbolic_checks_take_the_adjugate_by_keyword_only():
    # a stale call that still passes X * Y in the old ``prod`` place must not run as adj_x
    with pytest.raises(TypeError):
        symbolic.symbolic_checks(3, product_matrix(3))


def test_inverse_pair_oracle_is_an_immutable_record():
    pair = inverse_pair(2)
    for field in pair._fields:
        with pytest.raises(AttributeError):
            setattr(pair, field, getattr(pair, field))
    with pytest.raises(AttributeError):
        pair.extra = 1
    assert isinstance(pair, InversePair)
    # the string printed by the frozen-dataclass version of this record
    assert repr(inverse_pair(1)) == (
        "InversePair(x=SymbolicMatrix(n=1, entries=((X[1,1],),)), det=X[1,1], "
        "adj=SymbolicMatrix(n=1, entries=((1,),)), prod=SymbolicMatrix(n=1, entries=((X[1,1],),)))"
    )


def test_inverse_pair_size_must_match():
    adj = inverse_pair(3).adj
    assert adjugate_identity_holds(3, adj)
    with pytest.raises(ValueError, match="size mismatch"):
        adjugate_identity_holds(4, adj)
    with pytest.raises(ValueError, match="size mismatch"):
        verify_graph_vanishing(4, mode="symbolic", adj_x=adj)


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


@pytest.mark.parametrize("gens, stable", [
    ([], True),
    (["g"], False),
    (["g", "-swap(g)"], True),
    (["g", "g", "swap(g)"], True),
    (["g", "h"], False),
    (["g", "swap(g)", "h"], False),
])
def test_swap_symmetry_verdict(monkeypatch, gens, stable):
    g = var(xvar(1, 1)) * var(yvar(1, 2)) - 2 * var(xvar(2, 2)) * var(yvar(1, 1))
    h = var(xvar(1, 2)) * var(yvar(1, 2)) + var(xvar(1, 1))  # swap(h) is neither h nor -h
    polys = {"g": g, "-swap(g)": -swap_sides(g), "swap(g)": swap_sides(g), "h": h}
    monkeypatch.setattr(symbolic, "graph_ideal_generators", lambda n: [polys[name] for name in gens])
    assert swap_symmetry_holds(2) is stable


def test_spans_product_entries():
    for n in range(1, 6):
        assert spans_product_entries(n)


def test_span_check_fails_on_a_smaller_or_different_span(monkeypatch):
    places = symbolic._at_generator_places
    monkeypatch.setattr(symbolic, "_at_generator_places", lambda e: places(e)[:-1])
    assert spans_product_entries(1)  # n = 1 has no difference to drop
    for n in range(2, 5):
        assert not spans_product_entries(n)
    # X[1,1]*Y[1,1] for the last difference keeps the rank but not the span
    swapped_in = var(xvar(1, 1)) * var(yvar(1, 1))
    monkeypatch.setattr(symbolic, "_at_generator_places", lambda e: places(e)[:-1] + [swapped_in])
    for n in range(2, 5):
        prod = product_matrix(n)
        left = [g.terms for g in symbolic._at_generator_places(prod.entries)] + [prod.entries[0][0].terms]
        assert sparse_rank(left) == sparse_rank([p.terms for row in prod.entries for p in row])
        assert not spans_product_entries(n)


def test_span_check_builds_one_product(monkeypatch):
    calls = []
    monkeypatch.setattr(symbolic, "mat_mul", lambda a, b: calls.append(a.n) or mat_mul(a, b))
    product_matrix.cache_clear()
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


def test_numeric_verify_decodes_outside_the_trial_loop(monkeypatch):
    # the generators are read off P = M * adj M and never decoded
    calls = []

    def counted(key):
        calls.append(key)
        return decode(key)

    decode = poly._decode
    monkeypatch.setattr(poly, "_decode", counted)
    for trials in (1, 5):
        calls.clear()
        assert verify_graph_vanishing(4, mode="numeric", trials=trials, seed=2).trials == trials
        assert len(calls) == 0, trials


def _reordered(gens):
    return gens[1:] + gens[:1]


def _one_sign_flipped(gens):
    return gens[:2] + [-gens[2]] + gens[3:]


@pytest.mark.parametrize("change", [_reordered, _one_sign_flipped])
def test_fast_paths_run_only_on_the_standard_list(monkeypatch, change):
    n = 4
    gens = change(graph_ideal_generators(n))
    assert gens != graph_ideal_generators(n)
    calls = Counter()
    canonical, substitute, decode = SparsePoly.canonical, SparsePoly.substitute, poly._decode
    monkeypatch.setattr(SparsePoly, "canonical", lambda self: calls.update(["canonical"]) or canonical(self))
    monkeypatch.setattr(SparsePoly, "substitute", lambda self, a: calls.update(["substitute"]) or substitute(self, a))
    monkeypatch.setattr(poly, "_decode", lambda key: calls.update(["decode"]) or decode(key))
    # the generators take their images from P by position: nothing is decoded, looked up or substituted
    assert verify_graph_vanishing(n, mode="symbolic").generators == len(gens)
    assert verify_graph_vanishing(n, mode="numeric", trials=3, seed=1).trials == 3
    assert calls == Counter()
    # there is no second path: any other list only names the places of P, and still nothing is decoded,
    # looked up or substituted
    monkeypatch.setattr(symbolic, "graph_ideal_generators", lambda n: gens)
    assert verify_graph_vanishing(n, mode="symbolic").generators == len(gens)
    assert verify_graph_vanishing(n, mode="numeric", trials=3, seed=1).trials == 3
    assert calls == Counter()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_the_triple_sum(data):
    rows, inner, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
    a = [data.draw(st.lists(entry, min_size=inner, max_size=inner)) for _ in range(rows)]
    b = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(inner)]
    naive = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    assert symbolic._product(a, b) == naive


def _pair_by_formula(a, adj, d, e, r):
    """M = A D_r A^T and W = adj(A)^T E_r adj(A), D_r weighting the first r
    columns of A by d and E_r the last n - r rows of adj(A) by e."""
    n = len(a)
    return (
        [[sum(a[i][k] * d[k] * a[j][k] for k in range(r)) for j in range(n)] for i in range(n)],
        [[sum(adj[k][i] * e[k] * adj[k][j] for k in range(r, n)) for j in range(n)] for i in range(n)],
    )


def _witness_family_by_formula(n, seed):
    """The witness family of ``seed`` from the direct formulas on the same
    draws, with the signed-minor ``adjugate`` as the oracle."""
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = det_fraction(a)
        if det:
            break
    adj = adjugate(a)
    d = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n)]
    e = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n)]
    return [(r, *_pair_by_formula(a, adj, d, e, r), det) for r in range(n, -1, -1)]


def test_witness_rows_match_the_comprehension_formulas():
    for n in range(1, 7):
        for seed in (0, 7 * n, "witness:3:1"):
            family = list(symbolic._witness_family(n, seed))
            assert family == _witness_family_by_formula(n, seed), (n, seed)
            for r, m, w, det in family:
                assert symbolic._witness_rows(n, r, seed) == (m, w, det)


def test_graph_vanishing_bad_arguments():
    with pytest.raises(ValueError):
        verify_graph_vanishing(3, mode="fuzzy")
    with pytest.raises(ValueError):
        verify_graph_vanishing(3, mode="numeric", trials=0)


def test_graph_vanishing_detects_nonmember(monkeypatch):
    # the (1,1) entry of X * Y goes to det, which never vanishes, under either mode
    monkeypatch.setattr(symbolic, "_at_generator_places", lambda e: [e[0][0]])
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


def test_matrix_rank_rejects_rows_of_unequal_length():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]):
        with pytest.raises(ValueError, match="unequal lengths"):
            matrix_rank(rows)


@pytest.mark.parametrize("entry_point", [
    lambda: var(xvar(1, 1)) + 0.5,  # _as_poly
    lambda: determinant([[0.5, 1], [1, 3]]),  # _as_poly, entry by entry
    lambda: SparsePoly.constant(0.5),
    lambda: var(xvar(1, 1)) * 0.5,  # the scalar branch of *
    lambda: 0.5 * var(xvar(1, 1)),
    lambda: var(xvar(1, 1)).evaluate({xvar(1, 1): 0.5}),
    lambda: matrix_rank([[0.5, 1], [1, 2]]),
    lambda: sparse_rank([{"a": 0.5}]),
    lambda: SparsePoly({0: 0.5}) * 2,  # the coefficient, as the constructor gets it
], ids=["as_poly", "determinant", "constant", "mul", "rmul", "evaluate", "matrix_rank", "sparse_rank", "terms"])
def test_floats_do_not_enter_exact_arithmetic(entry_point):
    with pytest.raises(TypeError, match="got float"):
        entry_point()


def test_rational_sym_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        RationalSymMatrix.from_rows([[0, 1], [2, 0]])
    m = RationalSymMatrix.from_rows([[1, 2], [2, 3]])
    assert m.rank() == 2


@pytest.mark.parametrize("x", [0.1, 1.0, "1/10", None])
def test_rational_sym_matrix_rejects_inexact_entries(x):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="int or Fraction"):
        RationalSymMatrix.from_rows([[x, 1], [1, 0]])
    exact = RationalSymMatrix.from_rows([[Fraction(1, 10), 1], [1, 0]])
    assert exact.rows == ((Fraction(1, 10), Fraction(1)), (Fraction(1), Fraction(0)))


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
def test_witness_verdict(m, w, valid):
    # each invalid pair breaks one condition of the verdict and keeps the rest
    assert symbolic._pair_valid(2, 1, m, w) is valid


@st.composite
def witness_candidates(draw):
    """(n, r, M, W) with M = A diag(d) A^T and W = adj(A)^T diag(e) adj(A)
    for a small integer A, singular at times. Each index weights M, W, both
    or neither, so that M * W = det(A) A diag(d) diag(e) adj(A) vanishes
    unless some index weights both. r is mostly the number of weights on M.
    At times M or W is scaled by the prime of the rank bounds, which keeps
    its rank and kills its residues, or made asymmetric in one entry."""
    n = draw(st.integers(1, 5))
    a = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    adj = adjugate(a)
    sides = draw(st.lists(st.sampled_from(["m", "m", "w", "w", "both", "none"]), min_size=n, max_size=n))
    weight = st.sampled_from([1, -1, 2, -3])
    d = [draw(weight) if s in ("m", "both") else 0 for s in sides]
    e = [draw(weight) if s in ("w", "both") else 0 for s in sides]
    m = [[sum(a[i][k] * d[k] * a[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    w = [[sum(adj[k][i] * e[k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    r = sum(map(bool, d)) if draw(st.integers(0, 3)) else draw(st.integers(0, n))
    for x in (m, w):
        change = draw(st.sampled_from(["keep", "keep", "keep", "scale", "asymmetric"]))
        if change == "scale":
            x[:] = [[symbolic._PRIME * draw(st.sampled_from([1, -2])) * v for v in row] for row in x]
        elif change == "asymmetric" and n > 1:
            x[0][1] += 1
    return n, r, m, w


@settings(max_examples=400, deadline=None)
@given(witness_candidates())
def test_witness_verdict_matches_exact_ranks(case):
    n, r, m, w = case
    assert symbolic._pair_valid(n, r, m, w) is exact_witness_verdict(n, r, m, w)


@pytest.mark.parametrize("case", ["units", "witness"])
def test_witness_verdict_survives_an_unlucky_prime(monkeypatch, case):
    # entries that are multiples of the prime lose rank mod p; the exact rank decides
    p = symbolic._PRIME
    if case == "units":
        n, r, m, w = 2, 1, [[p, 0], [0, 0]], [[0, 0], [0, 3 * p]]
    else:
        n, r = 5, 2
        m, w, _ = symbolic._witness_rows(n, r, 0)
        m = [[p * v for v in row] for row in m]
    assert _rank_mod(m, p) < r
    exact_ranks = []
    monkeypatch.setattr(symbolic, "matrix_rank", lambda rows: exact_ranks.append(rows) or matrix_rank(rows))
    assert symbolic._pair_valid(n, r, m, w)
    assert m in exact_ranks  # the bounds mod p fall short, and the exact rank decides


def _refuse_exact_ranks(monkeypatch):
    def refuse(rows):
        raise AssertionError("an exact rank was computed")

    monkeypatch.setattr(symbolic, "matrix_rank", refuse)


def test_witness_block_bound_survives_a_singular_leading_block(monkeypatch):
    # A[0][0] = 0 makes the leading 1 x 1 block of M = A D_1 A^T zero; the
    # rank mod p of the whole M still bounds it, with no exact elimination
    _refuse_exact_ranks(monkeypatch)
    a = [[0, 2, 1, -1], [3, 1, 0, 2], [1, -1, 2, 0], [2, 0, 1, 3]]
    assert det_fraction(a) == -32
    adj = adjugate(a)
    n = len(a)
    for r in range(n + 1):
        m, w = _pair_by_formula(a, adj, [2, -1, 3, 1], [1, 4, -2, -3], r)
        if r == 1:
            assert m[0][0] == 0
        assert symbolic._pair_valid(n, r, m, w), r


def test_witness_of_one_rank_less_fails():
    # M of rank r - 1 beside W of rank n - r: a zero product, but no rank r
    for n in range(1, 7):
        family = list(symbolic._witness_family(n, n))
        for (r, _, w, _), (_, m_less, _, _) in zip(family, family[1:]):
            assert not any(v for row in symbolic._product(m_less, w) for v in row)
            assert not symbolic._pair_valid(n, r, m_less, w), (n, r)
            assert not exact_witness_verdict(n, r, m_less, w)


def test_witness_block_bounds_are_the_leading_block_of_m_and_the_trailing_block_of_w(monkeypatch):
    # each block is nonsingular mod p where the verdict looks for it, so no
    # whole matrix is ranked; W's leading block here is zero
    shapes = []
    monkeypatch.setattr(symbolic, "_rank_mod", lambda rows, p: shapes.append(len(rows)) or _rank_mod(rows, p))
    _refuse_exact_ranks(monkeypatch)
    n = 5
    for r in range(n + 1):
        m = [[int(i == j < r) for j in range(n)] for i in range(n)]
        w = [[int(i == j >= r) for j in range(n)] for i in range(n)]
        shapes.clear()
        assert symbolic._pair_valid(n, r, m, w)
        assert shapes == [r, n - r], r


def test_witness_streams_are_not_trial_streams(monkeypatch):
    # numeric trial t of seed s draws from Random(s * 1_000_003 + t); a witness
    # family drawing from one of those would be correlated with that sample
    seeds = []

    class Recording(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(symbolic.random, "Random", Recording)
    trial_seeds = {s * 1_000_003 + t for s in range(51) for t in range(10**4)}
    for seed in range(51):
        seeds.clear()
        assert main(["verify", "--mode", "numeric", "--n", "1", "--trials", "3", "--seed", str(seed)]) == 0
        trials, families = seeds[:3], seeds[3:]
        assert trials == [seed * 1_000_003 + t for t in range(3)]
        assert len(families) == 3 and len(set(families)) == 3
        assert not trial_seeds.intersection(families), seed


def test_witness_ranks_need_no_exact_elimination(monkeypatch):
    _refuse_exact_ranks(monkeypatch)
    for n in range(1, 9):
        for r in range(n + 1):
            assert witness_pair_valid(n, r, seed=n * r)


def test_witness_deterministic_in_seed():
    a = witness_rank_pair(4, 2, seed=123)
    b = witness_rank_pair(4, 2, seed=123)
    assert a == b
    c = witness_rank_pair(4, 2, seed=124)
    assert a != c


# sha256 over repr((r, seed, M.rows, N.rows)) for every r and seeds 0..5,
# one per line, recorded when one witness family per seed began to serve every rank.
WITNESS_SHA256 = {
    1: "9ff034ff1f77529288a46719c4c451aa21091a321cb43605c81550321f6fc26f",
    2: "e718d3810adbebcdeda676d432434fefc0809add2207ae5b153c6b4b9789fafd",
    3: "d7cd2e534c7aa135b0946a40df1b9a336f48c67bd0fcfbbf7fc716711843d916",
    4: "869402e82be8bd21aa84552fb796422e9092035f2c7f44b1b4c9e33c18bbffe5",
    5: "09748d842883169b4812d46db59dba8aa7b2041af27c04610c23b4a3bba220f3",
    6: "fed15ec894b48a1bd05a03f53631629765e829427136e786251a8c8a97132db2",
    7: "77b19ec73f9320de66a7cfc4db6a35d83343c1f02c9979c77a8254d2ede38f3b",
    8: "8473bd2bf0935f4e509e487818df3d2a903ea0c85251b65311be2d6f14904bbc",
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
