"""Symbolic certificates for the inverse-pairs variety.

Two generic symmetric n x n matrices X and Y are represented over exact
sparse polynomials in the variables X[i,j], Y[i,j] (i <= j). A polynomial is
a dict from monomials to nonzero coefficients. A monomial is a packed
exponent vector (Monagan & Pearce, CASC 2007): one int in which every
variable owns an 8-bit field at a slot that does not depend on n, X and Y
interleaved over the upper triangle column by column. So X[1,1]^2*Y[1,2] is
2 + (1 << 24), the constant monomial is 0, and a product of monomials is the
sum of their ints. Keys are decoded to sorted VarId tuples, by walking their
set bits, only to print, evaluate or substitute. One kernel, ``_mul_into``,
adds products in place (out[ma + mb] += ca * cb) for ``*``, ``substitute``,
``mat_mul`` and the determinant DP; sums go through ``_add_into``.
Exponents stay below 2^7: every ``SparsePoly`` (so every product and
``mat_mul`` entry), every partial product of ``substitute`` and every DP
minor passes through ``_checked``, which raises ValueError at the top bit of
a field.
Fields below 2^7 sum to at most 254, so nothing carries before the check.
A single product keeps its leading term, so it raises whenever a product of
terms reaches 2^7; in a sum of products a term past 2^7 that cancels goes
unseen, and the exact result is returned.

The ideal of the inversion graph is generated by the off-diagonal entries of
X*Y together with the consecutive diagonal differences; this module builds
those generators, maps them through Y -> adj(X) to certify that they vanish
on the graph, checks the swap symmetry X <-> Y, checks that the generators
plus the (1,1) product entry span every entry of X*Y in bidegree (1,1), and
produces witness pairs (M, N) of complementary rank with M N = 0. Witnesses
are built in integers, as M and det(A)^2 N; symmetry, rank and a zero
product do not change under that scale, so only ``witness_rank_pair``
divides, once, to return the rational N.

Graph vanishing and the adjugate identity are read off the entries of one
P per mode, ``symbolic_checks`` and ``numeric_checks``. Symbolically, P =
X * adj(X) is formed one entry at a time from det(X) and one column of
adj(X), the column read off the partial derivatives of det(X); each entry
is compared with 0 or det(X) and dropped, so neither the whole adjugate nor
the whole P is held. Substitution is a ring map that fixes X, so each
generator of X*Y goes under Y -> adj(X) to the entry of P at its place, and
nothing is substituted. Numerically, each sample is one random nonsingular
integer M with det M and adj M, and P = M * adj M formed once; a
generator's value at (M, adj M) is the entry of P at its place. Either way
the adjugate identity compares P with det * Id. The caller builds X * Y
once and passes it to both checks, the swap check and the span check.

Matrices of numbers get rank, determinant and adjugate from the one
fraction-free Bareiss elimination in ``exact``, O(k^3): Gauss-Jordan on
[B | I] where the adjugate is needed, forward elimination for a rank. The
span comparison ranks sparse coefficient vectors by fraction-free row
reduction in integers. Polynomial entries cannot be divided, so
``determinant`` runs a division-free DP over column subsets, O(2^k * k)
ring operations, which serves only the small symbolic sizes; it holds two
popcount levels of minors at a time. ``adjugate`` runs that DP once per
minor; it is the oracle that the derivative adjugate is tested against.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .exact import InvariantViolation, Scalar, _eliminate, _is_scalar

if TYPE_CHECKING:
    from fractions import Fraction


class VarId(NamedTuple):
    """One matrix variable; kind is "X" or "Y", indices are 1-based, row <= col."""

    kind: str
    row: int
    col: int

    def __str__(self) -> str:
        return f"{self.kind}[{self.row},{self.col}]"


def xvar(i: int, j: int) -> VarId:
    """Variable for entry (i, j) of the symmetric X, normalized to row <= col."""
    if i < 1 or j < 1:
        raise ValueError(f"matrix indices are 1-based, got ({i}, {j})")
    return VarId("X", min(i, j), max(i, j))


def yvar(i: int, j: int) -> VarId:
    """Variable for entry (i, j) of the symmetric Y, normalized to row <= col."""
    if i < 1 or j < 1:
        raise ValueError(f"matrix indices are 1-based, got ({i}, {j})")
    return VarId("Y", min(i, j), max(i, j))


_FIELD_BITS = 8  # one byte per variable; exponents stay below 2^7
_OVERFLOW = "a monomial exponent reached 2^7, past its 8-bit field"


def _slot(v: VarId) -> int:
    """Field index of v: X and Y interleaved over the upper triangle, column
    by column, so a variable's field does not depend on n."""
    if v.kind not in ("X", "Y") or not 1 <= v.row <= v.col:
        raise ValueError(f"not a symmetric-matrix variable: {v!r}")
    return 2 * (v.col * (v.col - 1) // 2 + v.row - 1) + (v.kind == "Y")


def _var(slot: int) -> VarId:
    """Inverse of ``_slot``."""
    t = slot >> 1
    col = (1 + isqrt(8 * t + 1)) // 2
    return VarId("Y" if slot & 1 else "X", t - col * (col - 1) // 2 + 1, col)


def _decode(key: int) -> tuple[int, ...]:
    """Slots of a packed monomial, ascending, one entry per power."""
    out: list[int] = []
    while key:
        slot = ((key & -key).bit_length() - 1) // _FIELD_BITS
        e = key >> (slot * _FIELD_BITS) & 0xFF
        key ^= e << (slot * _FIELD_BITS)
        out += [slot] * e
    return tuple(out)


def _fields_mask(pattern: bytes, key: int) -> int:
    """``pattern`` repeated, one byte per field, over every field of ``key``."""
    return int.from_bytes(pattern * -(-key.bit_length() // (8 * len(pattern))), "little")


def _add_into(out: dict, terms: Mapping, scale: Scalar = 1) -> None:
    """out += scale * terms in place, dropping keys that cancel. A pop does not
    shrink a dict's table, so a caller that keeps a sum with many cancellations
    copies it to a fresh dict first."""
    for key, c in terms.items():
        nc = out.get(key, 0) + scale * c
        if nc:
            out[key] = nc
        else:
            out.pop(key, None)


def _checked(terms: dict) -> dict:
    """terms, unless a key has an exponent of 2^7 or more: then ValueError."""
    used = reduce(or_, terms, 0)
    if used & _fields_mask(b"\x80", used):
        raise ValueError(_OVERFLOW)
    return terms


def _mul_into(out: dict, a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> None:
    """out += a * b in place, out[ma + mb] += ca * cb, dropping keys that
    cancel; the caller passes the finished ``out`` through ``_checked``."""
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and not out:
        # one term times b is a bijection on keys: nothing collides or cancels
        ((ma, ca),) = a.items()
        out.update({ma + mb: ca * cb for mb, cb in b.items()})
        return
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            k = ma + mb
            c = get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]


def _exact(x: Scalar) -> Scalar:
    """x when it is an int or a Fraction; a float has no exact value: TypeError."""
    if not _is_scalar(x):
        raise TypeError(f"exact arithmetic takes int or Fraction, got {type(x).__name__}")
    return x


class SparsePoly:
    """Multivariate polynomial as a dict from packed monomials to coefficients.

    A monomial is an int holding each variable's exponent in its own 8-bit
    field (see ``_slot``); the constant monomial is 0 and a product of
    monomials is a sum of keys. Coefficients are int or Fraction and never
    zero; the zero polynomial has an empty dict. The constructor keeps the
    dict it is given once checked: a negative or non-int key, an exponent
    of 2^7 or more or a zero coefficient raises ValueError, so no field ever
    carries into the next one. Mixed arithmetic with ints and Fractions is
    supported; a float raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[int, Scalar]] = None):
        terms = {} if terms is None else terms
        for key, c in terms.items():
            if not isinstance(key, int) or key < 0:
                raise ValueError(f"a monomial is a nonnegative int, got {key!r}")
            if not _exact(c):
                raise ValueError(f"zero coefficient at monomial {key}")
        self.terms: dict[int, Scalar] = _checked(terms)

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "SparsePoly":
        return cls({0: c}) if _exact(c) else cls()

    @classmethod
    def variable(cls, v: VarId) -> "SparsePoly":
        return cls({1 << (_FIELD_BITS * _slot(v)): 1})

    # ------------------------------------------------------------------ ring ops

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        out = dict(self.terms)
        _add_into(out, _as_poly(other).terms)
        return SparsePoly(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            out: dict[int, Scalar] = {}
            _mul_into(out, self.terms, other.terms)
            return SparsePoly(out)
        if not _exact(other):
            return SparsePoly()
        return SparsePoly({mono: c * other for mono, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative powers are not defined")
        out = SparsePoly.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparsePoly):
            return self.terms == other.terms
        if _is_scalar(other):
            return self.terms == SparsePoly.constant(other).terms
        return NotImplemented

    # --------------------------------------------------------------- structure

    def variables(self) -> set[VarId]:
        return {_var(s) for key in self.terms for s in _decode(key)}

    def bidegree(self) -> tuple[int, int]:
        """(X-degree, Y-degree) shared by every term; error if mixed or zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no bidegree")
        seen: Optional[tuple[int, int]] = None
        for key in self.terms:
            slots = _decode(key)
            dy = sum(s & 1 for s in slots)  # Y owns the odd slots
            if seen is None:
                seen = (len(slots) - dy, dy)
            elif seen != (len(slots) - dy, dy):
                raise ValueError(f"polynomial is not bihomogeneous: {seen} vs {(len(slots) - dy, dy)}")
        return seen

    def substitute(self, assignment: Mapping[VarId, Union["SparsePoly", Scalar]]) -> "SparsePoly":
        """Replace every variable by its assigned polynomial or scalar."""
        values = {_slot(v): _as_poly(x).terms for v, x in assignment.items()}
        try:
            factored = [([values[s] for s in _decode(key)], c) for key, c in self.terms.items()]
        except KeyError as err:
            raise ValueError(f"missing variable in substitution: {_var(err.args[0])}") from None
        out: dict[int, Scalar] = {}
        for factors, coeff in factored:
            acc = {0: coeff}
            for f in factors:
                acc, prev = {}, acc
                _mul_into(acc, prev, f)
                _checked(acc)
            _add_into(out, acc)
        return SparsePoly(dict(out))

    def evaluate(self, assignment: Mapping[VarId, Scalar]) -> Scalar:
        """Exact value at a scalar point covering every variable."""
        values = {_slot(v): _exact(x) for v, x in assignment.items()}
        total: Scalar = 0
        try:
            for key, coeff in self.terms.items():
                v: Scalar = coeff
                for s in _decode(key):
                    v *= values[s]
                total += v
        except KeyError as err:
            raise ValueError(f"missing variable in substitution: {_var(err.args[0])}") from None
        return total

    def canonical(self) -> tuple[tuple[int, Scalar], ...]:
        """Hashable sorted form, for set comparisons."""
        return tuple(sorted(self.terms.items()))

    def sign_normalized(self) -> "SparsePoly":
        """Self or its negative, making the lead coefficient positive."""
        if not self.terms:
            return self
        lead = max(self.terms)
        return -self if self.terms[lead] < 0 else self

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        terms = ((tuple(sorted(map(_var, _decode(key)))), c) for key, c in self.terms.items())
        for mono, c in sorted(terms, key=lambda item: (-len(item[0]), item[0])):
            factors = "*".join(
                str(v) if mono.count(v) == 1 else f"{v}^{mono.count(v)}" for v in dict.fromkeys(mono)
            )
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c}*{factors}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _as_poly(x: Union[SparsePoly, Scalar]) -> SparsePoly:
    if isinstance(x, SparsePoly):
        return x
    return SparsePoly.constant(x)


# ---------------------------------------------------------------- determinants

Entry = Union[SparsePoly, Scalar]


def determinant(rows: Sequence[Sequence[Entry]]):
    """Division-free determinant (any ring); a SparsePoly if any entry is one,
    else a scalar.

    Laplace expansion as a DP over column subsets, O(2^k * k) ring
    operations: the minor on the first t rows and a t-set S of columns is
    the alternating sum, over c in S, of row t's entry in column c times
    the minor on the first t - 1 rows and S - {c}. Level t needs only level
    t - 1, so two popcount levels of minors are held at a time, at most
    C(k, k/2) + C(k, k/2 + 1) of them instead of all 2^k.
    """
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("matrix is not square")
    terms = [[_as_poly(e).terms for e in row] for row in rows]
    level: dict[int, dict] = {0: {0: 1}}
    for t, row in enumerate(terms, 1):
        below, level = level, {}
        for cols in combinations(range(k), t):
            mask = sum(1 << c for c in cols)
            acc: dict[int, Scalar] = {}
            sign = 1 if t & 1 else -1
            for c in cols:
                entry = row[c]
                _mul_into(acc, entry if sign > 0 else {m: -x for m, x in entry.items()}, below[mask ^ 1 << c])
                sign = -sign
            level[mask] = _checked(acc)
    (minor,) = level.values()
    if any(isinstance(e, SparsePoly) for row in rows for e in row):
        return SparsePoly(minor)
    return minor.get(0, 0)


def adjugate(rows: Sequence[Sequence[Entry]]) -> list[list]:
    """Signed-minor adjugate; satisfies A * adj(A) = det(A) * Id (any ring)."""
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("matrix is not square")
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            sub = [
                [rows[r][c] for c in range(k) if c != i]
                for r in range(k) if r != j
            ]
            minor = determinant(sub)
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return out


# ------------------------------------------------------------ symbolic matrices

class _SymbolicMatrixFields(NamedTuple):
    n: int
    entries: tuple[tuple[SparsePoly, ...], ...]


class SymbolicMatrix(_SymbolicMatrixFields):
    """Square matrix of sparse polynomials."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[tuple[SparsePoly, ...], ...]) -> "SymbolicMatrix":
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError(f"expected {n} x {n} entries")
        return super().__new__(cls, n, entries)

    @classmethod
    def _make(cls, fields) -> "SymbolicMatrix":  # _replace and _make validate too
        return cls(*fields)


def generic_sym_matrix(n: int, kind: str) -> SymbolicMatrix:
    """Symmetric matrix of fresh variables of the given kind ("X" or "Y")."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind not in ("X", "Y"):
        raise ValueError(f'kind must be "X" or "Y", got {kind!r}')
    make = xvar if kind == "X" else yvar
    entries = tuple(
        tuple(SparsePoly.variable(make(i + 1, j + 1)) for j in range(n))
        for i in range(n)
    )
    return SymbolicMatrix(n, entries)


def mat_mul(a: SymbolicMatrix, b: SymbolicMatrix) -> SymbolicMatrix:
    """Polynomial matrix product."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            out: dict[int, Scalar] = {}
            for k in range(n):
                _mul_into(out, a.entries[i][k].terms, b.entries[k][j].terms)
            row.append(SparsePoly(dict(out)))
        rows.append(tuple(row))
    return SymbolicMatrix(n, tuple(rows))


def det_sym(a: SymbolicMatrix) -> SparsePoly:
    """Determinant as a sparse polynomial."""
    return _as_poly(determinant(a.entries))


def adjugate_sym(a: SymbolicMatrix) -> SymbolicMatrix:
    """Adjugate as a polynomial matrix."""
    adj = adjugate(a.entries)
    return SymbolicMatrix(a.n, tuple(tuple(_as_poly(e) for e in row) for row in adj))


# ------------------------------------------------------------------- generators

def product_matrix(n: int) -> SymbolicMatrix:
    """X * Y for generic symmetric X and Y."""
    return mat_mul(generic_sym_matrix(n, "X"), generic_sym_matrix(n, "Y"))


def product_entries(n: int) -> list[SparsePoly]:
    """The n^2 entries of X * Y, row-major; their span cuts out product zero."""
    return [p for row in product_matrix(n).entries for p in row]


def _product_for(n: int, prod: Optional[SymbolicMatrix]) -> SymbolicMatrix:
    """``prod`` when given, checked to be n x n, else a fresh X * Y."""
    if prod is None:
        return product_matrix(n)
    if prod.n != n:
        raise ValueError(f"the product X * Y is for n = {prod.n}, not {n}")
    return prod


def _at_generator_places(e: Sequence[Sequence]) -> list:
    """The off-diagonal entries of a square matrix, row-major, then the
    differences of consecutive diagonal entries."""
    n = len(e)
    out = [e[i][j] for i in range(n) for j in range(n) if i != j]
    out.extend(e[i][i] - e[i + 1][i + 1] for i in range(n - 1))
    return out


def graph_ideal_generators(n: int, prod: Optional[SymbolicMatrix] = None) -> list[SparsePoly]:
    """Generators of the inversion-graph ideal: the n(n-1) off-diagonal
    entries of X * Y (row-major) plus the n - 1 consecutive diagonal
    differences. ``prod`` is X * Y when the caller has built it."""
    return _at_generator_places(_product_for(n, prod).entries)


def swap_sides(p: SparsePoly) -> SparsePoly:
    """Exchange the X and Y variables throughout."""
    # X owns the even fields and Y the odd ones, so a swap exchanges
    # neighbouring fields; a bijection on monomials, so no two terms collide
    xs = _fields_mask(b"\xff\x00", max(p.terms, default=0))
    return SparsePoly({
        (key & xs) << _FIELD_BITS | (key >> _FIELD_BITS) & xs: c for key, c in p.terms.items()
    })


def swap_symmetry_holds(n: int, prod: Optional[SymbolicMatrix] = None) -> bool:
    """Generator set is stable (up to sign) under exchanging X and Y. The swap
    is linear and injective, so the swapped sign classes equal the original
    ones once each lies among them; one swapped generator is held at a time.
    ``prod`` is X * Y when the caller has built it."""
    gens = graph_ideal_generators(n, prod)
    originals = {g.sign_normalized().canonical() for g in gens}
    return all(swap_sides(g).sign_normalized().canonical() in originals for g in gens)


def _adjugate_columns(n: int, det: Mapping[int, Scalar]) -> Iterator[list[dict]]:
    """The columns of adj(X) for the generic symmetric X, one at a time, read
    off the partial derivatives of det (a terms dict): X[i,j] fills (i, j)
    and (j, i) and the cofactors are symmetric, so d det/d X[i,i] =
    adj[i][i] and d det/d X[i,j] = 2 adj[i][j] for i != j.

    One scan of det per variable lists the keys that hold it, so each
    derivative then costs its own size. The scans run row by row over the
    upper triangle and raise InvariantViolation at the first off-diagonal
    derivative with an odd coefficient.
    """
    holding: dict[int, list[int]] = {}  # field shift of X[i,j] -> the keys of det that hold it
    for i in range(n):
        for j in range(i, n):
            v = xvar(i + 1, j + 1)
            shift = _FIELD_BITS * _slot(v)
            field = 0xFF << shift
            keys = holding[shift] = [key for key in det if key & field]
            if i != j and any(det[key] * (key >> shift & 0xFF) % 2 for key in keys):
                raise InvariantViolation(f"d det/d {v} has an odd coefficient")
    for j in range(n):
        column = []
        for i in range(n):
            shift = _FIELD_BITS * _slot(xvar(i + 1, j + 1))
            unit, halve = 1 << shift, int(i != j)
            column.append({key - unit: det[key] * (key >> shift & 0xFF) >> halve for key in holding[shift]})
        yield column


# ------------------------------------------------------------- span comparison

def _reduce_into(basis: dict, vectors: Iterable[Mapping]) -> dict:
    """Extend ``basis`` in place by the vectors and return it.

    ``basis`` maps a pivot key to the integer vector whose largest key it is.
    Fraction-free row reduction: a vector scaled to integers on entry is
    reduced by v <- a * v - b * other at each pivot it shares, a and b the
    pivot coefficients over their gcd, and divided by its content; what
    survives starts a new pivot.
    """
    for vec in vectors:
        scale = lcm(*(c.denominator for c in vec.values()))
        v = {k: c.numerator * (scale // c.denominator) for k, c in vec.items() if c}
        while v:
            pivot = max(v)
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = v
                break
            g = gcd(v[pivot], other[pivot])
            a, b = other[pivot] // g, v[pivot] // g
            if a != 1:
                for k in v:
                    v[k] *= a
            _add_into(v, other, -b)
            g = gcd(*v.values())
            if g > 1:
                for k in v:
                    v[k] //= g
    return basis


def sparse_rank(vectors: Iterable[Mapping]) -> int:
    """Rank over the rationals of sparse int/Fraction vectors (dict keyed)."""
    return len(_reduce_into({}, ({k: _exact(c) for k, c in v.items()} for v in vectors)))


def spans_product_entries(n: int, prod: Optional[SymbolicMatrix] = None) -> bool:
    """Graph generators plus the (1,1) product entry span every entry of X*Y.

    All vectors live in the bidegree-(1,1) coefficient space, so span
    equality is three equal ranks; the union's comes from extending the
    left basis by the right vectors, so the left ones are reduced once.
    ``prod`` is X * Y when the caller has built it.
    """
    prod = _product_for(n, prod)
    right = [p.terms for row in prod.entries for p in row]
    basis = _reduce_into({}, [g.terms for g in _at_generator_places(prod.entries)] + right[:1])
    r_left = len(basis)
    r_right = sparse_rank(right)
    r_union = len(_reduce_into(basis, right))
    return r_left == r_right == r_union


# ------------------------------------------------------- graph vanishing checks

class VanishingReport(NamedTuple):
    """Record of a completed graph-vanishing run (failures raise instead)."""

    n: int
    mode: str
    generators: int
    trials: int


def _invertible_symmetric(rng: random.Random, n: int) -> tuple[list[list[int]], int, list[list[int]]]:
    """Random integer symmetric M, redrawn until det M != 0, with det M and adj M."""
    while True:
        upper = {(i, j): rng.randint(-10, 10) for i in range(n) for j in range(i, n)}
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        _, det, adj = _eliminate(rows)
        if adj is not None:
            return rows, det, adj


def _is_symmetric(rows: Sequence[Sequence]) -> bool:
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def _product(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Exact matrix product of int/Fraction matrices; b is transposed once."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


class PairChecks(NamedTuple):
    """Graph vanishing and the adjugate identity, read off one P."""

    generators: int
    residual: Optional[str]  # why a generator does not vanish, or None
    identity: bool  # P = det * Id, on every sample in numeric mode


_NONZERO = "graph generator does not vanish on inverse pairs: "


def symbolic_checks(
    n: int, prod: Optional[SymbolicMatrix] = None, adj_x: Optional[SymbolicMatrix] = None
) -> PairChecks:
    """Both symbolic checks off the entries of P = X * adj(X), one at a time.

    Y -> adj(X) is a ring map that fixes X, so each generator of X * Y
    (``prod``, built when None) goes to the entry of P at its place; graph
    vanishing demands that every such entry is the zero polynomial. It
    needs a symmetric adjugate, Y being symmetric. The adjugate identity
    asks for P = det(X) * Id, a symmetric adjugate and coefficient 1 for
    X[1,1]*...*X[n,n] in det(X).

    ``adj_x`` is the adjugate under test; when None it is read off the
    derivatives of det(X), one column at a time. Read off the derivatives
    of any f, it gives X * adj = f * Id only for f a constant times det(X),
    and the coefficient check pins the constant to 1, so a zero or scaled
    determinant fails the identity.

    Each entry of P is compared with 0 and det(X) as soon as it is formed
    and then dropped, so a passing run holds det(X), one column of the
    adjugate and one entry of P. An entry that is neither is kept, so that
    the diagonal differences are still decided exactly.
    """
    gens = graph_ideal_generators(n, prod)
    if adj_x is not None:
        if adj_x.n != n:
            raise ValueError(f"size mismatch: {n} vs {adj_x.n}")
        if not _is_symmetric(adj_x.entries):
            return PairChecks(len(gens), "Y -> adj(X) needs a symmetric adjugate; the one given is not", False)
    xm = generic_sym_matrix(n, "X")
    x = [[e.terms for e in row] for row in xm.entries]
    det = det_sym(xm).terms
    if adj_x is None:
        columns: Iterable[list] = _adjugate_columns(n, det)
    else:
        columns = ([row[j].terms for row in adj_x.entries] for j in range(n))
    # P in small: each entry becomes its place among the distinct values of
    # P met so far, which start with 0 and det(X); two entries get the same
    # int exactly when they are equal, and a passing run keeps no entry
    kept: list[dict] = [{}, det]
    shadow = [[0] * n for _ in range(n)]
    for j, column in enumerate(columns):
        for i in range(n):
            entry: dict[int, Scalar] = {}
            for x_ik, adj_kj in zip(x[i], column):
                _mul_into(entry, x_ik, adj_kj)
            if entry not in kept:
                kept.append(entry)
            shadow[i][j] = kept.index(entry)
    residual = next((_NONZERO + str(g) for g, v in zip(gens, _at_generator_places(shadow)) if v), None)
    diagonal = sum(1 << _FIELD_BITS * _slot(xvar(i, i)) for i in range(1, n + 1))
    identity = det.get(diagonal) == 1 and shadow == [[int(i == j) for j in range(n)] for i in range(n)]
    return PairChecks(len(gens), residual, identity)


def numeric_checks(
    n: int, trials: int, seed: int, executor=None, prod: Optional[SymbolicMatrix] = None
) -> PairChecks:
    """Both numeric checks on the same exact samples.

    Sample t is a random integer symmetric M with det M != 0, drawn from
    ``seed * 1_000_003 + t``, with det M and adj M from one elimination,
    and P = M * adj M formed once. The adjugate identity compares P with
    det M * Id. At X = M, Y = adj M each generator of X * Y (``prod``,
    built when None) takes the value of P at its place. Trials fan out
    over ``executor`` when given, in deterministic order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gens = graph_ideal_generators(n, prod)

    def trial(t: int) -> tuple[Optional[str], bool]:
        m, det, adj = _invertible_symmetric(random.Random(seed * 1_000_003 + t), n)
        p = _product(m, adj)
        identity = p == [[det if i == j else 0 for j in range(n)] for i in range(n)]
        for g, v in zip(gens, _at_generator_places(p)):
            if v:
                return f"trial {t}: generator {g} evaluates to nonzero", identity
        return None, identity

    runner = executor.map if executor is not None else map
    residual, identity = None, True
    for failure, ok in runner(trial, range(trials)):
        residual = residual or failure
        identity = identity and ok
    return PairChecks(len(gens), None if residual is None else _NONZERO + residual, identity)


def verify_graph_vanishing(
    n: int,
    mode: str = "symbolic",
    trials: int = 100,
    seed: int = 0,
    symbolic_cap: int = 4,
    executor=None,
    adj_x: Optional[SymbolicMatrix] = None,
    prod: Optional[SymbolicMatrix] = None,
) -> VanishingReport:
    """Certify that every graph generator vanishes on pairs (M, adj M): the
    graph half of ``symbolic_checks`` or of ``numeric_checks``.

    Symbolic mode is exponential in n and refuses to run past
    ``symbolic_cap`` unless the cap is raised; ``adj_x``, when given, is
    the adjugate of the generic X under test. ``prod`` is X * Y when the
    caller has built it. A nonzero residual raises InvariantViolation
    naming the offending generator.
    """
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f'mode must be "symbolic" or "numeric", got {mode!r}')
    if mode == "numeric":
        checks = numeric_checks(n, trials, seed, executor, prod)
    elif n > symbolic_cap:
        raise ValueError(f"symbolic mode is capped at n <= {symbolic_cap}; raise symbolic_cap to override")
    else:
        checks, trials = symbolic_checks(n, prod, adj_x), 0
    if checks.residual is not None:
        raise InvariantViolation(checks.residual)
    return VanishingReport(n, mode, checks.generators, trials)


def adjugate_identity_holds(n: int, adj_x: Optional[SymbolicMatrix] = None) -> bool:
    """Symbolic check that X * adj(X) = det(X) * Id, that adj(X) is symmetric,
    and that X[1,1]*...*X[n,n] has coefficient 1 in det(X): the identity
    half of ``symbolic_checks``."""
    return symbolic_checks(n, adj_x=adj_x).identity


def adjugate_identity_numeric(n: int, trials: int, seed: int, executor=None) -> bool:
    """Exact spot check of M * adj(M) = det(M) * Id on random nonsingular
    symmetric M: the identity half of ``numeric_checks``, on the samples
    that graph vanishing uses."""
    return numeric_checks(n, trials, seed, executor).identity


# ------------------------------------------------------------- rational witnesses

def matrix_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over the rationals of an int/Fraction matrix of any shape,
    by forward elimination alone."""
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("matrix rows have unequal lengths")
        for x in row:
            _exact(x)
    return _eliminate(rows, adjugate=False)[0]


class _RationalSymMatrixFields(NamedTuple):
    n: int
    rows: tuple[tuple[Fraction, ...], ...]


class RationalSymMatrix(_RationalSymMatrixFields):
    """Symmetric matrix of exact rationals."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[tuple[Fraction, ...], ...]) -> "RationalSymMatrix":
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n} x {n} entries")
        if not _is_symmetric(rows):
            raise ValueError("matrix is not symmetric")
        return super().__new__(cls, n, rows)

    @classmethod
    def _make(cls, fields) -> "RationalSymMatrix":  # _replace and _make validate too
        return cls(*fields)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RationalSymMatrix":
        """Entries must be ints or Fractions: ``Fraction(0.1)`` would take the
        float's binary value, not 1/10, so a float raises TypeError."""
        from fractions import Fraction

        return cls(len(rows), tuple(tuple(Fraction(_exact(x)) for x in row) for row in rows))

    def rank(self) -> int:
        return matrix_rank(self.rows)


def _witness_rows(n: int, r: int, seed: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer rows of M = A D A^T and det(A)^2 N = adj(A)^T E adj(A), and det(A);
    D weights the first r columns of A, E the last n - r rows of adj(A)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"rank r out of range 0..{n}, got {r}")
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        _, det, adj = _eliminate(a)
        if adj is not None:
            break
    d = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(r)]
    e = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n - r)]
    # both triangles are computed, so that a symmetry check still means something
    ad = [list(map(mul, row, d)) for row in a]  # map stops at the first r columns
    m = [[sum(map(mul, x, y)) for y in a] for x in ad]
    cols = [col[r:] for col in zip(*adj)]  # the last n - r rows of adj(A), transposed
    ce = [list(map(mul, col, e)) for col in cols]
    w = [[sum(map(mul, x, y)) for y in cols] for x in ce]
    return m, w, det


def witness_rank_pair(n: int, r: int, seed: int = 0) -> tuple[RationalSymMatrix, RationalSymMatrix]:
    """Random pair (M, N) of symmetric rationals with rank r and n - r and M N = 0.

    M = A D A^T and N = A^-T E A^-1 for a random invertible integer A and
    complementary nonzero diagonals D, E, so the ranks are exact and the
    product vanishes identically. Deterministic in the seed.
    """
    from fractions import Fraction

    m, w, det = _witness_rows(n, r, seed)
    scale = det * det
    return (
        RationalSymMatrix.from_rows(m),
        RationalSymMatrix.from_rows([[Fraction(x, scale) for x in row] for row in w]),
    )


def witness_pair_valid(n: int, r: int, seed: int = 0) -> bool:
    """M and N are symmetric, their ranks are exactly (r, n - r) and every
    entry of M * N vanishes; checked on the integer M and det(A)^2 N."""
    m, w, _ = _witness_rows(n, r, seed)
    return (
        _is_symmetric(m)
        and _is_symmetric(w)
        and matrix_rank(m) == r
        and matrix_rank(w) == n - r
        and not any(v for row in _product(m, w) for v in row)
    )
