"""Exact sparse polynomials over packed monomials, and matrices of them.

Two generic symmetric n x n matrices X and Y are represented over exact
sparse polynomials in the variables X[i,j], Y[i,j] (i <= j). A polynomial is
a dict from monomials to nonzero coefficients. A monomial is a packed
exponent vector (Monagan & Pearce, CASC 2007): one int in which every
variable owns an 8-bit field at a slot that does not depend on n, X and Y
interleaved over the upper triangle column by column. So X[1,1]^2*Y[1,2] is
2 + (1 << 24), the constant monomial is 0, and a product of monomials is the
sum of their ints. Keys are decoded, by walking their set bits, only to
print, substitute or read off variables and bidegrees. ``symbolic`` keeps
X * Y as bilinear vectors, keyed by a monomial's two fields, and
``_bilinear_poly`` packs one into a polynomial. One kernel,
``_mul_into``, adds products in place (out[ma + mb] += ca * cb) for ``*``,
``substitute``, ``mat_mul`` and the determinant DP; sums go through
``exact._add_into``.
Exponents stay below 2^7: every ``SparsePoly`` (so every product and
``mat_mul`` entry), every partial product of ``substitute`` and every DP
minor passes through ``_checked``, which raises ValueError at the top bit of
a field.
Fields below 2^7 sum to at most 254, so nothing carries before the check.
A single product keeps its leading term, so it raises whenever a product of
terms reaches 2^7; in a sum of products a term past 2^7 that cancels goes
unseen, and the exact result is returned.

Polynomial entries cannot be divided, so ``determinant`` runs a
division-free DP over column subsets, O(2^k * k) ring operations, which
serves only the small symbolic sizes; it holds two popcount levels of minors
at a time. ``_p11_p12`` reads two entries of X * adj(X) off det(X), one
linear pass each. ``_fixed_by`` tells whether relabelling the variables of
X by a permutation of the indices fixes a polynomial.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import isqrt
from operator import or_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .exact import InvariantViolation, Scalar, _add_into, _exact, _is_scalar


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


def _bilinear_poly(vec: Mapping[int, Scalar], n: int) -> "SparsePoly":
    """The polynomial of a bilinear vector over n x n matrices, whose key
    s * n(n+1)/2 + t stands for X's variable in field 2s times Y's in field
    2t + 1 (``_slot``)."""
    base, x, y = n * (n + 1) // 2, 2 * _FIELD_BITS, _FIELD_BITS
    return SparsePoly({1 << x * (k // base) | 1 << x * (k % base) + y: c for k, c in vec.items()})


def _monomial(variables: Iterable[VarId]) -> int:
    """Packed key of the product of the variables."""
    return sum(1 << _FIELD_BITS * _slot(v) for v in variables)


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


class SparsePoly:
    """Multivariate polynomial as a dict from packed monomials to coefficients.

    A monomial is an int holding each variable's exponent in its own 8-bit
    field (see ``_slot``); the constant monomial is 0 and a product of
    monomials is a sum of keys. Coefficients are int or Fraction and never
    zero; the zero polynomial ``SparsePoly()`` has an empty dict and is the
    only false one. The constructor checks the dict it is given and keeps a
    copy: a negative or non-int key, an exponent of 2^7 or more or a zero
    coefficient raises ValueError, so no field ever carries into the next
    one. ``terms`` is a read-only view of that copy, so a polynomial never
    changes once built. Mixed arithmetic with ints and Fractions is
    supported; a float raises TypeError. ``substitute`` also evaluates: at a
    point of scalars its result is the value as a constant polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[int, Scalar]] = None):
        terms = {} if terms is None else dict(terms)
        for key, c in terms.items():
            if not isinstance(key, int) or key < 0:
                raise ValueError(f"a monomial is a nonnegative int, got {key!r}")
            if not _exact(c):
                raise ValueError(f"zero coefficient at monomial {key}")
        self.terms: Mapping[int, Scalar] = MappingProxyType(_checked(terms))

    @classmethod
    def constant(cls, c: Scalar) -> "SparsePoly":
        return cls({0: c} if _exact(c) else {})

    @classmethod
    def variable(cls, v: VarId) -> "SparsePoly":
        return cls({_monomial((v,)): 1})

    # ------------------------------------------------------------------ ring ops

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        return SparsePoly(out)

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


def swap_sides(p: SparsePoly) -> SparsePoly:
    """Exchange the X and Y variables throughout."""
    # X owns the even fields and Y the odd ones, so a swap exchanges
    # neighbouring fields; a bijection on monomials, so no two terms collide
    xs = _fields_mask(b"\xff\x00", max(p.terms, default=0))
    return SparsePoly({
        (key & xs) << _FIELD_BITS | (key >> _FIELD_BITS) & xs: c for key, c in p.terms.items()
    })


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


def _fixed_by(det: Mapping[int, Scalar], n: int, sigma: Sequence[int]) -> bool:
    """Whether the relabelling X[i,j] -> X[sigma i, sigma j] of the generic
    symmetric n x n X (sigma a permutation of 0..n-1) fixes det, a terms dict.

    The relabelling moves whole fields and fixes every other bit. The fields
    that move by the same distance share one mask, so a key is relabelled by
    a few mask-and-shift operations. It is injective on keys, so det is fixed
    exactly when every relabelled key is in det with the same coefficient,
    and no relabelled copy of det is built.
    """
    moves: dict[int, int] = {}  # shift distance -> mask of the fields it moves
    for i in range(n):
        for j in range(i, n):
            source = _FIELD_BITS * _slot(xvar(i + 1, j + 1))
            distance = _FIELD_BITS * _slot(xvar(sigma[i] + 1, sigma[j] + 1)) - source
            if distance:
                moves[distance] = moves.get(distance, 0) | 0xFF << source
    keep = ~reduce(or_, moves.values(), 0)
    up = [(mask, d) for d, mask in moves.items() if d > 0]
    down = [(mask, -d) for d, mask in moves.items() if d < 0]
    get = det.get
    for key, c in det.items():
        image = key & keep
        for mask, d in up:
            image |= (key & mask) << d
        for mask, d in down:
            image |= (key & mask) >> d
        if get(image) != c:
            return False
    return True


def _p11_p12(n: int, det: Mapping[int, Scalar]) -> Iterator[dict]:
    """P[1,1], then P[1,2] if n > 1, of P = X * adj(X) for the generic
    symmetric X, with adj[i][i] = d det/d X[i,i] and adj[i][j] = d det/d
    X[i,j] / 2 read off det (a terms dict fixed by S_n). So P[1,j] = sum_k
    X[1,k] d det/d X[k,j], halved for k != j: one pass over det, no product.
    X[1,k] d/d X[1,k] scales a term by its exponent e_1k, so P[1,1] keeps
    det's keys, each coefficient times (2 e_11 + sum_{k>1} e_1k) / 2, that
    sum being the key's row-1 off-diagonal bytes mod 255 (det has degree
    below 255). P[1,2] moves one power of X[2,k] to X[1,k]: at most n keys
    a term, with cancellation. The off-diagonal variables are one S_n-orbit,
    so an odd derivative is sought at X[1,2] alone and raises InvariantViolation.
    """
    x12 = _FIELD_BITS * _slot(xvar(1, 2))
    if n > 1 and any(c * (key >> x12 & 0xFF) % 2 for key, c in det.items()):
        raise InvariantViolation(f"d det/d {xvar(1, 2)} has an odd coefficient")
    units = [_monomial((xvar(1, k),)) for k in range(1, n + 1)]
    off = 0xFF * sum(units[1:])  # the fields of X[1,2], .., X[1,n]; X[1,1] owns the lowest one
    yield {key: c * (2 * (key & 0xFF) + (key & off) % 255) >> 1 for key, c in det.items() if key & (0xFF | off)}
    if n == 1:
        return
    # (field shift of X[2,k], key change from X[2,k] to X[1,k], halve)
    moves = [(_FIELD_BITS * _slot(xvar(2, k)), unit - _monomial((xvar(2, k),)), int(k != 2))
             for k, unit in enumerate(units, 1)]
    out: dict[int, Scalar] = {}
    get = out.get
    for key, c in det.items():
        for shift, change, halve in moves:
            e = key >> shift & 0xFF
            if e:
                v = get(key + change, 0) + (c * e >> halve)
                if v:
                    out[key + change] = v
                else:
                    del out[key + change]
    yield out


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
        for row in entries:
            for e in row:
                if not isinstance(e, SparsePoly):
                    raise TypeError(f"entries must be SparsePoly, got {type(e).__name__}")
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
            row.append(SparsePoly(out))
        rows.append(tuple(row))
    return SymbolicMatrix(n, tuple(rows))


def det_sym(a: SymbolicMatrix) -> SparsePoly:
    """Determinant as a sparse polynomial."""
    return _as_poly(determinant(a.entries))
