"""Exact kernels: binomial coefficients, Pfaffians of skew matrices, the
determinant and adjugate of an integer matrix, and ranks over Q.

Everything here takes and returns arbitrary-precision ``int``; there is no
fixed-width fast path. The rank kernels also take ``Fraction`` entries, and
``_exact`` refuses a float. Every kernel is fraction-free. The Pfaffian's
2x2-block steps and the Bareiss Gauss-Jordan steps of ``_eliminate`` on
[B | I] (Math. Comp. 22, 1968) divide only exactly, by the previous pivot.
Every rank over Q comes from ``_reduce_into``, which divides each vector by
its content: a factor common to the rows, as det(A)^2 in a witness, goes
at once, where Bareiss's k x k minors would carry its k-th power.
``_rank_mod`` alone works over F_p; its rank is a lower bound of the
rational one. Nothing here builds a ``Fraction``, so ``fractions`` is never
imported.
"""

from __future__ import annotations

import math
import sys
from operator import index
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction


class InvariantViolation(RuntimeError):
    """A computed value broke a structural guarantee of the model."""


def binomial(a: int, b: int) -> int:
    """C(a, b), extended by 0 when b < 0 or b > a."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


class _SkewMatrixFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class SkewMatrix(_SkewMatrixFields):
    """Square antisymmetric integer matrix (zero diagonal forced). Entries
    go through ``operator.index``, so a float or Fraction raises TypeError
    instead of being truncated."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> "SkewMatrix":
        rows = tuple(tuple(map(index, row)) for row in rows)
        k = len(rows)
        for row in rows:
            if len(row) != k:
                raise ValueError("matrix is not square")
        for i in range(k):
            if rows[i][i] != 0:
                raise ValueError("matrix is not antisymmetric: nonzero diagonal")
            for j in range(i + 1, k):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not antisymmetric")
        return super().__new__(cls, rows)

    @classmethod
    def _make(cls, fields) -> "SkewMatrix":  # _replace and _make validate too
        return cls(*fields)

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def from_upper(cls, size: int, upper) -> "SkewMatrix":
        """Build from ``upper(i, j)`` giving the entries above the diagonal."""
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = upper(i, j)
                rows[i][j] = v
                rows[j][i] = -v
        return cls(rows)


MatrixLike = Union[SkewMatrix, Sequence[Sequence[int]]]
Scalar = Union[int, "Fraction"]


def _is_scalar(x: object) -> bool:
    """x is an int or a Fraction. A Fraction exists only once ``fractions`` is
    loaded, so the check does not import it."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _exact(x: Scalar) -> Scalar:
    """x when it is an int or a Fraction; a float has no exact value: TypeError."""
    if not _is_scalar(x):
        raise TypeError(f"exact arithmetic takes int or Fraction, got {type(x).__name__}")
    return x


def _coerce(matrix: MatrixLike) -> SkewMatrix:
    if isinstance(matrix, SkewMatrix):
        return matrix
    return SkewMatrix(matrix)


def _pfaffian_pivots(skew: SkewMatrix, swap: bool, closed: bool = False) -> Iterator[int]:
    """The pivots of fraction-free 2x2-block elimination, signed by the swaps
    so far; the last one is the Pfaffian.

    The Pfaffian analogue of Bareiss: after the pivot block (p, p + 1) is
    eliminated, each remaining upper entry (i, j) is the Pfaffian of the
    principal minor on 0..p+1, i, j (the Pfaffian Sylvester identity), so the
    division by the previous pivot is exact, and with no swap the pivot of
    block p is the leading principal Pfaffian on 0..p+1. A zero pivot raises
    InvariantViolation unless ``swap``; then a later index is swapped in,
    which negates the result, or, if there is none, 0 is the last pivot.

    With ``closed`` (never with ``swap``) the last index z is left out of
    the blocks, and the size may be odd. Before block p, and after the last
    block when one index p is left over, the entry (p, z) is yielded too: the
    Pfaffian on 0..p, z. So the values are the Pfaffians of the leading j
    indices, j = 1..size-1, each odd j closed by z.
    """
    k = skew.size
    end = k - closed  # z = end when closed
    if end % 2 and not closed:
        raise ValueError("pfaffian requires even dimension")
    a = [list(row) for row in skew.rows]  # only entries above the diagonal stay current
    sign, prev = 1, 1
    for p in range(0, end - 1, 2):
        if closed:
            yield a[p][end]
        q = p + 1
        if not a[p][q]:
            if not swap:
                raise InvariantViolation(f"the leading principal Pfaffian of size {q + 1} is zero")
            r = next((j for j in range(q, k) if a[p][j]), None)
            if r is None:
                yield 0
                return
            for i in range(p, k):  # restore the lower triangle, then swap q and r
                for j in range(i + 1, k):
                    a[j][i] = -a[i][j]
            a[q], a[r] = a[r], a[q]
            for row in a:
                row[q], row[r] = row[r], row[q]
            sign = -sign
        row_p, row_q = a[p], a[q]
        piv = row_p[q]
        for i in range(q + 1, k):
            x, y = row_p[i], row_q[i]
            a[i][i + 1:] = [
                (piv * v - x * b + y * c) // prev
                for v, b, c in zip(a[i][i + 1:], row_q[i + 1:], row_p[i + 1:])
            ]
        prev = piv
        yield sign * piv
    if closed and end % 2:
        yield a[end - 1][end]


def pfaffian(matrix: MatrixLike) -> int:
    """Pfaffian of an even-size skew matrix by fraction-free 2x2-block elimination."""
    pf = 1
    for pf in _pfaffian_pivots(_coerce(matrix), swap=True):
        pass
    return pf


def leading_pfaffians(matrix: MatrixLike) -> list[int]:
    """Pfaffians of the leading principal blocks of sizes 2, 4, .., k, from the
    one elimination of ``pfaffian``; a zero one raises InvariantViolation."""
    return list(_pfaffian_pivots(_coerce(matrix), swap=False))


def _closed_leading_pfaffians(matrix: MatrixLike) -> list[int]:
    """The Pfaffians of the leading j indices of a size-k skew matrix, j =
    1..k-1, each odd j closed by the last index; a zero pivot raises
    InvariantViolation."""
    return list(_pfaffian_pivots(_coerce(matrix), swap=False, closed=True))


def pfaffian_reference(matrix: MatrixLike) -> int:
    """Naive Pfaffian by expansion along the first index (oracle, O((k-1)!!))."""
    skew = _coerce(matrix)
    k = skew.size
    if k % 2:
        raise ValueError("pfaffian requires even dimension")
    rows = skew.rows

    def expand(active: tuple[int, ...]) -> int:
        if not active:
            return 1
        first = active[0]
        total = 0
        sign = 1
        for pos in range(1, len(active)):
            entry = rows[first][active[pos]]
            if entry:
                rest = active[1:pos] + active[pos + 1:]
                total += sign * entry * expand(rest)
            sign = -sign
        return total

    return expand(tuple(range(k)))


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int, Optional[list[list[int]]]]:
    """(rank, det, adj) of an integer matrix B; det is 0 and adj is None
    unless B is square of full rank.

    Bareiss's fraction-free Gauss-Jordan on [B | I]: every entry stays a
    minor, so each division is exact, and at full rank the blocks end as
    (+-det B) * I and +-adj B.

    A step updates only live columns. Left of its pivot a row holds 0, or
    its own earlier pivot, and neither is read again. Column j of I stays
    prev * e_j, prev the last pivot, in the row that started as row j, until
    that row is a pivot row; only then is it appended, and the adjugate's
    columns are put back in order at the end.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = [list(row) for row in rows]
    origin = list(range(nrows))  # the row of I that each row started beside
    units: list[int] = []  # the columns of I appended so far
    rank, prev, sign = 0, 1, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            origin[rank], origin[pivot] = origin[pivot], origin[rank]
            sign = -sign
        units.append(origin[rank])
        for r, row in enumerate(work):
            row.append(prev if r == rank else 0)
        prow = work[rank]
        lead, live = prow[col], prow[col + 1:]
        for r, row in enumerate(work):
            if r != rank:
                f = row[col]
                row[col + 1:] = [(lead * a - f * b) // prev for a, b in zip(row[col + 1:], live)]
        prev = lead
        rank += 1
    if rank != nrows or nrows != ncols:
        return rank, 0, None
    place = sorted(range(len(units)), key=units.__getitem__)
    return rank, sign * prev, [[sign * row[ncols + k] for k in place] for row in work]


def _rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p, p prime, of an integer matrix: at most its rank over
    the rationals, since a minor that is nonzero mod p is nonzero. Gaussian
    elimination on the residues, which stay below p; each step updates only
    the rows below its pivot and the columns right of it."""
    work = [[x % p for x in row] for row in rows]
    nrows = len(work)
    rank = 0
    for col in range(len(work[0]) if nrows else 0):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv, live = pow(prow[col], -1, p), prow[col + 1:]
        for row in work[rank + 1:]:
            f = row[col] * inv % p
            if f:
                row[col + 1:] = [(a - f * b) % p for a, b in zip(row[col + 1:], live)]
        rank += 1
    return rank


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


def _reduce_into(basis: dict, vectors: Iterable[Mapping]) -> dict:
    """Extend ``basis`` in place by the vectors and return it.

    ``basis`` maps a pivot key to the integer vector whose largest key it is.
    Fraction-free row reduction: a vector scaled to integers on entry is
    reduced by v <- a * v - b * other at each pivot it shares, a and b the
    pivot coefficients over their gcd, and divided by its content; what
    survives starts a new pivot.
    """
    for vec in vectors:
        scale = math.lcm(*(c.denominator for c in vec.values()))
        v = {k: c.numerator * (scale // c.denominator) for k, c in vec.items() if c}
        while v:
            pivot = max(v)
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = v
                break
            g = math.gcd(v[pivot], other[pivot])
            a, b = other[pivot] // g, v[pivot] // g
            if a != 1:
                for k in v:
                    v[k] *= a
            _add_into(v, other, -b)
            g = math.gcd(*v.values())
            if g > 1:
                for k in v:
                    v[k] //= g
    return basis


def sparse_rank(vectors: Iterable[Mapping]) -> int:
    """Rank over the rationals of sparse int/Fraction vectors (dict keyed)."""
    return len(_reduce_into({}, ({k: _exact(c) for k, c in v.items()} for v in vectors)))


def matrix_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over the rationals of an int/Fraction matrix of any shape:
    the ``sparse_rank`` of its rows."""
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("matrix rows have unequal lengths")
    return sparse_rank(dict(enumerate(row)) for row in rows)
