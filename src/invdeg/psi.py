"""Pfaffian-valued psi functions on increasing index sequences.

``psi_seq`` assigns an integer to every strictly increasing sequence drawn
from {1..n}: the empty sequence gives 1, singletons give powers of two, pairs
give binomial partial sums, and longer sequences give the Pfaffian of the
skew matrix of pair values (bordered by the singleton values when the length
is odd). ``p_alpha`` evaluates the complement inside {1..n}, which is a
polynomial in n of degree equal to the weight of alpha. Both take a sequence
as any iterable of ints; every entry goes through ``operator.index``, so a
float raises TypeError instead of being truncated.

``psi_table`` builds every pair value up to n by the Pascal recurrence
psi(i, j+1) = 2 psi(i, j) + C(i+j-1, i-1): O(n^2) big-integer operations,
where summing ``psi_pair`` (the closed-form binomial sum, left as the
independent check) entry by entry costs O(n^3) binomials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import index
from typing import Iterable, Iterator, NamedTuple, Optional

from .exact import SkewMatrix, binomial, pfaffian


def psi_single(i: int) -> int:
    """psi of the singleton {i}: 2**(i-1)."""
    if i < 1:
        raise ValueError(f"psi_single requires i >= 1, got {i}")
    return 1 << (i - 1)


def psi_pair(i: int, j: int) -> int:
    """psi of the pair {i, j}: sum of C(i+j-2, k) for i <= k <= j-1."""
    if i < 1:
        raise ValueError(f"psi_pair requires i >= 1, got {i}")
    if i >= j:
        raise ValueError("psi_pair requires i < j")
    return sum(binomial(i + j - 2, k) for k in range(i, j))


class PsiTable(NamedTuple):
    """Precomputed singleton and pair psi values for indices up to n.

    ``pairs[i-1][j-1]`` is psi_pair(i, j) for i < j; the diagonal and the
    lower triangle (i >= j) are zero.
    """

    n: int
    singles: tuple[int, ...]
    pairs: tuple[tuple[int, ...], ...]

    def single(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside table range 1..{self.n}")
        return self.singles[i - 1]

    def pair(self, i: int, j: int) -> int:
        if i >= j:
            raise ValueError("psi_pair requires i < j")
        if not (1 <= i and j <= self.n):
            raise ValueError(f"indices ({i}, {j}) outside table range 1..{self.n}")
        return self.pairs[i - 1][j - 1]


@lru_cache(maxsize=2)
def psi_table(n: int) -> PsiTable:
    """Build the psi lookup table for ambient bound n. The last two tables
    stay cached; a sweep over n reads only the table of its largest n, so it
    holds one, not every table (O(n^4) bits in all).

    Pascal's rule gives psi(i, j+1) = 2 psi(i, j) + C(i+j-1, i-1) from
    psi(i, i+1) = C(2i-1, i), and the binomial steps along j as C(i+j, i-1)
    = C(i+j-1, i-1) (i+j) / (j+1), an exact division. So each entry costs
    one doubling, one multiply and one divide, O(n^2) big-integer operations
    in all, and no ``psi_pair`` call is made.
    """
    if n < 0:
        raise ValueError(f"psi_table requires n >= 0, got {n}")

    def row(i: int) -> Iterator[int]:
        yield from repeat(0, i)
        value, step = binomial(2 * i - 1, i), binomial(2 * i, i - 1)
        for j in range(i + 1, n + 1):
            yield value
            value, step = 2 * value + step, step * (i + j) // (j + 1)

    singles = tuple(psi_single(i) for i in range(1, n + 1))
    pairs = tuple(tuple(row(i)) for i in range(1, n + 1))
    return PsiTable(n, singles, pairs)


def _as_entries(alpha: Iterable[int]) -> tuple[int, ...]:
    entries = tuple(map(index, alpha))
    prev = 0
    for e in entries:
        if e <= prev:
            raise ValueError(f"entries must be strictly increasing and >= 1, got {entries}")
        prev = e
    return entries


def psi_seq(alpha: Iterable[int], table: Optional[PsiTable] = None) -> int:
    """psi of an increasing sequence: Pfaffian of its pair matrix.

    Even length r uses the r x r matrix of pair values; odd length borders it
    with a row and column of singleton values. The empty sequence gives 1.
    """
    entries = _as_entries(alpha)
    r = len(entries)
    if r == 0:
        return 1
    if table is None:
        table = psi_table(entries[-1])
    elif entries[-1] > table.n:
        raise ValueError(f"entry {entries[-1]} exceeds table range 1..{table.n}")
    if r == 1:
        return table.single(entries[0])
    if r % 2 == 0:
        skew = SkewMatrix.from_upper(r, lambda k, l: table.pair(entries[k], entries[l]))
    else:
        def upper(k: int, l: int) -> int:
            if k == 0:
                return table.single(entries[l - 1])
            return table.pair(entries[k - 1], entries[l - 1])

        skew = SkewMatrix.from_upper(r + 1, upper)
    return pfaffian(skew)


def p_alpha(alpha: Iterable[int], n: int) -> int:
    """psi of the complement of alpha inside {1..n}; 0 if alpha is not contained."""
    if n < 0:
        raise ValueError(f"p_alpha requires n >= 0, got {n}")
    entries = _as_entries(alpha)
    if entries and entries[-1] > n:
        return 0
    inside = set(entries)
    complement = tuple(e for e in range(1, n + 1) if e not in inside)
    return psi_seq(complement, psi_table(n))
