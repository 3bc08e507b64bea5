"""Multidegrees of the inverse-pairs variety of symmetric matrices.

For n x n symmetric matrices, the closure of the set of pairs (M, inverse of
M) is a subvariety of a product of two projective spaces of dimension
m = n(n+1)/2 each; its class there is recorded by the coefficient list
``gamma_degrees``. The pairs whose product vanishes form the boundary, with
coefficients ``sigma_coefficients``; both are assembled from ``beta``, a sum
of products of psi values over complementary index subsets. ``sdp_degree``
restricts that sum to subsets of fixed size and is the algebraic degree of
semidefinite programming.

Every whole coefficient list (``beta_vector`` and all built on it, the
rows of ``mldegree.ml_table``, the rank table of ``sdp_degree``) is read
off G(t, s) = sum over subsets a of s^|a| t^weight(a) psi(a) psi(complement),
one Pfaffian of size n + 1 or n + 2 by minor summation. Pair values do not
depend on n, so ``_generating_values`` reads G of every n off one
elimination, even n at its pivots and, when both parities are asked for,
odd n in the column of one extra index, and ``_expansions`` decodes the
base-2^K digits of G(2^K, s), s = 1 or, for ``sdp_degree``, a power of
2^K that keeps the subset sizes apart. ``_gamma_prefixes`` needs only
beta(n, 0..k-1) and visits the subsets of weight below k (see
``_light_psi``); psi of each complement comes from the integral inverse of
a leading block of the bordered pair matrix. One pass serves many n: the
psi expansion is shared, and the inverses of all the nested blocks come
from one bordering chain (``_nested_inverses``), O(s^2) integer work per
step. Neither engine stores a 2**n table; the public ``psi.psi_seq`` route
stays independent to check them against.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import InvariantViolation, SkewMatrix, _closed_leading_pfaffians, leading_pfaffians
from .psi import psi_table


def sym_dimension(n: int) -> int:
    """Dimension m = n(n+1)/2 of the space of symmetric n x n matrices."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (n + 1) // 2


def _pair_matrix(size: int) -> list[list[int]]:
    """Bordered psi pair matrix on the indices 0..size.

    Index j with 1 <= j <= size stands for the element j, with pair values
    from the cached ``psi_table(size)``; index 0 is the border used to close
    off odd subsets, with value psi_single(j) against every real index j.
    """
    table = psi_table(size)
    w = [[0, *table.singles]] + [[0, *row] for row in table.pairs]
    for i in range(size + 1):
        for j in range(i):
            w[i][j] = -w[j][i]
    return w


def _expand_pfaffians(w: list[list[int]], masks: Iterable[int]) -> dict[int, int]:
    """The Pfaffian of w on the index set of each mask, keyed by mask.

    Expansion along the lowest set bit reads the masks with two bits fewer,
    so ``masks`` must be increasing and hold every such smaller mask. Masks
    of odd popcount are skipped; the empty mask has Pfaffian 1.
    """
    pf = {0: 1}
    for mask in masks:
        if mask.bit_count() & 1 or not mask:
            continue
        low = mask & -mask
        row = w[low.bit_length() - 1]
        rest = mask ^ low
        total = 0
        sign = 1
        r = rest
        while r:
            b = r & -r
            entry = row[b.bit_length() - 1]
            if entry:
                sub = pf[rest ^ b]
                if sign > 0:
                    total += entry * sub
                else:
                    total -= entry * sub
            sign = -sign
            r ^= b
        pf[mask] = total
    return pf


def _generating_matrix(n: int, t: int, s: int = 1, closed: bool = False) -> SkewMatrix:
    """The skew matrix whose Pfaffian is G(t, s) = sum of s^|a| t^weight(a)
    psi(a) psi(complement of a) over subsets a of {1..n}, at integers t and s,
    by minor summation (Ishikawa-Wakayama): Pf(A + B) = sum_I eps(I) Pf(A_I)
    Pf(B_(complement of I)).

    B is the bordered pair matrix; A is B with entry (p, q) times -(-1)^(p+q),
    cancelling eps(I), and each real index l scaled by t^l s. For odd n, A and
    B share the border: (border, 1..n). For even n, a and its complement are
    both even or both odd, so G = Pf(1..n) - Pf(A0, 1..n, B0) with borders A0
    of A and B0 of B. A Pfaffian is linear in each entry, so this is the one
    Pfaffian on (A0, B0, 1..n) with 1 at (A0, B0): row A0 expands to Pf(1..n)
    plus the Pfaffian with 0 there, -Pf(A0, 1..n, B0), since moving B0 past n
    labels is even and shifting the labels by one negates row A0.

    ``closed`` takes the even layout for either parity and appends an index
    X joined to A0 and B0 by 1 each. Expanding along X, Pf(A0, B0, 1..n, X)
    is Pf(B0, 1..n) - Pf(A0, 1..n), and the A0 entries carry the opposite
    sign to the shared border's, every label sitting one place further on,
    so for odd n this is G(t, s) with the shared border split in two.
    """
    w = _pair_matrix(n)
    # point: (row of w, scale of its A entries (0 if outside A), 1 if in B else 0)
    border = [(0, 1, 1)] if n & 1 and not closed else [(0, 1, 0), (0, 0, 1)]
    points = border + [(label, t ** label * s, 1) for label in range(1, n + 1)]

    def upper(p: int, q: int) -> int:
        if q == len(points):  # X, joined to the two borders only
            return int(p < 2)
        (lp, ap, bp), (lq, aq, bq) = points[p], points[q]
        # the last term is the 1 at (A0, B0), where w is 0; even layout only
        return w[lp][lq] * (bp * bq + (ap * aq if (p + q) & 1 else -ap * aq)) + (q < len(border))

    return SkewMatrix.from_upper(len(points) + closed, upper)


def _generating_values(ns: Sequence[int], t: int, s: int = 1) -> list[int]:
    """G(t, s) of ``_generating_matrix`` for each n of ``ns``, from one
    elimination.

    The matrix of n, with its borders first, is the leading principal block
    of size n + 1 (odd n) or n + 2 (even n) of the matrix of every larger n
    of the same parity, so when ``ns`` holds one parity, G(t, s) is a pivot
    of the elimination of its largest n. When it holds both, the closed
    matrix of its largest n serves all: even n is the pivot on (A0, B0,
    1..n), and odd n the entry (n, X) just before the block of n is
    eliminated, the Pfaffian on (A0, B0, 1..n, X). At t, s >= 1 every
    leading Pfaffian is a sum of positive terms, so no pivot is zero and no
    swap is needed.
    """
    top = max(ns)
    if len({n & 1 for n in ns}) > 1:
        # the closed Pfaffian on the leading n + 2 indices, (A0, B0, 1..n), is G of n
        values = _closed_leading_pfaffians(_generating_matrix(top, t, s, closed=True))[1:]
    else:
        parity = top & 1
        values = {2 * i + parity: pf for i, pf in enumerate(leading_pfaffians(_generating_matrix(top, t, s)))}
    return [values[n] for n in ns]


def _digits(value: int, k: int, count: int, total: int) -> list[int]:
    """The ``count`` signed base-2^k digits of value, lowest first: the
    coefficients of P with P(2^k) = value, where ``total`` = P(1). A k too
    small for them leaves a remainder or a wrong digit sum, which raises."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:
            digit -= 1 << k
        out.append(digit)
        value = (value - digit) >> k
    if value or sum(out) != total:
        raise InvariantViolation(f"base-2^{k} digits of the generating Pfaffian do not decode to {count} coefficients")
    return out


def _expansions(ns: Sequence[int], stride: int = 0) -> list[list[int]]:
    """For each n of ``ns``, the t^0..t^(n stride + m) coefficients of
    G(t, t^stride), from G(1, 1) and G(2^K, 2^(K stride)). K is two bits
    above the largest G(1, 1), the sum of all coefficients of its n, which
    are nonnegative, so each of them fits in a digit.

    A subset of size j and weight d has a complement of size n - j and
    weight m - d, so digit j stride + d equals digit (n - j) stride + m - d:
    each list reads the same reversed, and one that does not raises
    InvariantViolation."""
    counts = [n * stride + sym_dimension(n) + 1 for n in ns]
    totals = _generating_values(ns, 1)
    k = max(totals).bit_length() + 2
    values = _generating_values(ns, 1 << k, 1 << k * stride)
    out = [_digits(value, k, count, total) for value, count, total in zip(values, counts, totals)]
    for n, digits in zip(ns, out):
        if digits != digits[::-1]:
            raise InvariantViolation(f"the coefficients of the generating Pfaffian of n = {n} are not palindromic")
    return out


def beta_vector(n: int) -> tuple[int, ...]:
    """beta(n, d) for d = 0..m: products of psi over complementary subsets, by weight."""
    return tuple(_expansions([n])[0])


def beta(n: int, d: int) -> int:
    """Sum of psi(alpha) * psi(complement) over subsets of {1..n} of weight d.

    Each call computes the whole vector: 137 calls at n = 16 take about 1.5 s,
    one ``beta_vector(16)`` about 0.01 s. Callers that need many d should
    call ``beta_vector`` once."""
    m = sym_dimension(n)
    if d < 0 or d > m:
        return 0
    return beta_vector(n)[d]


@lru_cache(maxsize=16)
def _rank_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j lists the s^j t^d coefficients of G(t, s), d = 0..m. Subsets of
    size j weigh lo(j) = C(j+1, 2) to hi(j) = m - C(n-j+1, 2), so s = t^stride
    with stride > hi(j) - lo(j+1) puts the rows on disjoint powers of t."""
    m = sym_dimension(n)
    lo = [j * (j + 1) // 2 for j in range(n + 1)]
    hi = [m - lo[n - j] for j in range(n + 1)]
    stride = 1 + max(hi[j] - lo[j + 1] for j in range(n))
    (digits,) = _expansions([n], stride)
    return tuple(
        tuple(digits[j * stride + d] if lo[j] <= d <= hi[j] else 0 for d in range(m + 1))
        for j in range(n + 1)
    )


def sdp_degree(d: int, n: int, r: int) -> int:
    """Algebraic degree of semidefinite programming: the beta(n, d) slice
    over subsets of size n - r. Zero unless 0 < r < n."""
    m = sym_dimension(n)
    if r <= 0 or r >= n or d < 0 or d > m:
        return 0
    return _rank_table(n)[n - r][d]


def sigma_coefficients(n: int) -> tuple[int, ...]:
    """Multidegree coefficients of the zero-product pairs, d = 1..m-1."""
    return beta_vector(n)[1:-1]


def _gamma_from_beta(betas) -> tuple[int, ...]:
    """Alternating partial sums of beta, one per entry; each must stay positive."""
    out: list[int] = []
    acc = 0
    for d, b in enumerate(betas):
        acc = b - acc
        if acc <= 0:
            raise InvariantViolation(f"multidegree positivity violated at d={d}: {acc}")
        out.append(acc)
    return tuple(out)


def gamma_degrees(n: int) -> tuple[int, ...]:
    """Multidegree coefficients of the inverse-pairs variety, d = 0..m-1."""
    return _gamma_from_beta(beta_vector(n)[:-1])


def _nested_inverses(b: list[list[int]]) -> Iterator[list[list[int]]]:
    """Inverses C_s of the leading blocks B_s of sizes s = 2, 4, .., of the
    bordered pair matrix b, by bordering in integers.

    Every leading even block has Pfaffian psi(1..s-1) = 1. Write B_(s+2) =
    [[B_s, U], [-U^T, Z]]; its Schur complement S = Z + U^T C_s U is then
    [[0, 1], [-1, 0]], and with cu0 = C_s u0 and cu1 = C_s u1 the next inverse
    is [[C_s + cu1 cu0^T - cu0 cu1^T, -cu1, cu0], [cu1^T, 0, -1], [-cu0^T, 1, 0]].
    S is antisymmetric, so it is checked by its corner Z01 + u0 . cu1, which
    is Pf(B_(s+2)) / Pf(B_s); a block where it is not 1 raises
    InvariantViolation. Each step is O(s^2).
    """
    c: list[list[int]] = []
    for s in range(0, len(b) - 1, 2):
        u0 = [row[s] for row in b[:s]]
        u1 = [row[s + 1] for row in b[:s]]
        cu0 = [sum(map(mul, row, u0)) for row in c]
        cu1 = [sum(map(mul, row, u1)) for row in c]
        pf = b[s][s + 1] + sum(map(mul, u0, cu1))
        if pf != 1:
            raise InvariantViolation(
                f"bordered pair matrix: the leading block of size {s + 2} has Pfaffian {pf}, expected 1"
            )
        c = [
            [v + p1 * q0 - p0 * q1 for v, q0, q1 in zip(row, cu0, cu1)] + [-p1, p0]
            for row, p0, p1 in zip(c, cu0, cu1)
        ]
        c.append([*cu1, 0, -1])
        c.append([*(-v for v in cu0), 1, 0])
        yield c


def _light_psi(samples: Sequence[tuple[int, int]]) -> Iterator[Iterator[tuple[int, int, int, int]]]:
    """For each (n, k) of ``samples``, in increasing n, an iterator over
    (subset, weight, psi(a), psi(complement of a)) for every subset a of
    {1..n} of weight below k; bit i of ``subset`` stands for element i + 1.
    Each iterator must be consumed before the next is asked for.

    psi(a) is the Pfaffian of the bordered pair matrix B on the mask of a.
    Pair values do not depend on n, so one expansion serves every sample.
    Let N = n for odd n and n + 1 for even n, and C the inverse of the leading
    block of B on 0..N, whose Pfaffian is psi(1..N) = 1; C = adj B is integral,
    and Jacobi's complementary-minor identity gives psi(complement of a) =
    (-1)^(sum T) Pf(C_T) with T = a, plus N for even n, plus the border 0
    when that set is odd. Every C comes from one bordering chain
    (``_nested_inverses``). Both expansions run over masks built from light
    subsets only, a family closed under removing bits, so the cost follows
    the number of light subsets instead of 2**n.
    """
    n_top = max(n for n, _ in samples)
    k_top = max(k for _, k in samples)
    b = _pair_matrix(n_top | 1)
    family = [(0, 0)]
    for e in range(1, min(n_top, k_top - 1) + 1):
        family += [(s | 1 << (e - 1), w + e) for s, w in family if w + e < k_top]
    pf_b = _expand_pfaffians(b, sorted(s << 1 | (s.bit_count() & 1) for s, _ in family))
    inverses = _nested_inverses(b)
    c: list[list[int]] = []
    for n, k in samples:
        while len(c) < (n | 1) + 1:
            c = next(inverses)
        if len(c) != (n | 1) + 1:
            raise ValueError(f"samples must come in increasing order of n, got n={n} too late")
        yield _light_rows([sw for sw in family if sw[1] < k and not sw[0] >> n], n, pf_b, c)


def _light_rows(subsets: list[tuple[int, int]], n: int, pf_b: dict, c: list[list[int]]):
    """The rows of ``_light_psi`` for one n, from pf_b and the inverse C on 0..N."""
    big = len(c) - 1
    masks = [s << 1 | (s.bit_count() & 1) for s, _ in subsets]
    t_masks = expand = masks
    if big > n:  # T gains the index N = n + 1, which is odd, so t_masks are new masks
        t_masks = [s << 1 | 1 << big | (~s.bit_count() & 1) for s, _ in subsets]
        expand = masks + t_masks
    pf_c = _expand_pfaffians(c, sorted(expand))
    for (s, w), mask, t_mask in zip(subsets, masks, t_masks):
        psi_c = pf_c[t_mask]
        yield s, w, pf_b[mask], -psi_c if (w + big - n) & 1 else psi_c


def _gamma_prefixes(samples: Sequence[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """gamma_degrees(n)[:k] for each (n, k) of ``samples``, in increasing n,
    from one ``_light_psi`` pass."""
    for (_, k), rows in zip(samples, _light_psi(samples)):
        betas = [0] * k
        for _, w, psi_a, psi_c in rows:
            betas[w] += psi_a * psi_c
        yield _gamma_from_beta(betas)


class IdentityCoefficient(NamedTuple):
    """One coefficient comparison in the multidegree identity."""

    d: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class MultidegreeIdentityReport(NamedTuple):
    """Per-coefficient record of (t1 + t2) * C_Gamma == t1^m + t2^m + C_Sigma."""

    n: int
    m: int
    coefficients: tuple[IdentityCoefficient, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.coefficients)


def verify_multidegree_identity(n: int) -> MultidegreeIdentityReport:
    """Check (t1 + t2) * C_Gamma against t1^m + t2^m + C_Sigma coefficientwise.

    Both sides are bihomogeneous of total degree m; the coefficient of
    t1^(m-d) t2^d on the left is gamma[d] + gamma[d-1] and on the right is
    beta(n, d), whose d = 0 and d = m entries are the boundary 1's.
    """
    return multidegree_table(n).identity


class MultidegreeTable(NamedTuple):
    """Every multidegree quantity for one n, plus the identity report."""

    n: int
    m: int
    beta: tuple[int, ...]
    gamma_degs: tuple[int, ...]
    sigma_coeffs: tuple[int, ...]
    identity: MultidegreeIdentityReport


def multidegree_table(n: int) -> MultidegreeTable:
    """Assemble beta, gamma, sigma and the identity report for one n from one beta vector."""
    m = sym_dimension(n)
    betas = beta_vector(n)
    gammas = _gamma_from_beta(betas[:-1])
    coeffs = tuple(
        IdentityCoefficient(d, (gammas[d] if d < m else 0) + (gammas[d - 1] if d > 0 else 0), betas[d])
        for d in range(m + 1)
    )
    return MultidegreeTable(n, m, betas, gammas, betas[1:-1], MultidegreeIdentityReport(n, m, coeffs))
