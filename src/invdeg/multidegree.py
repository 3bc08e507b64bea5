"""Multidegrees of the inverse-pairs variety of symmetric matrices.

For n x n symmetric matrices, the closure of the set of pairs (M, inverse of
M) is a subvariety of a product of two projective spaces of dimension
m = n(n+1)/2 each; its class there is recorded by the coefficient list
``gamma_degrees``. The pairs whose product vanishes form the boundary, with
coefficients ``sigma_coefficients``; both are assembled from ``beta``, a sum
of products of psi values over complementary index subsets. ``sdp_degree``
restricts that sum to subsets of fixed size and is the algebraic degree of
semidefinite programming.

The whole vector (``beta_vector`` and all built on it) is read off
G(t) = sum_d beta(n, d) t^d, one or two Pfaffians of size about n by minor
summation, evaluated at t = 2^K and decoded digit by digit; a second
variable for the subset size gives every ``sdp_degree`` of one n the same
way. ``gamma_prefix`` needs only beta(n, 0..k-1) and visits the subsets of
weight below k (see ``_light_psi``). Neither engine stores a 2**n table;
the public ``psi.psi_seq`` route stays independent to check them against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .exact import InvariantViolation, SkewMatrix, _eliminate, pfaffian
from .psi import psi_pair, psi_single


def sym_dimension(n: int) -> int:
    """Dimension m = n(n+1)/2 of the space of symmetric n x n matrices."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (n + 1) // 2


def _pair_matrix(size: int) -> list[list[int]]:
    """Bordered psi pair matrix on the indices 0..size.

    Index j with 1 <= j <= size stands for the element j, with pair value
    psi_pair(i, j); index 0 is the border used to close off odd subsets, with
    value psi_single(j) against every real index j.
    """
    w = [[0] * (size + 1) for _ in range(size + 1)]
    for j in range(1, size + 1):
        w[0][j] = psi_single(j)
        for i in range(1, j):
            w[i][j] = psi_pair(i, j)
    for i in range(size + 1):
        for j in range(i):
            w[i][j] = -w[j][i]
    return w


def _expand_pfaffians(w: list[list[int]], masks: Iterable[int], pf):
    """Fill pf[mask] with the Pfaffian of w on the index set of each mask.

    Expansion along the lowest set bit reads pf at masks with two bits fewer,
    so ``masks`` must be increasing and pf must already hold every such
    smaller mask (pf[0] = 1). Masks of odd popcount are skipped. pf is a list
    indexed by mask or a dict keyed by mask; it is returned.
    """
    for mask in masks:
        if mask.bit_count() & 1:
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


def _generating_value(n: int, t: int, s: int = 1) -> int:
    """G(t, s) = sum of s^|a| t^weight(a) psi(a) psi(complement of a) over
    subsets a of {1..n}, at integers t and s, by Ishikawa-Wakayama minor
    summation: Pf(A + B) = sum over I of eps(I) Pf(A_I) Pf(B_(complement of I)).

    B is the bordered pair matrix; A is B with entry (p, q) times -(-1)^(p+q),
    cancelling eps(I), and each real index l scaled by t^l s. For odd n, A and
    B share the border. For even n, a and its complement are both even (the
    Pfaffian on 1..n) or both odd, which needs a border for A first and one
    for B last; that Pfaffian enters with a minus sign.
    """
    w = _pair_matrix(n)
    real = [(label, t ** label * s, 1) for label in range(1, n + 1)]

    def pf(points: list[tuple[int, int, int]]) -> int:
        # point: (row of w, scale of its A entries (0 if outside A), 1 if in B else 0)
        def upper(p: int, q: int) -> int:
            (lp, ap, bp), (lq, aq, bq) = points[p], points[q]
            return w[lp][lq] * (bp * bq + (ap * aq if (p + q) & 1 else -ap * aq))

        return pfaffian(SkewMatrix.from_upper(len(points), upper))

    if n & 1:
        return pf([(0, 1, 1)] + real)
    return pf(real) - pf([(0, 1, 0)] + real + [(0, 0, 1)])


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


def _coefficients(n: int, count: int, stride: int = 0) -> list[int]:
    """The t^0..t^(count-1) coefficients of G(t, t^stride), from one Pfaffian
    at t = 2^K. K is two bits above G(1, 1), the sum of all coefficients,
    which are nonnegative, so each of them fits in a digit."""
    total = _generating_value(n, 1)
    k = total.bit_length() + 2
    return _digits(_generating_value(n, 1 << k, 1 << k * stride), k, count, total)


def beta_vector(n: int) -> tuple[int, ...]:
    """beta(n, d) for d = 0..m: products of psi over complementary subsets, by weight."""
    return tuple(_coefficients(n, sym_dimension(n) + 1))


def beta(n: int, d: int) -> int:
    """Sum of psi(alpha) * psi(complement) over subsets of {1..n} of weight d.

    Each call computes the whole vector: 137 calls at n = 16 take about 4 s,
    one ``beta_vector(16)`` about 0.03 s. Callers that need many d should
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
    digits = _coefficients(n, n * stride + m + 1, stride)
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


def _light_psi(n: int, k: int) -> list[tuple[int, int, int, int]]:
    """(subset, weight, psi(a), psi(complement of a)) for every subset a of
    {1..n} of weight below k; bit i of ``subset`` stands for element i + 1.

    psi(a) is the Pfaffian of the bordered pair matrix B on the mask of a.
    Let N = n for odd n and n + 1 for even n, and B the bordered matrix on
    0..N. Its Pfaffian is psi(1..N) = 1, so C = B^-1 = adj B is integral,
    and Jacobi's complementary-minor identity gives psi(complement of a) =
    (-1)^(sum T) Pf(C_T) with T = a, plus N for even n, plus the border 0
    when that set is odd. Both expansions run over masks built from light
    subsets only, a family closed under removing bits, so the cost follows
    the number of light subsets instead of 2**n.
    """
    big = n if n & 1 else n + 1
    b = _pair_matrix(big)
    _, det, c = _eliminate(b)
    if det != 1:
        raise InvariantViolation(f"bordered pair matrix on 0..{big} has determinant {det}, expected 1")
    subsets = [(0, 0)]
    for e in range(1, min(n, k - 1) + 1):
        subsets += [(s | 1 << (e - 1), w + e) for s, w in subsets if w + e < k]
    masks = [s << 1 | (s.bit_count() & 1) for s, _ in subsets]
    t_masks = masks
    if big > n:  # T gains the index N = n + 1, which is odd
        t_masks = [s << 1 | 1 << big | (~s.bit_count() & 1) for s, _ in subsets]
    pf_b = _expand_pfaffians(b, sorted(masks)[1:], {0: 1})
    pf_c = _expand_pfaffians(c, sorted(set(masks) | set(t_masks))[1:], {0: 1})
    out = []
    for (s, w), mask, t_mask in zip(subsets, masks, t_masks):
        psi_c = pf_c[t_mask]
        if (w + big - n) & 1:
            psi_c = -psi_c
        out.append((s, w, pf_b[mask], psi_c))
    return out


def gamma_prefix(n: int, k: int) -> tuple[int, ...]:
    """gamma_degrees(n)[:k], computed from beta(n, 0..k-1) alone.

    Only the subsets of {1..n} of weight below k are visited (see
    ``_light_psi``), so for fixed k the cost is polynomial in n and no
    2**n table is built.
    """
    m = sym_dimension(n)
    if not 1 <= k <= m:
        raise ValueError(f"prefix length out of range for n: k={k}, n={n} (need 1 <= k <= {m})")
    betas = [0] * k
    for _, w, psi_a, psi_c in _light_psi(n, k):
        betas[w] += psi_a * psi_c
    return _gamma_from_beta(betas)


@dataclass(frozen=True)
class IdentityCoefficient:
    """One coefficient comparison in the multidegree identity."""

    d: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class MultidegreeIdentityReport:
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


@dataclass(frozen=True)
class MultidegreeTable:
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
