"""Multidegrees of the inverse-pairs variety of symmetric matrices.

For n x n symmetric matrices, the closure of the set of pairs (M, inverse of
M) is a subvariety of a product of two projective spaces of dimension
m = n(n+1)/2 each; its class there is recorded by the coefficient list
``gamma_degrees``. The pairs whose product vanishes form the boundary, with
coefficients ``sigma_coefficients``; both are assembled from ``beta``, a sum
of products of psi values over complementary index subsets. ``sdp_degree``
restricts that sum to subsets of fixed size and is the algebraic degree of
semidefinite programming.

Pfaffians of the bordered psi pair matrix come from one expansion along the
lowest set bit of a bitmask, which runs over two families of masks. The full
table (``beta_vector`` and everything built on it) stores all 2**(n+1) masks
in a list. ``gamma_prefix`` needs only beta(n, 0..k-1): it visits the
subsets of weight below k, takes psi of each complement from the inverse of
the bordered matrix (Jacobi's complementary-minor identity), and keeps its
masks in a dict, so for fixed k its cost is polynomial in n. The public
``psi.psi_seq`` route stays independent so the engines can be checked
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .exact import InvariantViolation, _eliminate
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


@lru_cache(maxsize=8)
def _mask_pfaffians(n: int) -> list[int]:
    """Pfaffians of the bordered pair matrix on every even-popcount mask.

    Bit j of a mask stands for index j of ``_pair_matrix(n)``. Entry order
    inside a subset is bit order, so the value for an odd subset equals
    psi_seq of that subset bordered. Memory is one int per mask, 2**(n+1)
    total.
    """
    size = 1 << (n + 1)
    pf = [0] * size
    pf[0] = 1
    return _expand_pfaffians(_pair_matrix(n), range(3, size), pf)


def _psi_of_mask(pf, subset: int) -> int:
    """psi of the subset mask (bit i stands for element i + 1)."""
    mask = subset << 1
    if subset.bit_count() & 1:
        mask |= 1
    return pf[mask]


@lru_cache(maxsize=32)
def beta_vector(n: int) -> tuple[int, ...]:
    """beta(n, d) for d = 0..m: products of psi over complementary subsets, by weight."""
    m = sym_dimension(n)
    pf = _mask_pfaffians(n)
    out = [0] * (m + 1)
    nmasks = 1 << n
    weight = [0] * nmasks
    for a in range(1, nmasks):
        low = a & -a
        weight[a] = weight[a ^ low] + low.bit_length()
    full = nmasks - 1
    for a in range(nmasks):
        out[weight[a]] += _psi_of_mask(pf, a) * _psi_of_mask(pf, full ^ a)
    return tuple(out)


def beta(n: int, d: int) -> int:
    """Sum of psi(alpha) * psi(complement) over subsets of {1..n} of weight d."""
    m = sym_dimension(n)
    if d < 0 or d > m:
        return 0
    return beta_vector(n)[d]


def sdp_degree(d: int, n: int, r: int) -> int:
    """Algebraic degree of semidefinite programming: the beta(n, d) slice
    over subsets of size n - r. Zero unless 0 < r < n."""
    sym_dimension(n)
    if r <= 0 or r >= n:
        return 0
    pf = _mask_pfaffians(n)
    full = (1 << n) - 1
    total = 0
    for combo in combinations(range(1, n + 1), n - r):
        if sum(combo) != d:
            continue
        a = 0
        for e in combo:
            a |= 1 << (e - 1)
        total += _psi_of_mask(pf, a) * _psi_of_mask(pf, full ^ a)
    return total


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
    m = sym_dimension(n)
    betas = beta_vector(n)
    gammas = gamma_degrees(n)
    coeffs = []
    for d in range(m + 1):
        lhs = (gammas[d] if d < m else 0) + (gammas[d - 1] if d > 0 else 0)
        coeffs.append(IdentityCoefficient(d, lhs, betas[d]))
    return MultidegreeIdentityReport(n, m, tuple(coeffs))


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
    """Assemble beta, gamma and sigma coefficient lists for one n."""
    return MultidegreeTable(
        n=n,
        m=sym_dimension(n),
        beta=beta_vector(n),
        gamma_degs=gamma_degrees(n),
        sigma_coeffs=sigma_coefficients(n),
        identity=verify_multidegree_identity(n),
    )
