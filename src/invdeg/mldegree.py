"""Maximum likelihood degrees of generic linear concentration models.

``ml_degree(n, d)`` is the ML-degree of a generic d-dimensional linear
subspace of symmetric n x n matrices; it equals the (d-1)-th multidegree
coefficient of the inverse-pairs variety. It is computed from the weight
slice beta(n, 0..K-1), K = min(d, m - d + 1) by palindromy, so for fixed d
its cost is polynomial in n. For fixed d the value is a polynomial in n of
degree d - 1, recovered exactly by ``ml_polynomial`` through rational
Lagrange interpolation with out-of-sample validation. ``ml_table`` lists
whole rows, the generating Pfaffians of ``gamma_degrees`` for every n at once
(see ``multidegree._gamma_rows``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .exact import InvariantViolation
from .multidegree import _gamma_rows, gamma_prefix, sym_dimension

if TYPE_CHECKING:
    from fractions import Fraction


def ml_degree(n: int, d: int) -> int:
    """ML-degree of a generic d-dimensional linear concentration model."""
    m = sym_dimension(n)
    if d < 1 or d > m:
        raise ValueError(f"dimension d out of range for n: d={d}, n={n} (need 1 <= d <= {m})")
    # gamma is palindromic: gamma[d - 1] = gamma[m - d], so the shorter prefix serves.
    return gamma_prefix(n, min(d, m - d + 1))[-1]


def ml_table(n_max: int) -> list[tuple[int, ...]]:
    """Rows of ML-degrees: row n - 1 lists ml_degree(n, d) for d = 1..m,
    which is gamma_degrees(n)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _gamma_rows(n_max)


def smallest_valid_n(d: int) -> int:
    """Least n with n(n+1)/2 >= d, the first n where dimension d exists."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n = 1
    while n * (n + 1) // 2 < d:
        n += 1
    return n


def _lagrange_fit(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Exact interpolating polynomial through the points, lowest degree first."""
    from fractions import Fraction

    k = len(points)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p] -= c * xj
                nxt[p + 1] += c
            basis = nxt
        scale = Fraction(yi) / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class MLPolynomial(NamedTuple):
    """Exact polynomial in n giving ml_degree(n, d) for all valid n."""

    d: int
    coeffs: tuple[Fraction, ...]
    sample_start: int
    validated_at: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, n: int) -> Fraction:
        from fractions import Fraction

        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc


def ml_polynomial(d: int) -> MLPolynomial:
    """Interpolate n -> ml_degree(n, d) from d samples and validate 3 more."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n0 = smallest_valid_n(d)
    points = [(n, ml_degree(n, d)) for n in range(n0, n0 + d)]
    coeffs = _lagrange_fit(points)
    poly = MLPolynomial(d, coeffs, n0, tuple(range(n0 + d, n0 + d + 3)))
    for n in poly.validated_at:
        expected = ml_degree(n, d)
        got = poly.evaluate(n)
        if got != expected:
            raise InvariantViolation(
                f"polynomiality violated: d={d}, n={n}: interpolant gives {got}, table gives {expected}"
            )
    return poly


class DifferenceReport(NamedTuple):
    """d-th forward differences of n -> ml_degree(n, d) over a sample window."""

    d: int
    window: int
    start_n: int
    differences: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.differences)


def finite_difference_check(d: int, window: int) -> DifferenceReport:
    """Sample ``window`` consecutive values and difference them d times.

    The values are a polynomial in n of degree d - 1, so every d-th
    difference must vanish.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if window < d + 1:
        raise ValueError(f"window must be >= d + 1, got {window}")
    n0 = smallest_valid_n(d)
    values = [ml_degree(n, d) for n in range(n0, n0 + window)]
    for _ in range(d):
        values = [b - a for a, b in zip(values, values[1:])]
    return DifferenceReport(d, window, n0, tuple(values))
