"""Maximum likelihood degrees of generic linear concentration models.

``ml_degree(n, d)`` is the ML-degree of a generic d-dimensional linear
subspace of symmetric n x n matrices; it equals the (d-1)-th multidegree
coefficient of the inverse-pairs variety. It is computed from the weight
slice beta(n, 0..K-1), K = min(d, m - d + 1) by palindromy, so for fixed d
its cost is polynomial in n. For fixed d the value is a polynomial in n of
degree d - 1, recovered exactly by ``ml_polynomial`` from integer forward
differences (Newton's form, expanded to the monomial basis over (d-1)!) with
out-of-sample validation. All samples of one d, there and in
``finite_difference_check``, come from one pass of the light-slice sampler
(``multidegree._light_psi``): one psi expansion and one chain of nested
inverses of the bordered pair matrix for every n. ``ml_table`` lists
whole rows, the generating Pfaffians of ``gamma_degrees`` for every n at once
from one elimination at t = 1 and one at t = 2^K (see
``multidegree._generating_values``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .exact import InvariantViolation
from .multidegree import _expansions, _gamma_from_beta, _gamma_prefixes, sym_dimension

if TYPE_CHECKING:
    from fractions import Fraction


def _ml_degrees(d: int, ns: Iterable[int]) -> Iterator[int]:
    """ml_degree(n, d) for each n of ``ns``, increasing and each with
    d <= n(n+1)/2, from one pass of the light-slice sampler."""
    # gamma is palindromic: gamma[d - 1] = gamma[m - d], so the shorter prefix serves.
    samples = [(n, min(d, sym_dimension(n) - d + 1)) for n in ns]
    return (gamma[-1] for gamma in _gamma_prefixes(samples))


def ml_degree(n: int, d: int) -> int:
    """ML-degree of a generic d-dimensional linear concentration model."""
    m = sym_dimension(n)
    if d < 1 or d > m:
        raise ValueError(f"dimension d out of range for n: d={d}, n={n} (need 1 <= d <= {m})")
    return next(_ml_degrees(d, [n]))


def ml_table(n_max: int) -> list[tuple[int, ...]]:
    """Rows of ML-degrees: row n - 1 lists ml_degree(n, d) for d = 1..m,
    which is gamma_degrees(n)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return [_gamma_from_beta(betas[:-1]) for betas in _expansions(range(1, n_max + 1))]


def smallest_valid_n(d: int) -> int:
    """Least n with n(n+1)/2 >= d, the first n where dimension d exists."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n = 1
    while n * (n + 1) // 2 < d:
        n += 1
    return n


def _newton_fit(values: list[int], x0: int) -> tuple[Fraction, ...]:
    """Exact polynomial through (x0 + i, values[i]), lowest degree first.

    Newton's forward form sum_j D^j(values)[0] * C(x - x0, j), expanded in
    integers: (k-1)!/j! * prod_(i<j) (x - x0 - i) has integer coefficients
    for j < k, so each monomial coefficient is an integer over (k-1)!.
    """
    from fractions import Fraction

    k = len(values)
    scale = math.factorial(k - 1)
    total = [0] * k
    term = [scale]  # (k-1)!/j! * prod_(i<j) (x - x0 - i), lowest degree first
    diffs = list(values)
    for j in range(k):
        for p, c in enumerate(term):
            total[p] += diffs[0] * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if j + 1 < k:
            term = [(shifted - (x0 + j) * c) // (j + 1) for shifted, c in zip([0, *term], [*term, 0])]
    coeffs = [Fraction(c, scale) for c in total]
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
    values = list(_ml_degrees(d, range(n0, n0 + d + 3)))
    poly = MLPolynomial(d, _newton_fit(values[:d], n0), n0, tuple(range(n0 + d, n0 + d + 3)))
    for n, expected in zip(poly.validated_at, values[d:]):
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
    values = list(_ml_degrees(d, range(n0, n0 + window)))
    for _ in range(d):
        values = [b - a for a, b in zip(values, values[1:])]
    return DifferenceReport(d, window, n0, tuple(values))
