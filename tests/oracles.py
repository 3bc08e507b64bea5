"""Slow, independent routes that tests check the engines against."""

from fractions import Fraction


def lagrange_fit(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Exact interpolating polynomial through the points, lowest degree first,
    by rational Lagrange interpolation."""
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
