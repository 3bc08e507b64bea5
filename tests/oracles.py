"""Slow, independent routes that tests check the engines against."""

import argparse
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from invdeg import cli, symbolic
from invdeg.exact import InvariantViolation, matrix_rank
from invdeg.poly import _FIELD_BITS, SparsePoly, SymbolicMatrix, _as_poly, _decode, _slot, generic_sym_matrix
from invdeg.poly import mat_mul, xvar
from invdeg.symbolic import PairChecks, graph_ideal_generators


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2 here
        raise cli.UsageError(message)


def build_parser() -> _Parser:
    """The command-line parser written out by hand, argument by argument,
    as the reference for the one ``cli`` builds from its grammar table."""
    parser = _Parser(prog="invdeg", description=cli.__doc__.splitlines()[0])
    parser.add_argument(
        "--threads",
        default="1",
        help="accepted for compatibility (N or auto) and ignored: verification runs in one thread",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="psi value tables")
    p_psi.add_argument("--n", type=int, required=True)

    p_multi = sub.add_parser("multidegree", help="multidegree coefficient lists")
    p_multi.add_argument("--n", type=int, required=True)

    p_ml = sub.add_parser("mldeg", help="ML-degree tables and polynomials")
    which = p_ml.add_mutually_exclusive_group(required=True)
    which.add_argument("--n-max", type=int)
    which.add_argument("--d", type=int)
    check = p_ml.add_mutually_exclusive_group()
    check.add_argument("--poly", action="store_true", help="interpolate the polynomial in n for fixed d")
    check.add_argument("--window", type=int, help="difference-check sample count, not with --poly (default d + 10)")

    p_ver = sub.add_parser("verify", help="run the certificate suite")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--mode", default="symbolic", choices=("symbolic", "numeric"))
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--symbolic-cap", type=int, default=4)

    for command_parser in (p_psi, p_multi, p_ml, p_ver):
        command_parser.add_argument("--format", default="json", choices=["csv", "json", "latex"])
    return parser


def exact_product(a, b):
    """Exact matrix product of int/Fraction matrices, entry by entry; b is
    transposed once."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def bilinear_vector(p: SparsePoly, n: int) -> dict:
    """The bilinear vector of a polynomial whose every monomial is one X
    variable times one Y variable: key s * n(n+1)/2 + t for the variables in
    fields 2s and 2t + 1."""
    out = {}
    for key, c in p.terms.items():
        x, y = sorted(_decode(key), key=lambda slot: slot % 2)  # X owns the even fields
        assert x % 2 == 0 and y % 2 == 1, str(p)
        out[x // 2 * (n * (n + 1) // 2) + y // 2] = c
    return out


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


def adjugate_sym(a: SymbolicMatrix) -> SymbolicMatrix:
    """Adjugate as a polynomial matrix, from ``symbolic.adjugate``'s minor DP."""
    adj = symbolic.adjugate(a.entries)
    return SymbolicMatrix(a.n, tuple(tuple(_as_poly(e) for e in row) for row in adj))


def invariant_but_wrong(n: int, det: SparsePoly) -> SparsePoly:
    """det + 2 * sum over i < j of X[i,j]^2 times the other diagonal entries:
    fixed by S_n, but X * adj = f * Id fails for it."""
    diagonal = [SparsePoly.variable(xvar(k, k)) for k in range(1, n + 1)]
    extra = SparsePoly()
    for i, j in combinations(range(1, n + 1), 2):
        others = SparsePoly.constant(2)
        for k in range(1, n + 1):
            if k not in (i, j):
                others = others * diagonal[k - 1]
        extra = extra + SparsePoly.variable(xvar(i, j)) ** 2 * others
    return det + extra


class InversePair(NamedTuple):
    """The generic symmetric X with det(X), an adjugate adj and P = X * adj,
    all held at once."""

    x: SymbolicMatrix
    det: SparsePoly
    adj: SymbolicMatrix
    prod: SymbolicMatrix


def adjugate_from_det(n: int, det: SparsePoly) -> SymbolicMatrix:
    """adj(X) of the generic symmetric X from the partial derivatives of det,
    every entry at once, by one scan of det per variable: d det/d X[i,i] =
    adj[i][i] and d det/d X[i,j] = 2 adj[i][j] for i != j. An odd
    off-diagonal coefficient raises InvariantViolation."""
    rows = [[SparsePoly()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = xvar(i + 1, j + 1)
            shift = _FIELD_BITS * _slot(v)
            unit, field = 1 << shift, 0xFF << shift
            d = {key - unit: c * (key >> shift & 0xFF) for key, c in det.terms.items() if key & field}
            if i != j:
                if any(c % 2 for c in d.values()):
                    raise InvariantViolation(f"d det/d {v} has an odd coefficient")
                d = {key: c // 2 for key, c in d.items()}
            rows[i][j] = rows[j][i] = SparsePoly(d)
    return SymbolicMatrix(n, tuple(map(tuple, rows)))


def inverse_pair(n: int) -> InversePair:
    """X, det(X) from ``symbolic.det_sym``, adj read off the derivatives of
    det(X) and P = X * adj from one ``mat_mul``."""
    x = generic_sym_matrix(n, "X")
    det = symbolic.det_sym(x)
    adj = adjugate_from_det(n, det)
    return InversePair(x, det, adj, mat_mul(x, adj))


def materialized_checks(n: int) -> PairChecks:
    """``symbolic.symbolic_checks`` read off a whole ``inverse_pair``: every
    entry of P = X * adj(X) formed and held at once, with no use of the
    S_n action."""
    gens = graph_ideal_generators(n)
    pair = inverse_pair(n)
    det, p = pair.det, pair.prod.entries
    places = symbolic._at_generator_places(p)
    residual = next((symbolic._NONZERO + str(g) for g, v in zip(gens, places) if v), None)
    diagonal = sum(1 << _FIELD_BITS * _slot(xvar(i, i)) for i in range(1, n + 1))
    identity = det.terms.get(diagonal) == 1 and all(
        p[i][j] == (det if i == j else 0) for i in range(n) for j in range(n)
    )
    return PairChecks(len(gens), residual, identity)


def exact_witness_verdict(n: int, r: int, m: list[list[int]], w: list[list[int]]) -> bool:
    """``symbolic._pair_valid``'s verdict on the pair (M, W) from two
    exact ranks, as it was computed before the ranks were bounded mod a
    prime: both symmetric, rank M = r, rank W = n - r, and every entry of
    M * W, a triple sum here, is zero."""
    symmetric = all(x[i][j] == x[j][i] for x in (m, w) for i in range(n) for j in range(i))
    product = [[sum(m[i][k] * w[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return (
        symmetric
        and matrix_rank(m) == r
        and matrix_rank(w) == n - r
        and not any(v for row in product for v in row)
    )
