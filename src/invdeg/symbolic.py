"""Symbolic certificates for the inverse-pairs variety.

Two generic symmetric n x n matrices X and Y are represented over exact
sparse polynomials in the variables X[i,j], Y[i,j] (i <= j). A polynomial is
a dict from monomials to nonzero coefficients; a monomial is the sorted tuple
of its variables, each repeated once per power, so X[1,1]^2*Y[1,2] is
(X[1,1], X[1,1], Y[1,2]) and a product of monomials is their sorted
concatenation. Sums accumulate in place through one helper, ``_add_into``.

The ideal of the inversion graph is generated by the off-diagonal entries of
X*Y together with the consecutive diagonal differences; this module builds
those generators, substitutes Y -> adjugate(X) to certify that they vanish on
the graph, checks the swap symmetry X <-> Y, checks that the generators plus
the (1,1) product entry span every entry of X*Y in bidegree (1,1), and
produces witness pairs (M, N) of complementary rank with M N = 0. Witnesses
are built in integers, as M and det(A)^2 N; symmetry, rank and a zero
product do not change under that scale, so only ``witness_rank_pair``
divides, once, to return the rational N.

Matrices of numbers get rank, determinant and adjugate from the one
fraction-free Gauss-Jordan elimination in ``exact``, O(k^3). Polynomial
entries cannot be divided, so ``determinant`` and ``adjugate`` run a
division-free DP over column subsets, O(2^k * k) ring operations, which
serves only the small symbolic sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .exact import InvariantViolation, Scalar, _eliminate


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


Monomial = tuple[VarId, ...]


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


class SparsePoly:
    """Multivariate polynomial as a dict from sorted monomials to coefficients.

    Coefficients are int or Fraction and never zero; the zero polynomial has
    an empty dict. Mixed arithmetic with plain scalars is supported.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Monomial, Scalar]] = None):
        self.terms: dict[Monomial, Scalar] = {} if terms is None else terms

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "SparsePoly":
        return cls({(): c}) if c else cls()

    @classmethod
    def variable(cls, v: VarId) -> "SparsePoly":
        return cls({(v,): 1})

    # ------------------------------------------------------------------ ring ops

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        if isinstance(other, (int, Fraction)):
            if not other:
                return SparsePoly()
            return SparsePoly({mono: c * other for mono, c in self.terms.items()})
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            _add_into(out, {tuple(sorted(ma + mb)): cb for mb, cb in other.terms.items()}, ca)
        return SparsePoly(out)

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
        if isinstance(other, (int, Fraction)):
            return self.terms == SparsePoly.constant(other).terms
        return NotImplemented

    # --------------------------------------------------------------- structure

    def variables(self) -> set[VarId]:
        return {v for mono in self.terms for v in mono}

    def bidegree(self) -> tuple[int, int]:
        """(X-degree, Y-degree) shared by every term; error if mixed or zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no bidegree")
        seen: Optional[tuple[int, int]] = None
        for mono in self.terms:
            dx = sum(v.kind == "X" for v in mono)
            dy = sum(v.kind == "Y" for v in mono)
            if seen is None:
                seen = (dx, dy)
            elif seen != (dx, dy):
                raise ValueError(f"polynomial is not bihomogeneous: {seen} vs {(dx, dy)}")
        return seen

    def substitute(self, assignment: Mapping[VarId, Union["SparsePoly", Scalar]]) -> "SparsePoly":
        """Replace every variable by its assigned polynomial or scalar."""
        for v in self.variables():
            if v not in assignment:
                raise ValueError(f"missing variable in substitution: {v}")
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            term = SparsePoly.constant(coeff)
            for v in mono:
                term = term * assignment[v]
            _add_into(out, term.terms)
        return SparsePoly(dict(out))

    def evaluate(self, assignment: Mapping[VarId, Scalar]) -> Scalar:
        """Exact value at a scalar point covering every variable."""
        total: Scalar = 0
        for mono, coeff in self.terms.items():
            v: Scalar = coeff
            for var in mono:
                if var not in assignment:
                    raise ValueError(f"missing variable in substitution: {var}")
                v *= assignment[var]
            total += v
        return total

    def canonical(self) -> tuple[tuple[Monomial, Scalar], ...]:
        """Hashable sorted form, for set comparisons."""
        return tuple(sorted(self.terms.items()))

    def sign_normalized(self) -> "SparsePoly":
        """Self or its negative, making the lead coefficient positive."""
        if not self.terms:
            return self
        lead = max(self.terms)
        return -self if self.terms[lead] < 0 else self

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(), key=lambda item: (-len(item[0]), item[0])):
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


# ---------------------------------------------------------------- determinants

Entry = Union[SparsePoly, Scalar]


def determinant(rows: Sequence[Sequence[Entry]]):
    """Division-free determinant by DP over column subsets (any ring)."""
    k = len(rows)
    for row in rows:
        if len(row) != k:
            raise ValueError("matrix is not square")
    full = (1 << k) - 1
    minors: list = [None] * (full + 1)
    minors[0] = 1
    for mask in range(1, full + 1):
        t = mask.bit_count()
        row = rows[t - 1]
        acc = 0
        flip = (t - 1) & 1
        c = 0
        rem = mask
        while rem:
            b = rem & -rem
            entry = row[b.bit_length() - 1]
            sub = minors[mask ^ b]
            if entry and sub:
                term = entry * sub
                acc = acc - term if (flip + c) & 1 else acc + term
            c += 1
            rem ^= b
        minors[mask] = acc
    return minors[full]


def adjugate(rows: Sequence[Sequence[Entry]]) -> list[list]:
    """Signed-minor adjugate; satisfies A * adj(A) = det(A) * Id (any ring)."""
    k = len(rows)
    for row in rows:
        if len(row) != k:
            raise ValueError("matrix is not square")
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            sub = [
                [rows[r][c] for c in range(k) if c != i]
                for r in range(k) if r != j
            ]
            minor = determinant(sub)
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return out


# ------------------------------------------------------------ symbolic matrices

@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix of sparse polynomials."""

    n: int
    entries: tuple[tuple[SparsePoly, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError(f"expected {self.n} x {self.n} entries")


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
            out: dict[Monomial, Scalar] = {}
            for k in range(n):
                _add_into(out, (a.entries[i][k] * b.entries[k][j]).terms)
            row.append(SparsePoly(dict(out)))
        rows.append(tuple(row))
    return SymbolicMatrix(n, tuple(rows))


def det_sym(a: SymbolicMatrix) -> SparsePoly:
    """Determinant as a sparse polynomial."""
    return _as_poly(determinant(a.entries))


def adjugate_sym(a: SymbolicMatrix) -> SymbolicMatrix:
    """Adjugate as a polynomial matrix."""
    adj = adjugate(a.entries)
    return SymbolicMatrix(a.n, tuple(tuple(_as_poly(e) for e in row) for row in adj))


# ------------------------------------------------------------------- generators

def product_matrix(n: int) -> SymbolicMatrix:
    """X * Y for generic symmetric X and Y."""
    return mat_mul(generic_sym_matrix(n, "X"), generic_sym_matrix(n, "Y"))


def product_entries(n: int) -> list[SparsePoly]:
    """The n^2 entries of X * Y, row-major; their span cuts out product zero."""
    return [p for row in product_matrix(n).entries for p in row]


def _generators_of(prod: SymbolicMatrix) -> list[SparsePoly]:
    n, e = prod.n, prod.entries
    gens = [e[i][j] for i in range(n) for j in range(n) if i != j]
    gens.extend(e[i][i] - e[i + 1][i + 1] for i in range(n - 1))
    return gens


def graph_ideal_generators(n: int) -> list[SparsePoly]:
    """Generators of the inversion-graph ideal: the n(n-1) off-diagonal
    entries of X * Y (row-major) plus the n - 1 consecutive diagonal
    differences."""
    return _generators_of(product_matrix(n))


def swap_sides(p: SparsePoly) -> SparsePoly:
    """Exchange the X and Y variables throughout."""
    # a bijection on monomials, so no two terms land on one key
    return SparsePoly({
        tuple(sorted(VarId("Y" if v.kind == "X" else "X", v.row, v.col) for v in mono)): c
        for mono, c in p.terms.items()
    })


def swap_symmetry_holds(n: int) -> bool:
    """Generator set is stable (up to sign) under exchanging X and Y."""
    gens = graph_ideal_generators(n)
    swapped = {swap_sides(g).sign_normalized().canonical() for g in gens}
    return swapped == {g.sign_normalized().canonical() for g in gens}


def adjugate_identity_holds(n: int, adj_x: Optional[SymbolicMatrix] = None) -> bool:
    """Symbolic check that X * adj(X) = det(X) * Id and adj(X) is symmetric.

    ``adj_x`` is the adjugate under test; when None it is built here. det(X)
    is always computed on its own, so a zero adjugate cannot pass.
    """
    x = generic_sym_matrix(n, "X")
    adj = adjugate_sym(x) if adj_x is None else adj_x
    det = det_sym(x)
    if not _is_symmetric(adj.entries):
        return False
    prod = mat_mul(x, adj).entries
    return all(prod[i][j] == (det if i == j else 0) for i in range(n) for j in range(n))


# ------------------------------------------------------------- span comparison

def sparse_rank(vectors: Iterable[Mapping]) -> int:
    """Rank over the rationals of sparse coefficient vectors (dict keyed)."""
    basis: dict = {}
    for vec in vectors:
        v = {k: Fraction(c) for k, c in vec.items() if c}
        while v:
            pivot = max(v)
            if pivot in basis:
                other = basis[pivot]
                _add_into(v, other, -v[pivot] / other[pivot])
            else:
                basis[pivot] = v
                break
    return len(basis)


def spans_product_entries(n: int) -> bool:
    """Graph generators plus the (1,1) product entry span every entry of X*Y.

    All vectors live in the bidegree-(1,1) coefficient space, so span
    equality is three rank computations.
    """
    prod = product_matrix(n)
    right = [p.terms for row in prod.entries for p in row]
    left = [g.terms for g in _generators_of(prod)] + right[:1]
    r_left = sparse_rank(left)
    r_right = sparse_rank(right)
    r_union = sparse_rank(left + right)
    return r_left == r_right == r_union


# ------------------------------------------------------- graph vanishing checks

@dataclass(frozen=True)
class VanishingReport:
    """Record of a completed graph-vanishing run (failures raise instead)."""

    n: int
    mode: str
    generators: int
    trials: int


def _invertible_symmetric(rng: random.Random, n: int) -> tuple[list[list[int]], int, list[list[int]]]:
    """Random integer symmetric M, redrawn until det M != 0, with det M and adj M."""
    while True:
        upper = {(i, j): rng.randint(-10, 10) for i in range(n) for j in range(i, n)}
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        _, det, adj = _eliminate(rows)
        if adj is not None:
            return rows, det, adj


def _is_symmetric(rows: Sequence[Sequence]) -> bool:
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def _product(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Exact matrix product of int/Fraction matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _pair_assignment(m: Sequence[Sequence[Entry]], y: Sequence[Sequence[Entry]]) -> dict[VarId, Entry]:
    """X[i,j] -> m[i][j] and Y[i,j] -> y[i][j] on the upper triangle."""
    n = len(m)
    out: dict[VarId, Entry] = {}
    for i in range(n):
        for j in range(i, n):
            out[xvar(i + 1, j + 1)] = m[i][j]
            out[yvar(i + 1, j + 1)] = y[i][j]
    return out


def verify_graph_vanishing(
    n: int,
    mode: str = "symbolic",
    trials: int = 100,
    seed: int = 0,
    symbolic_cap: int = 4,
    executor=None,
    adj_x: Optional[SymbolicMatrix] = None,
) -> VanishingReport:
    """Certify that every graph generator vanishes on pairs (M, adj M).

    Symbolic mode substitutes Y -> adjugate(X) into each generator and
    demands the zero polynomial; it is exponential in n and refuses to run
    past ``symbolic_cap`` unless the cap is raised; ``adj_x``, when given,
    is the adjugate of the generic X to substitute. Numeric mode evaluates
    the generators on seeded random integer symmetric M with det != 0,
    exactly; trials fan out over ``executor`` when given, in deterministic
    order. A nonzero residual raises InvariantViolation naming the offending
    generator.
    """
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f'mode must be "symbolic" or "numeric", got {mode!r}')
    gens = graph_ideal_generators(n)
    if mode == "symbolic":
        if n > symbolic_cap:
            raise ValueError(
                f"symbolic mode is capped at n <= {symbolic_cap}; raise symbolic_cap to override"
            )
        x = generic_sym_matrix(n, "X")
        adj = adjugate_sym(x) if adj_x is None else adj_x
        assignment = _pair_assignment(x.entries, adj.entries)
        for g in gens:
            if not g.substitute(assignment).is_zero:
                raise InvariantViolation(f"graph generator does not vanish on inverse pairs: {g}")
        return VanishingReport(n, "symbolic", len(gens), 0)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def trial(t: int) -> Optional[str]:
        m, _, adj = _invertible_symmetric(random.Random(seed * 1_000_003 + t), n)
        assignment = _pair_assignment(m, adj)
        for g in gens:
            if g.evaluate(assignment) != 0:
                return f"trial {t}: generator {g} evaluates to nonzero"
        return None

    runner = executor.map if executor is not None else map
    for failure in runner(trial, range(trials)):
        if failure is not None:
            raise InvariantViolation(f"graph generator does not vanish on inverse pairs: {failure}")
    return VanishingReport(n, "numeric", len(gens), trials)


def adjugate_identity_numeric(n: int, trials: int, seed: int, executor=None) -> bool:
    """Exact spot check of A * adj(A) = det(A) * Id on random nonsingular symmetric A."""

    def trial(t: int) -> bool:
        m, det, adj = _invertible_symmetric(random.Random(seed * 2_000_003 + t), n)
        return _product(m, adj) == [[det if i == j else 0 for j in range(n)] for i in range(n)]

    runner = executor.map if executor is not None else map
    return all(runner(trial, range(trials)))


# ------------------------------------------------------------- rational witnesses

def matrix_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over the rationals of an int/Fraction matrix of any shape."""
    return _eliminate(rows)[0]


@dataclass(frozen=True)
class RationalSymMatrix:
    """Symmetric matrix of exact rationals."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError(f"expected {self.n} x {self.n} entries")
        if not _is_symmetric(self.rows):
            raise ValueError("matrix is not symmetric")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RationalSymMatrix":
        return cls(len(rows), tuple(tuple(Fraction(x) for x in row) for row in rows))

    def rank(self) -> int:
        return matrix_rank(self.rows)


def _witness_rows(n: int, r: int, seed: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer rows of M = A D A^T and det(A)^2 N = adj(A)^T E adj(A), and det(A);
    D weights the first r columns of A, E the last n - r rows of adj(A)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"rank r out of range 0..{n}, got {r}")
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        _, det, adj = _eliminate(a)
        if adj is not None:
            break
    d = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(r)]
    e = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n - r)]
    m = [[sum(a[i][k] * d[k] * a[j][k] for k in range(r)) for j in range(n)] for i in range(n)]
    w = [[sum(adj[r + k][i] * e[k] * adj[r + k][j] for k in range(n - r)) for j in range(n)] for i in range(n)]
    return m, w, det


def witness_rank_pair(n: int, r: int, seed: int = 0) -> tuple[RationalSymMatrix, RationalSymMatrix]:
    """Random pair (M, N) of symmetric rationals with rank r and n - r and M N = 0.

    M = A D A^T and N = A^-T E A^-1 for a random invertible integer A and
    complementary nonzero diagonals D, E, so the ranks are exact and the
    product vanishes identically. Deterministic in the seed.
    """
    m, w, det = _witness_rows(n, r, seed)
    scale = det * det
    return (
        RationalSymMatrix.from_rows(m),
        RationalSymMatrix.from_rows([[Fraction(x, scale) for x in row] for row in w]),
    )


def witness_pair_valid(n: int, r: int, seed: int = 0) -> bool:
    """M and N are symmetric, their ranks are exactly (r, n - r) and every
    entry of M * N vanishes; checked on the integer M and det(A)^2 N."""
    m, w, _ = _witness_rows(n, r, seed)
    return (
        _is_symmetric(m)
        and _is_symmetric(w)
        and matrix_rank(m) == r
        and matrix_rank(w) == n - r
        and not any(v for row in _product(m, w) for v in row)
    )
