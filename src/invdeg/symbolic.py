"""Symbolic certificates for the inverse-pairs variety.

The ideal of the inversion graph is generated by the off-diagonal entries of
X*Y together with the consecutive diagonal differences; this module builds
those generators, maps them through Y -> adj(X) to certify that they vanish
on the graph, checks the swap symmetry X <-> Y, checks that the generators
plus the (1,1) product entry span every entry of X*Y in bidegree (1,1), and
produces witness pairs (M, N) of complementary rank with M N = 0. Witnesses
are built in integers, as M and det(A)^2 N; symmetry, rank and a zero
product do not change under that scale, so only ``witness_rank_pair``
divides, once, to return the rational N. One family per seed serves every
rank r = n..0: one A and one elimination of A^T, which yields adj(A^T) =
adj(A)^T, whose columns r.. are what N needs; each rank down is a rank-one
update of M and of det(A)^2 N. A witness's ranks are certified by lower
bounds mod a prime, from the leading r x r block of M and the trailing
(n - r) x (n - r) block of N where those are nonsingular mod p: by
Sylvester's inequality the exact zero product caps rank M + rank N at n,
so the bounds are the ranks. The polynomials, their packed monomials and
the determinant live in ``poly``.

Graph vanishing and the adjugate identity are read off the entries of one
P per mode, ``symbolic_checks`` and ``numeric_checks``. Symbolically,
adj(X) is read off the partial derivatives of det(X). S_n acts by
X[i,j] -> X[sigma i, sigma j]; when det(X) is fixed by the generators
(1 2) and (1 2 ... n), P = X * adj(X) commutes with the action, and S_n is
2-transitive, so P = det(X) * Id follows from P[1,1] = det(X) and
P[1,2] = 0, the only entries formed. Otherwise, and for a given adjugate,
P is formed one entry at a time from one column of adj(X); each entry is
compared with 0 or det(X) and dropped, so neither the whole adjugate nor
the whole P is held. Substitution is a ring map that fixes X, so each
generator of X*Y goes under Y -> adj(X) to the entry of P at its place, and
nothing is substituted. Numerically, each sample is one random nonsingular
integer M with det M and adj M, and P = M * adj M formed once; a
generator's value at (M, adj M) is the entry of P at its place. Either way
the adjugate identity compares P with det * Id. X * Y depends on n alone,
so ``product_matrix`` keeps the last one it built for every check of a run.

Matrices of numbers get determinant and adjugate from the one fraction-free
Bareiss elimination in ``exact``, O(k^3): Gauss-Jordan on B beside the unit
columns whose adjugate columns are needed. Witness ranks come from
``exact._rank_mod``, Gaussian elimination on residues mod ``_PRIME``, of a
principal block first and of the whole matrix when the block is singular
mod p; the exact rank by Bareiss forward elimination (``matrix_rank``) is
taken only when both bounds mod p fall short. The span comparison ranks
sparse coefficient vectors by fraction-free row reduction in integers.
``adjugate`` runs the determinant DP of ``poly`` once per minor; it is the
oracle that the derivative adjugate is tested against.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .exact import InvariantViolation, Scalar, _eliminate, _exact, _rank_mod, matrix_rank
from .poly import Entry, SparsePoly, SymbolicMatrix, _add_into, _adjugate_columns, _as_poly, _fixed_by, _monomial
from .poly import _mul_into, det_sym, determinant, generic_sym_matrix, mat_mul, swap_sides, xvar

if TYPE_CHECKING:
    from fractions import Fraction


def adjugate(rows: Sequence[Sequence[Entry]]) -> list[list]:
    """Signed-minor adjugate; satisfies A * adj(A) = det(A) * Id (any ring)."""
    k = len(rows)
    if any(len(row) != k for row in rows):
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


def adjugate_sym(a: SymbolicMatrix) -> SymbolicMatrix:
    """Adjugate as a polynomial matrix."""
    adj = adjugate(a.entries)
    return SymbolicMatrix(a.n, tuple(tuple(_as_poly(e) for e in row) for row in adj))


# ------------------------------------------------------------------- generators

@lru_cache(maxsize=1)
def product_matrix(n: int) -> SymbolicMatrix:
    """X * Y for generic symmetric X and Y; the last one built is kept, so
    every check of a run reads one X * Y. Polynomials are read-only, so no
    caller can change the kept one."""
    return mat_mul(generic_sym_matrix(n, "X"), generic_sym_matrix(n, "Y"))


def product_entries(n: int) -> list[SparsePoly]:
    """The n^2 entries of X * Y, row-major; their span cuts out product zero."""
    return [p for row in product_matrix(n).entries for p in row]


def _at_generator_places(e: Sequence[Sequence]) -> list:
    """The off-diagonal entries of a square matrix, row-major, then the
    differences of consecutive diagonal entries."""
    n = len(e)
    out = [e[i][j] for i in range(n) for j in range(n) if i != j]
    out.extend(e[i][i] - e[i + 1][i + 1] for i in range(n - 1))
    return out


def graph_ideal_generators(n: int) -> list[SparsePoly]:
    """Generators of the inversion-graph ideal: the n(n-1) off-diagonal
    entries of X * Y (row-major) plus the n - 1 consecutive diagonal
    differences."""
    return _at_generator_places(product_matrix(n).entries)


def swap_symmetry_holds(n: int) -> bool:
    """Generator set is stable (up to sign) under exchanging X and Y. The swap
    is linear and injective, so the swapped sign classes equal the original
    ones once each lies among them; one swapped generator is held at a time."""
    gens = graph_ideal_generators(n)
    originals = {g.sign_normalized().canonical() for g in gens}
    return all(swap_sides(g).sign_normalized().canonical() in originals for g in gens)


# ------------------------------------------------------------- span comparison

def _reduce_into(basis: dict, vectors: Iterable[Mapping]) -> dict:
    """Extend ``basis`` in place by the vectors and return it.

    ``basis`` maps a pivot key to the integer vector whose largest key it is.
    Fraction-free row reduction: a vector scaled to integers on entry is
    reduced by v <- a * v - b * other at each pivot it shares, a and b the
    pivot coefficients over their gcd, and divided by its content; what
    survives starts a new pivot.
    """
    for vec in vectors:
        scale = lcm(*(c.denominator for c in vec.values()))
        v = {k: c.numerator * (scale // c.denominator) for k, c in vec.items() if c}
        while v:
            pivot = max(v)
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = v
                break
            g = gcd(v[pivot], other[pivot])
            a, b = other[pivot] // g, v[pivot] // g
            if a != 1:
                for k in v:
                    v[k] *= a
            _add_into(v, other, -b)
            g = gcd(*v.values())
            if g > 1:
                for k in v:
                    v[k] //= g
    return basis


def sparse_rank(vectors: Iterable[Mapping]) -> int:
    """Rank over the rationals of sparse int/Fraction vectors (dict keyed)."""
    return len(_reduce_into({}, ({k: _exact(c) for k, c in v.items()} for v in vectors)))


def spans_product_entries(n: int) -> bool:
    """Graph generators plus the (1,1) product entry span every entry of X*Y.

    All vectors live in the bidegree-(1,1) coefficient space, so span
    equality is three equal ranks; the union's comes from extending the
    left basis by the right vectors, so the left ones are reduced once.
    """
    prod = product_matrix(n)
    right = [p.terms for row in prod.entries for p in row]
    basis = _reduce_into({}, [g.terms for g in _at_generator_places(prod.entries)] + right[:1])
    r_left = len(basis)
    r_right = sparse_rank(right)
    r_union = len(_reduce_into(basis, right))
    return r_left == r_right == r_union


# ------------------------------------------------------- graph vanishing checks

class VanishingReport(NamedTuple):
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
    """Exact matrix product of int/Fraction matrices; b is transposed once."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


class PairChecks(NamedTuple):
    """Graph vanishing and the adjugate identity, read off one P."""

    generators: int
    residual: Optional[str]  # why a generator does not vanish, or None
    identity: bool  # P = det * Id, on every sample in numeric mode


_NONZERO = "graph generator does not vanish on inverse pairs: "


def _two_entries_suffice(n: int, x_row: Sequence[Mapping], det: Mapping[int, Scalar]) -> bool:
    """Whether P = X * adj(X), adj read off the derivatives of det (a terms
    dict), equals det * Id by the action of S_n; False leaves it undecided.

    S_n acts on the variables by X[i,j] -> X[sigma i, sigma j]. If det is
    fixed by the transposition (1 2) and the cycle (1 2 ... n), which
    generate S_n, it is fixed by all of S_n. Relabelling commutes with
    taking derivatives, so the adjugate read off det satisfies
    adj[sigma k][sigma j] = sigma(adj[k][j]), and P[sigma i][sigma j] =
    sigma(P[i][j]). S_n is 2-transitive, so every diagonal entry of P is an
    image of P[1,1] and every off-diagonal one an image of P[1,2]: P = det *
    Id exactly when P[1,1] = det and P[1,2] = 0. The off-diagonal variables
    form one orbit, so an odd derivative, if any, is one at X[1,2], the
    first that the whole stream of ``_adjugate_columns`` reaches; reading
    the first two columns of that stream raises the same
    InvariantViolation, and scans det 2n - 1 times. ``x_row`` is row 1 of
    X; one adjugate entry is held at a time.
    """
    generators = ([1, 0, *range(2, n)], [*range(1, n), 0]) if n > 1 else ()
    if not all(_fixed_by(det, n, sigma) for sigma in generators):
        return False
    # the wanted entries come first, so zip stops before it draws a third column
    for want, column in zip((det, {}), _adjugate_columns(n, det)):
        entry: dict[int, Scalar] = {}
        for x_1k, adj_kj in zip(x_row, column):
            _mul_into(entry, x_1k, adj_kj)
        if entry != want:
            return False
    return True


def symbolic_checks(n: int, *, adj_x: Optional[SymbolicMatrix] = None) -> PairChecks:
    """Both symbolic checks off the entries of P = X * adj(X), one at a time.

    Y -> adj(X) is a ring map that fixes X, so each generator of X * Y
    goes to the entry of P at its place; graph vanishing demands that every
    such entry is the zero polynomial. It needs a symmetric adjugate, Y
    being symmetric. The adjugate identity asks for P = det(X) * Id, a
    symmetric adjugate and coefficient 1 for X[1,1]*...*X[n,n] in det(X).

    ``adj_x`` is the adjugate under test; when None it is read off the
    derivatives of det(X). Read off the derivatives of any f, it gives
    X * adj = f * Id only for f a constant times det(X), and the
    coefficient check pins the constant to 1, so a zero or scaled
    determinant fails the identity. The derivative adjugate is first tried
    by the S_n action (``_two_entries_suffice``): when det(X) is invariant
    and P[1,1] = det(X), P[1,2] = 0, then P = det(X) * Id without forming
    the other n^2 - 2 entries, and a passing run holds det(X) and at most
    one derived adjugate entry at a time.

    Otherwise, and for a given ``adj_x``, every entry of P is formed, one
    column of the adjugate at a time, and compared with 0 and det(X) as
    soon as it is formed and then dropped, so the run holds det(X), one
    column of the adjugate and one entry of P. An entry that is neither is
    kept, so that the diagonal differences are still decided exactly and a
    failing run names the same first generator either way. The generators
    are asked for last, so X * Y is not held while det(X) is formed.
    """
    if adj_x is not None:
        if adj_x.n != n:
            raise ValueError(f"size mismatch: {n} vs {adj_x.n}")
        if not _is_symmetric(adj_x.entries):
            why = "Y -> adj(X) needs a symmetric adjugate; the one given is not"
            return PairChecks(len(graph_ideal_generators(n)), why, False)
    xm = generic_sym_matrix(n, "X")
    x = [[e.terms for e in row] for row in xm.entries]
    det = det_sym(xm).terms
    unit = [[int(i == j) for j in range(n)] for i in range(n)]  # P = det(X) * Id, in small
    if adj_x is None and _two_entries_suffice(n, x[0], det):
        shadow = unit
    else:
        if adj_x is None:
            columns: Iterable[Iterable] = _adjugate_columns(n, det)
        else:
            columns = ([row[j].terms for row in adj_x.entries] for j in range(n))
        # each entry becomes its place among the distinct values of P met so
        # far, which start with 0 and det(X); two entries get the same int
        # exactly when they are equal, and a passing run keeps no entry
        kept: list[dict] = [{}, det]
        shadow = [[0] * n for _ in range(n)]
        for j, column in enumerate(map(list, columns)):
            for i in range(n):
                entry: dict[int, Scalar] = {}
                for x_ik, adj_kj in zip(x[i], column):
                    _mul_into(entry, x_ik, adj_kj)
                if entry not in kept:
                    kept.append(entry)
                shadow[i][j] = kept.index(entry)
    gens = graph_ideal_generators(n)
    residual = next((_NONZERO + str(g) for g, v in zip(gens, _at_generator_places(shadow)) if v), None)
    diagonal = _monomial(xvar(i, i) for i in range(1, n + 1))
    identity = det.get(diagonal) == 1 and shadow == unit
    return PairChecks(len(gens), residual, identity)


def numeric_checks(n: int, trials: int, seed: int) -> PairChecks:
    """Both numeric checks on the same exact samples.

    Sample t is a random integer symmetric M with det M != 0, drawn from
    ``seed * 1_000_003 + t``, with det M and adj M from one elimination,
    and P = M * adj M formed once. The adjugate identity compares P with
    det M * Id. At X = M, Y = adj M each generator of X * Y takes the
    value of P at its place. Trials run in order, in the calling thread;
    the first failing trial names the residual.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gens = graph_ideal_generators(n)

    def trial(t: int) -> tuple[Optional[str], bool]:
        m, det, adj = _invertible_symmetric(random.Random(seed * 1_000_003 + t), n)
        p = _product(m, adj)
        identity = p == [[det if i == j else 0 for j in range(n)] for i in range(n)]
        for g, v in zip(gens, _at_generator_places(p)):
            if v:
                return f"trial {t}: generator {g} evaluates to nonzero", identity
        return None, identity

    residual, identity = None, True
    for failure, ok in map(trial, range(trials)):
        residual = residual or failure
        identity = identity and ok
    return PairChecks(len(gens), None if residual is None else _NONZERO + residual, identity)


def verify_graph_vanishing(
    n: int,
    mode: str = "symbolic",
    trials: int = 100,
    seed: int = 0,
    symbolic_cap: int = 4,
    adj_x: Optional[SymbolicMatrix] = None,
) -> VanishingReport:
    """Certify that every graph generator vanishes on pairs (M, adj M): the
    graph half of ``symbolic_checks`` or of ``numeric_checks``.

    Symbolic mode is exponential in n and refuses to run past
    ``symbolic_cap`` unless the cap is raised; ``adj_x``, when given, is
    the adjugate of the generic X under test. A nonzero residual raises
    InvariantViolation naming the offending generator.
    """
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f'mode must be "symbolic" or "numeric", got {mode!r}')
    if mode == "numeric":
        checks = numeric_checks(n, trials, seed)
    elif n > symbolic_cap:
        raise ValueError(f"symbolic mode is capped at n <= {symbolic_cap}; raise symbolic_cap to override")
    else:
        checks, trials = symbolic_checks(n, adj_x=adj_x), 0
    if checks.residual is not None:
        raise InvariantViolation(checks.residual)
    return VanishingReport(n, mode, checks.generators, trials)


def adjugate_identity_holds(n: int, adj_x: Optional[SymbolicMatrix] = None) -> bool:
    """Symbolic check that X * adj(X) = det(X) * Id, that adj(X) is symmetric,
    and that X[1,1]*...*X[n,n] has coefficient 1 in det(X): the identity
    half of ``symbolic_checks``."""
    return symbolic_checks(n, adj_x=adj_x).identity


def adjugate_identity_numeric(n: int, trials: int, seed: int) -> bool:
    """Exact spot check of M * adj(M) = det(M) * Id on random nonsingular
    symmetric M: the identity half of ``numeric_checks``, on the samples
    that graph vanishing uses."""
    return numeric_checks(n, trials, seed).identity


# ------------------------------------------------------------- rational witnesses

class _RationalSymMatrixFields(NamedTuple):
    n: int
    rows: tuple[tuple[Fraction, ...], ...]


class RationalSymMatrix(_RationalSymMatrixFields):
    """Symmetric matrix of exact rationals."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[tuple[Fraction, ...], ...]) -> "RationalSymMatrix":
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n} x {n} entries")
        if not _is_symmetric(rows):
            raise ValueError("matrix is not symmetric")
        return super().__new__(cls, n, rows)

    @classmethod
    def _make(cls, fields) -> "RationalSymMatrix":  # _replace and _make validate too
        return cls(*fields)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RationalSymMatrix":
        """Entries must be ints or Fractions: ``Fraction(0.1)`` would take the
        float's binary value, not 1/10, so a float raises TypeError."""
        from fractions import Fraction

        return cls(len(rows), tuple(tuple(Fraction(_exact(x)) for x in row) for row in rows))

    def rank(self) -> int:
        return matrix_rank(self.rows)


# a seed of random.Random; the CLI names each family's stream by a str
WitnessSeed = Union[int, str]


def _witness_family(n: int, seed: WitnessSeed) -> Iterator[tuple[int, list[list[int]], list[list[int]], int]]:
    """(r, M_r, W_r, det(A)) for r = n down to 0, from one random invertible
    integer A and sign-weighted diagonals d, e of length n.

    M_r = A diag(d_0..d_{r-1}) A^T and W_r = det(A)^2 N_r = sum_{k >= r}
    e_k g_k g_k^T, g_k column k of adj(A^T) = adj(A)^T, all of it from one
    elimination of A^T. Going down one rank is a rank-one update of each:
    M_r = M_{r+1} - d_r a_r a_r^T and W_r = W_{r+1} + e_r g_r g_r^T, a_r
    column r of A. Both triangles are computed, so that a symmetry check
    still means something, and each pair is a new pair of lists, so a
    yielded pair never changes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        _, det, adj_t = _eliminate(list(zip(*a)))
        if adj_t is not None:
            break
    d = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n)]
    e = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n)]
    m = [[sum(map(mul, x, y)) for y in a] for x in ([v * dk for v, dk in zip(row, d)] for row in a)]
    w = [[0] * n for _ in range(n)]
    for r in range(n - 1, -1, -1):
        yield r + 1, m, w, det
        a_r, g_r = [row[r] for row in a], [row[r] for row in adj_t]
        m = [[x - u * y for x, y in zip(row, a_r)] for row, u in zip(m, [d[r] * v for v in a_r])]
        w = [[x + u * y for x, y in zip(row, g_r)] for row, u in zip(w, [e[r] * v for v in g_r])]
    yield 0, m, w, det


def _witness_rows(n: int, r: int, seed: WitnessSeed) -> tuple[list[list[int]], list[list[int]], int]:
    """Pair r of the witness family of ``seed``: the integer rows of M and
    det(A)^2 N, and det(A)."""
    if not 0 <= r <= n:
        raise ValueError(f"rank r out of range 0..{n}, got {r}")
    return next((m, w, det) for k, m, w, det in _witness_family(n, seed) if k == r)


def witness_rank_pair(n: int, r: int, seed: WitnessSeed = 0) -> tuple[RationalSymMatrix, RationalSymMatrix]:
    """Random pair (M, N) of symmetric rationals with rank r and n - r and M N = 0.

    M = A D A^T and N = A^-T E A^-1 for a random invertible integer A and
    complementary nonzero diagonals D, E, so the ranks are exact and the
    product vanishes identically. The pair is rank r of the family of
    ``seed`` (``_witness_family``): one A, D and E serve every rank, D
    weighting the first r columns of A and E the last n - r rows of
    A^-1. Deterministic in the seed.
    """
    from fractions import Fraction

    m, w, det = _witness_rows(n, r, seed)
    scale = det * det
    return (
        RationalSymMatrix.from_rows(m),
        RationalSymMatrix.from_rows([[Fraction(x, scale) for x in row] for row in w]),
    )


# the largest prime below 2^30: a residue is one digit of a CPython int
_PRIME = 1_073_741_789


def _rank_at_least(rows: Sequence[Sequence[int]], k: int, start: int) -> bool:
    """rank(rows) >= k over the rationals. First from the k x k principal
    block at rows and columns start.., whose nonzero determinant mod
    ``_PRIME`` is a nonzero minor over the integers; then from the rank mod
    ``_PRIME``, which is at most the rank over Q; and from the exact rank
    only when both fall short."""
    block = [row[start:start + k] for row in rows[start:start + k]]
    return _rank_mod(block, _PRIME) == k or _rank_mod(rows, _PRIME) >= k or matrix_rank(rows) >= k


def _pair_valid(n: int, r: int, m: Sequence[Sequence[int]], w: Sequence[Sequence[int]]) -> bool:
    """M and W are symmetric, their ranks are exactly (r, n - r) and every
    entry of M * W vanishes.

    By Sylvester's inequality M * W = 0, checked exactly, gives rank M +
    rank W <= n, so the lower bounds rank M >= r and rank W >= n - r are
    the exact ranks. The bounds come mod a prime (``_rank_at_least``),
    from the leading r x r block of M and the trailing (n - r) x (n - r)
    block of W, where a witness family puts them, so the verdict is the
    one exact ranks give, with no probability involved.
    """
    return (
        _is_symmetric(m)
        and _is_symmetric(w)
        and _rank_at_least(m, r, 0)
        and _rank_at_least(w, n - r, r)
        and not any(v for row in _product(m, w) for v in row)
    )


def witness_pair_valid(n: int, r: int, seed: WitnessSeed = 0) -> bool:
    """Pair r of the witness family of ``seed`` is valid (``_pair_valid``):
    checked on the integer M and det(A)^2 N, which have the ranks, the
    symmetry and the zero product of M and N."""
    m, w, _ = _witness_rows(n, r, seed)
    return _pair_valid(n, r, m, w)


def witness_family_valid(n: int, seed: WitnessSeed) -> bool:
    """Every pair r = n..0 of the witness family of ``seed`` is valid; one
    elimination and 2n rank-one updates build all n + 1 pairs."""
    return all(_pair_valid(n, r, m, w) for r, m, w, _ in _witness_family(n, seed))
