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
X[i,j] -> X[sigma i, sigma j]; det(X) must be fixed by the generators
(1 2) and (1 2 ... n), and then P = X * adj(X) commutes with the action.
S_n is 2-transitive, so P[1,1] and P[1,2], the only entries formed, each
one linear pass over det(X), reduced to a class (zero, det(X) or other)
and dropped, decide every verdict on P. Substitution is a ring map that
fixes X, so each generator of X*Y goes under Y -> adj(X) to the entry of P at its place, and
nothing is substituted. Numerically, each sample is one random nonsingular
integer M with det M and adj M, and P = M * adj M formed once; a
generator's value at (M, adj M) is the entry of P at its place. Either way
the adjugate identity compares P with det * Id. X * Y depends on n alone,
so ``_product_vectors`` keeps the last one it built for every check of a
run, as bilinear vectors: a monomial X[i,k] * Y[k,j] is keyed by its two
variables' slots, and only a failing generator's text, or a public
function, packs one into a ``SparsePoly``. The swap X <-> Y exchanges the
two slots of a key.

Matrices of numbers get determinant and adjugate from the one fraction-free
Bareiss Gauss-Jordan elimination in ``exact``, O(k^3), and every exact
product of them, M * adj M and M * W, from one kernel of packed rows
(``_product_rows``): a row of the product is one int, whose balanced fields
are its entries. Every rank over Q comes from the one fraction-free sparse
reduction in ``exact`` (``_reduce_into``). The span comparison splits the
vectors over the weight classes of the torus action and ranks only the
weight-0 class, the diagonal entries of X * Y, with it; witness ranks take
it (``matrix_rank``) only when both bounds mod p fall short. Those bounds
come from ``exact._rank_mod``, Gaussian elimination on residues mod
``_PRIME``, of a principal block first and of the whole matrix when the
block is singular mod p.
``adjugate`` runs the determinant DP of ``poly`` once per minor; it is the
oracle that the derivative adjugate is tested against.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain
from operator import lshift, mul
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence, Union

from .exact import InvariantViolation, Scalar, _add_into, _eliminate, _exact, _rank_mod, _reduce_into, matrix_rank
from .poly import Entry, SparsePoly, SymbolicMatrix, _bilinear_poly, _fixed_by, _monomial, _p11_p12, _slot, _var
from .poly import det_sym, determinant, generic_sym_matrix, xvar

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


# ------------------------------------------------------------------- generators

@lru_cache(maxsize=1)
def _product_vectors(n: int) -> list[list[dict]]:
    """X * Y for generic symmetric X and Y as bilinear vectors: entry (i, j)
    maps the key s * V + t of each monomial X[i,k] * Y[k,j] to its
    coefficient 1, s and t the variables' fields in ``poly`` over two and
    V = n(n+1)/2 (``poly._bilinear_poly``). The last one built is cached, so
    every check of a run reads one X * Y."""
    v = n * (n + 1) // 2
    slot = [[_slot(xvar(i + 1, k + 1)) >> 1 for k in range(n)] for i in range(n)]
    return [[{slot[i][k] * v + slot[k][j]: 1 for k in range(n)} for j in range(n)] for i in range(n)]


def product_matrix(n: int) -> SymbolicMatrix:
    """X * Y for generic symmetric X and Y, packed from ``_product_vectors``."""
    return SymbolicMatrix(n, tuple(tuple(_bilinear_poly(e, n) for e in row) for row in _product_vectors(n)))


def product_entries(n: int) -> list[SparsePoly]:
    """The n^2 entries of X * Y, row-major; their span cuts out product zero."""
    return [p for row in product_matrix(n).entries for p in row]


def _difference(a, b):
    """a - b; for vectors (dicts) a new dict without the keys that cancel."""
    if not isinstance(a, dict):
        return a - b
    out = dict(a)
    _add_into(out, b, -1)
    return out


def _at_generator_places(e: Sequence[Sequence]) -> list:
    """The off-diagonal entries of a square matrix, row-major, then the
    differences of consecutive diagonal entries."""
    n = len(e)
    out = [e[i][j] for i in range(n) for j in range(n) if i != j]
    out.extend(_difference(e[i][i], e[i + 1][i + 1]) for i in range(n - 1))
    return out


def _generator_vectors(n: int) -> list[dict]:
    """The graph generators as bilinear vectors, at the generator places of
    ``_product_vectors``; the off-diagonal ones are X * Y's own entries."""
    return _at_generator_places(_product_vectors(n))


def graph_ideal_generators(n: int) -> list[SparsePoly]:
    """Generators of the inversion-graph ideal: the n(n-1) off-diagonal
    entries of X * Y (row-major) plus the n - 1 consecutive diagonal
    differences."""
    return [_bilinear_poly(g, n) for g in _generator_vectors(n)]


def _up_to_sign(vec: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Keys and coefficients of vec or -vec, whichever is positive at the
    largest key: a choice made by the key set alone, so two vectors have
    the same form exactly when they are equal up to sign."""
    keys = tuple(sorted(vec))
    sign = -1 if keys and vec[keys[-1]] < 0 else 1
    return keys, tuple(sign * vec[k] for k in keys)


def swap_symmetry_holds(n: int) -> bool:
    """Generator set is stable (up to sign) under exchanging X and Y, which
    exchanges the two slots of every bilinear key. The swap is linear and
    injective, so the swapped sign classes equal the original ones once
    each lies among them; one swapped generator is held at a time."""
    v = n * (n + 1) // 2
    gens = _generator_vectors(n)
    originals = set(map(_up_to_sign, gens))
    return all(_up_to_sign({k % v * v + k // v: c for k, c in g.items()}) in originals for g in gens)


# ------------------------------------------------------------- span comparison

def spans_product_entries(n: int) -> bool:
    """Graph generators plus the (1,1) product entry span every entry of X*Y.

    The torus (X, Y) -> (D X D, D^-1 Y D^-1) gives X[i,j] the weight
    e_i + e_j and Y[i,j] the weight -e_i - e_j, so entry (i, j) of X * Y
    has weight e_i - e_j. Each generator must have one weight, in all its
    terms, and joins that class; each entry joins the class of its place.
    The spans are equal when they are in every class, and then every term
    of an entry has its place's weight, for it lies in the span of
    generators that have it. An off-diagonal class holds one entry, which
    the generators hold as it is, so only the weight-0 class is ranked: the
    n diagonal entries against the n - 1 differences and the (1,1) entry,
    three equal ranks, the union's from extending the left basis by the
    right vectors. A weight is one int, whose base-8 digit at index i is the
    (balanced) coefficient of e_i.
    """
    v = n * (n + 1) // 2
    weight = [(1 << 3 * x.row - 3) + (1 << 3 * x.col - 3) for x in map(_var, range(0, 2 * v, 2))]
    prod = _product_vectors(n)
    classes: dict[int, tuple[list, list]] = {}  # weight -> (generators, entries)
    for i, row in enumerate(prod):
        for j, e in enumerate(row):
            classes.setdefault((1 << 3 * i) - (1 << 3 * j), ([], []))[1].append(e)
    for g in _generator_vectors(n) + [prod[0][0]]:
        weights = {weight[k // v] - weight[k % v] for k in g}
        if len(weights) > 1:
            return False
        if weights:
            classes.setdefault(weights.pop(), ([], []))[0].append(g)
    for left, right in classes.values():
        if left != right:
            basis = _reduce_into({}, left)
            r_left = len(basis)
            if not r_left == len(_reduce_into({}, right)) == len(_reduce_into(basis, right)):
                return False
    return True


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
    return list(zip(*rows)) == list(map(tuple, rows))


def _max_abs(rows: Sequence[Sequence[int]]) -> int:
    return max(map(abs, chain.from_iterable(rows)), default=0)


def _field_bits(bound: int) -> int:
    """The narrowest balanced field that holds every int of absolute value
    at most bound: f bits hold -2^(f-1) < x < 2^(f-1)."""
    return bound.bit_length() + 1


def _product_rows(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], f: int) -> list[int]:
    """The rows of the int matrix product a * b, row i packed as the one int
    sum_j (a * b)[i][j] << f * j: each row of b is packed once, and row i is
    sum_k a[i][k] * (packed row k of b), len(b) big-int products. When every
    entry fits a balanced f-bit field (``_field_bits``), the fields read the
    entries back (``_unpacked``) and a row is 0 only when all its entries are."""
    shifts = range(0, f * len(b[0]), f) if b else ()
    packed = [sum(map(lshift, row, shifts)) for row in b]
    return [sum(map(mul, row, packed)) for row in a]


def _unpacked(row: int, f: int, cols: int) -> list[int]:
    """The cols balanced f-bit fields of a packed row, lowest first."""
    out = []
    for _ in range(cols):
        x = row & (1 << f) - 1
        x -= x >> f - 1 << f  # the top bit of a field is its sign
        out.append(x)
        row = row - x >> f
    return out


class PairChecks(NamedTuple):
    """Graph vanishing and the adjugate identity, read off one P."""

    generators: int
    residual: Optional[str]  # why a generator does not vanish, or None
    identity: bool  # P = det * Id, on every sample in numeric mode


_NONZERO = "graph generator does not vanish on inverse pairs: "


def symbolic_checks(n: int) -> PairChecks:
    """Both symbolic checks off P = X * adj(X), adj(X) read off the
    derivatives of det(X), from its entries P[1,1] and P[1,2].

    Y -> adj(X) is a ring map that fixes X, so each generator of X * Y
    goes to the entry of P at its place; graph vanishing demands that every
    such entry is the zero polynomial. The adjugate identity asks for
    P = det(X) * Id and coefficient 1 for X[1,1]*...*X[n,n] in det(X).
    Read off the derivatives of any f, the adjugate gives X * adj = f * Id
    only for f a constant times det(X), and the coefficient check pins the
    constant to 1, so a zero or scaled determinant fails the identity.

    S_n acts by X[i,j] -> X[sigma i, sigma j]. det(X) must be fixed by
    (1 2) and (1 2 ... n), which generate S_n; else InvariantViolation.
    Relabelling commutes with taking derivatives, so P[sigma i][sigma j] =
    sigma(P[i][j]), and S_n is 2-transitive. So every off-diagonal entry
    has the class of P[1,2] (zero, det(X) or other). P[1,1] is fixed by
    the stabiliser of 1, which generates S_n with (1 2): the diagonal
    entries are all equal exactly when (1 2) fixes P[1,1], and otherwise
    every consecutive pair differs, (i i+1) being conjugate to (1 2). The
    classes fill a small shadow of P, whose generator places give the
    residual. Each entry is one pass over det(X) (``poly._p11_p12``),
    reduced to its class and dropped before the next is formed. The
    off-diagonal variables form one orbit, so an odd derivative, if any, is
    one at X[1,2], sought once, after the invariance check. The generators
    are asked for last, so X * Y is not held while det(X) is formed.
    """
    det = det_sym(generic_sym_matrix(n, "X")).terms
    swap = [1, 0, *range(2, n)]
    if n > 1 and not (_fixed_by(det, n, swap) and _fixed_by(det, n, [*range(1, n), 0])):
        raise InvariantViolation("det(X) is not fixed by relabelling the indices of X")

    def entry_class(entry: dict) -> int:
        """0 if zero, 1 if det(X), else 2 if (1 2) fixes the entry, 3 if not."""
        if not entry or entry == det:
            return int(bool(entry))
        return 3 if n > 1 and not _fixed_by(entry, n, swap) else 2

    entries = _p11_p12(n, det)
    p11 = entry_class(next(entries))  # and dropped before P[1,2] is formed
    p12 = entry_class(next(entries)) if n > 1 else 0
    shadow = [[(p11 if p11 < 3 else 3 + i) if i == j else p12 for j in range(n)] for i in range(n)]
    gens = _generator_vectors(n)
    places = _at_generator_places(shadow)
    residual = next((_NONZERO + str(_bilinear_poly(g, n)) for g, v in zip(gens, places) if v), None)
    diagonal = _monomial(xvar(i, i) for i in range(1, n + 1))
    return PairChecks(len(gens), residual, det.get(diagonal) == 1 and (p11, p12) == (1, 0))


def numeric_checks(n: int, trials: int, seed: int) -> PairChecks:
    """Both numeric checks on the same exact samples.

    Sample t is a random integer symmetric M with det M != 0, drawn from
    ``seed * 1_000_003 + t``, with det M and adj M from one elimination,
    and P = M * adj M formed once, as packed rows (``_product_rows``). The
    adjugate identity asks row i to be det M << f * i; the fields are wide
    for det M too, so a row minus its target is 0 only when every field of
    it is, and the rows are unpacked only when one differs. At X = M,
    Y = adj M each generator of X * Y takes the value of P at its place.
    Trials run in order, in the calling thread; the first failing trial
    names the residual.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gens = _generator_vectors(n)

    def trial(t: int) -> tuple[Optional[str], bool]:
        m, det, adj = _invertible_symmetric(random.Random(seed * 1_000_003 + t), n)
        f = _field_bits(max(n * _max_abs(m) * _max_abs(adj), abs(det)))
        rows = _product_rows(m, adj, f)
        identity = all(row == det << f * i for i, row in enumerate(rows))
        if identity:
            p = [[det if i == j else 0 for j in range(n)] for i in range(n)]
        else:
            p = [_unpacked(row, f, n) for row in rows]
        for g, v in zip(gens, _at_generator_places(p)):
            if v:
                return f"trial {t}: generator {_bilinear_poly(g, n)} evaluates to nonzero", identity
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
) -> VanishingReport:
    """Certify that every graph generator vanishes on pairs (M, adj M): the
    graph half of ``symbolic_checks`` or of ``numeric_checks``.

    Symbolic mode is exponential in n and refuses to run past
    ``symbolic_cap`` unless the cap is raised. A nonzero residual raises
    InvariantViolation naming the offending generator.
    """
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f'mode must be "symbolic" or "numeric", got {mode!r}')
    if mode == "numeric":
        checks = numeric_checks(n, trials, seed)
    elif n > symbolic_cap:
        raise ValueError(f"symbolic mode is capped at n <= {symbolic_cap}; raise symbolic_cap to override")
    else:
        checks, trials = symbolic_checks(n), 0
    if checks.residual is not None:
        raise InvariantViolation(checks.residual)
    return VanishingReport(n, mode, checks.generators, trials)


def adjugate_identity_holds(n: int) -> bool:
    """Symbolic check that X * adj(X) = det(X) * Id and that
    X[1,1]*...*X[n,n] has coefficient 1 in det(X): the identity half of
    ``symbolic_checks``."""
    return symbolic_checks(n).identity


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

    def __new__(cls, n: int, rows: Sequence[Sequence[Scalar]]) -> "RationalSymMatrix":
        """Entries must be ints or Fractions: ``Fraction(0.1)`` would take the
        float's binary value, not 1/10, so a float raises TypeError."""
        from fractions import Fraction

        rows = tuple(tuple(Fraction(_exact(x)) for x in row) for row in rows)
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
        """The matrix of ``rows``, sized by their number."""
        return cls(len(rows), rows)


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
        and not any(_product_rows(m, w, _field_bits(n * _max_abs(m) * _max_abs(w))))
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
