import hashlib
from itertools import combinations

import pytest

import invdeg.multidegree as multidegree_mod
from invdeg.exact import InvariantViolation, SkewMatrix, binomial, pfaffian, pfaffian_reference
from invdeg.multidegree import (
    _digits,
    _gamma_from_beta,
    _generating_matrix,
    _generating_values,
    _rank_table,
    beta,
    beta_vector,
    gamma_degrees,
    multidegree_table,
    sdp_degree,
    sigma_coefficients,
    sym_dimension,
    verify_multidegree_identity,
)
from invdeg.psi import psi_pair, psi_seq, psi_single, psi_table


# sha256 of repr(beta_vector(n)), recorded from the 2^(n+1) mask-table engine
# that the minor-summation Pfaffian replaced.
BETA_VECTOR_SHA256 = {
    1: "d02b5ba5c34b34dbcc44c971bd1e9ee12da04d573f9a8354930f910325e10149",
    2: "df1055e1dde3b6015a4d1ae9517d9757ee4fcb6333ed8d8709d2dc34a6faf468",
    3: "4da5030056ba351231045f5489210f3a262edde7afd5b0442099164ae680565a",
    4: "1524325ce04c74dfa12062c56f36d5fc5a991c7fd9cdac7826d95ef533debe66",
    5: "01d4ac5fc55d280aef6a115127b50cfbfc80e8a11278043ef5234ec816aa872f",
    6: "72a3db6823232c755ca834ca2e29c2a7084e117a6685466cfa1bedaf61acb6d0",
    7: "10d930d2ec9c5f2556779377b2db7b8fbb982f2514d294d70d7c9ba7a13c1bd4",
    8: "c2c1861b62280e9fd9504749e8e9e0ca56d440d9d7a98c40741e9a1b9b0915b5",
    9: "32990849f3e946a07b853cb29446c645f92379b5270ac39cc5f69e1af798c970",
    10: "2ec5750b0d1a3053b90a550728b228176d8bea0d36fe1f0c5ef3ee950b9f054d",
    11: "401b7399823bf3ae936c83d125bf3c6388f41074722444ba658991344744364a",
    12: "be4cb4177430aafa9c8ef99e646a3319ec5f2c2ed2bcaf0943da583608b1c2d2",
    13: "75e580c76797ae392706bc836dfb886f2d9624c10febe753185e6a17baaebc97",
    14: "b6b4ac7f8892202c77005b60e37ac8343491c5eeedb186a3718111e781b0d927",
    15: "168661e0706d78ca8d9a5375f897385058e87cb7d6cf6185ebd9a2b78a9c1920",
    16: "234af4b4d2523d913b7574b03465b6dcf9fd7739e0c2d01ff26ba7aedb111cb5",
    17: "f2844e31098db3b31b1382459c8922f89ed303ddb7006d36f04436e223a2f3cd",
    18: "37549838731edafdb8fa4cf9651fdd274a01c46c97d79fb1faea7fcbecac07ab",
    19: "2fa1c496b925e4a130e76c54e232b17b1331c84128228d53c27b50dfc0d7c3da",
    20: "7404668c0d36fa08b9d4795bd8427d6b77b3aec1665b3ff9ca47cf3b6b72e56c",
    21: "f91538d7ec97e0104d2d39d215c3fc0d4fddfe9093bf3097d52793dd514d0772",
}

# sha256 of repr(_rank_table(n)), recorded from the engine that evaluated one
# Pfaffian per n before every n was read off one elimination per parity.
RANK_TABLE_SHA256 = {
    1: "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    2: "1d7b36a6332af358eb6716bfad0151bbc184c39abfc1c33eed536a18dfe66404",
    3: "b6c1281f427a9447940aba038be5068554138e98e6cfdc069483d560be84c114",
    4: "7eb9619933a98278ff6aabbf991ee202fa0c81274c92aacd4e4458303ea39de9",
    5: "c73e0b894ecb59f8e4936a00f43f7eb59fcb04c431c22469fe72b2580a042804",
    6: "9c0ae1c6b3e105706ad86e91a4abd2901b48176c4fb9be2938a61df5c4fa1e4e",
    7: "ebcb0a3cabd5898a776985523b111021e401a7e46812d87953a776273fa813bd",
    8: "3ff945744ae97deb686f146f6d658a2f85f8f0f8a1211297f718faf233872bfe",
    9: "395d10584ec7dc04f7ce814b1b8cdc99801dc262f064df6c6e7db87f7c07b3d6",
    10: "a5b28f13b2570fc973c45fee3441c1a65e9a87a6110d8c6e2e6b2da85523e1e8",
    11: "73c7d6cd7efdb5f81137f18a214889e2cad12e834c3ab5760112a71ba159338b",
    12: "a984fa18c764ba905220ab8284027f1f61b4eec0ba5031cbc118d347d3ccc0d5",
    13: "7fa41e07c359fa0dbed79b31dd35706b3f64889a922ef85fe0e9056d8f116220",
    14: "6a381a00d149eebc78a0e9ac0f75b29fc79b51f6fd64e56c3ca0dec5c8485cc5",
}


def naive_psi(entries):
    """Oracle psi: bordered pair matrix expanded with pfaffian_reference."""
    r = len(entries)
    if r == 0:
        return 1
    if r % 2 == 0:
        rows = SkewMatrix.from_upper(r, lambda k, l: psi_pair(entries[k], entries[l]))
    else:
        def upper(k, l):
            if k == 0:
                return psi_single(entries[l - 1])
            return psi_pair(entries[k - 1], entries[l - 1])
        rows = SkewMatrix.from_upper(r + 1, upper)
    return pfaffian_reference(rows)


def naive_tables(n):
    """2^n enumeration: sums of psi(alpha) * psi(complement) keyed by (len, weight)."""
    m = n * (n + 1) // 2
    by_size_weight = {}
    betas = [0] * (m + 1)
    universe = list(range(1, n + 1))
    for size in range(n + 1):
        for combo in combinations(universe, size):
            comp = tuple(e for e in universe if e not in combo)
            prod = naive_psi(combo) * naive_psi(comp)
            key = (size, sum(combo))
            by_size_weight[key] = by_size_weight.get(key, 0) + prod
            betas[sum(combo)] += prod
    return betas, by_size_weight


def test_sym_dimension():
    assert sym_dimension(1) == 1
    assert sym_dimension(3) == 6
    assert sym_dimension(20) == 210
    with pytest.raises(ValueError):
        sym_dimension(0)


def test_beta_known_values():
    assert beta(2, 1) == 2
    assert beta(3, 3) == 8
    assert beta(3, 0) == 1
    assert beta(4, -1) == 0
    assert beta(4, 11) == 0
    with pytest.raises(ValueError):
        beta(0, 0)


def test_beta_vector_golden():
    assert beta_vector(1) == (1, 1)
    assert beta_vector(2) == (1, 2, 2, 1)
    assert beta_vector(3) == (1, 3, 6, 8, 6, 3, 1)


def test_gamma_golden():
    assert gamma_degrees(1) == (1,)
    assert gamma_degrees(2) == (1, 1, 1)
    assert gamma_degrees(3) == (1, 2, 4, 4, 2, 1)


def test_sigma_golden():
    assert sigma_coefficients(2) == (2, 2)
    assert sigma_coefficients(3) == (3, 6, 8, 6, 3)
    assert sigma_coefficients(1) == ()


def test_sdp_degree_known_values():
    assert sdp_degree(1, 3, 2) == 3
    assert sdp_degree(3, 3, 2) == 4
    assert sdp_degree(2, 3, 1) == 0
    assert sdp_degree(1, 3, 0) == 0
    assert sdp_degree(1, 3, 3) == 0
    assert sdp_degree(-2, 4, 2) == 0
    with pytest.raises(ValueError):
        sdp_degree(1, 0, 0)


def test_oracle_equivalence_naive_enumeration():
    for n in range(1, 9):
        m = sym_dimension(n)
        betas, by_size_weight = naive_tables(n)
        assert list(beta_vector(n)) == betas
        for r in range(0, n + 1):
            for d in range(0, m + 1):
                expected = by_size_weight.get((n - r, d), 0) if 0 < r < n else 0
                assert sdp_degree(d, n, r) == expected


def test_engine_matches_psi_seq_route():
    # the minor-summation engine against the public per-subset Pfaffian route
    for n in range(1, 9):
        table = psi_table(n)
        m = sym_dimension(n)
        expected = [0] * (m + 1)
        universe = list(range(1, n + 1))
        for size in range(n + 1):
            for combo in combinations(universe, size):
                comp = tuple(e for e in universe if e not in combo)
                expected[sum(combo)] += psi_seq(combo, table) * psi_seq(comp, table)
        assert list(beta_vector(n)) == expected


def test_beta_symmetry_and_first_coefficient():
    for n in range(1, 13):
        vec = beta_vector(n)
        assert vec == vec[::-1]
        assert vec[0] == 1
        assert beta(n, 1) == n
        assert sum((-1) ** d * v for d, v in enumerate(vec)) == 0


def test_beta_vector_matches_recorded_mask_table():
    for n, want in BETA_VECTOR_SHA256.items():
        assert hashlib.sha256(repr(beta_vector(n)).encode()).hexdigest() == want, n


def test_digit_decoder_rejects_undersized_k():
    # every K too small for the largest coefficient is caught, the next one decodes
    for n in range(2, 13):
        m = sym_dimension(n)
        (total,) = _generating_values([n], 1)
        fits = max(beta_vector(n)).bit_length() + 1
        for k in range(1, fits):
            with pytest.raises(InvariantViolation, match="digits"):
                _digits(_generating_values([n], 1 << k)[0], k, m + 1, total)
        (value,) = _generating_values([n], 1 << fits)
        assert tuple(_digits(value, fits, m + 1, total)) == beta_vector(n)
        # right digits, but something left above the last one
        with pytest.raises(InvariantViolation, match="digits"):
            _digits(value + (1 << fits * (m + 1)), fits, m + 1, total)


def _subset_terms(n):
    """(|a|, weight(a), psi(a) psi(complement)) for every subset a of {1..n}, via psi_seq."""
    universe = range(1, n + 1)
    return [
        (size, sum(a), psi_seq(a) * psi_seq(tuple(e for e in universe if e not in a)))
        for size in range(n + 1)
        for a in combinations(universe, size)
    ]


def test_generating_value_matches_subset_sum():
    points = [(1, 1), (2, 1), (-3, 1), (-2, 5), (3, -2), (0, 7), (1 << 40, 1), (1 << 40, -3)]
    for n in range(1, 10):
        terms = _subset_terms(n)
        for t, s in points:
            want = sum(s ** size * t ** w * prod for size, w, prod in terms)
            assert pfaffian(_generating_matrix(n, t, s)) == want, (n, t, s)
            if t > 0 and s > 0:  # where every leading Pfaffian is positive
                assert _generating_values([n], t, s) == [want], (n, t, s)


def test_generating_values_of_mixed_parities_match_one_pfaffian_each():
    ns = [3, 8, 1, 6, 6, 5, 2, 11]
    for t, s in ((1, 1), (3, 2), (1 << 20, 1 << 7)):
        assert _generating_values(ns, t, s) == [pfaffian(_generating_matrix(n, t, s)) for n in ns], (t, s)


def test_generating_value_is_one_pfaffian(monkeypatch):
    sizes = []
    for name in ("leading_pfaffians", "_closed_leading_pfaffians"):
        real = getattr(multidegree_mod, name)
        monkeypatch.setattr(multidegree_mod, name, lambda matrix, real=real: sizes.append(matrix.size) or real(matrix))
    # (border, 1..n) for odd n and (A0, B0, 1..n) for even n; both parities
    # share one elimination on (A0, B0, 1..top, X)
    for ns, layouts in (([9], [10]), ([10], [12]), ([9, 10], [13])):
        sizes.clear()
        _generating_values(ns, 1 << 40, 3)
        assert sorted(sizes) == layouts, (ns, sizes)


def test_multidegree_table_evaluates_the_packed_pfaffian_once(monkeypatch):
    calls = []
    real = multidegree_mod._generating_values

    def counting(ns, t, s=1):
        calls.append(t)
        return real(ns, t, s)

    monkeypatch.setattr(multidegree_mod, "_generating_values", counting)
    for n in (9, 10):
        calls.clear()
        multidegree_table(n)
        # one elimination at t = 1 for the digit-sum check, one at the Kronecker point t = 2^K
        assert len(calls) == 2 and calls[0] == 1 < calls[1], calls


def test_rank_table_matches_recorded_digests():
    for n, want in RANK_TABLE_SHA256.items():
        assert hashlib.sha256(repr(_rank_table(n)).encode()).hexdigest() == want, n


def test_beta_decomposes_into_sdp_degrees():
    # interior coefficients split by solution rank; boundary terms are the two 1s
    for n in range(2, 13):
        m = sym_dimension(n)
        for d in range(0, m + 1):
            interior = sum(sdp_degree(d, n, r) for r in range(1, n))
            boundary = (1 if d == 0 else 0) + (1 if d == m else 0)
            assert beta(n, d) == interior + boundary


def test_sdp_degree_duality():
    for n in range(2, 13):
        m = sym_dimension(n)
        for r in range(1, n):
            for d in range(0, m + 1):
                assert sdp_degree(d, n, r) == sdp_degree(m - d, n, n - r)


def test_sdp_degree_positive_exactly_on_pataki_range():
    for n in range(2, 13):
        m = sym_dimension(n)
        for r in range(1, n):
            low, high = binomial(n - r + 1, 2), m - binomial(r + 1, 2)
            for d in range(0, m + 1):
                value = sdp_degree(d, n, r)
                assert value >= 0
                assert (value > 0) == (low <= d <= high), (d, n, r)


def test_gamma_palindromic_and_positive():
    for n in range(1, 13):
        gam = gamma_degrees(n)
        assert len(gam) == sym_dimension(n)
        assert gam == gam[::-1]
        assert all(v > 0 for v in gam)
        assert gam[0] == 1 and gam[-1] == 1


def test_gamma_positivity_violation_raises():
    with pytest.raises(InvariantViolation, match="multidegree positivity violated"):
        _gamma_from_beta((1, 1, 1))


def test_identity_holds():
    for n in range(1, 13):
        report = verify_multidegree_identity(n)
        assert report.ok
        assert report.m == sym_dimension(n)
        assert len(report.coefficients) == report.m + 1
        for coeff in report.coefficients:
            assert coeff.lhs == coeff.rhs == beta(n, coeff.d)


def test_identity_spot_values():
    report = verify_multidegree_identity(3)
    gam = gamma_degrees(3)
    assert report.coefficients[0].lhs == gam[0] == 1
    assert report.coefficients[2].lhs == gam[2] + gam[1] == 6
    assert report.coefficients[6].lhs == gam[5] == 1


def test_multidegree_table_assembly():
    tb = multidegree_table(4)
    assert tb.n == 4 and tb.m == 10
    assert tb.beta == beta_vector(4)
    assert tb.gamma_degs == gamma_degrees(4)
    assert tb.sigma_coeffs == sigma_coefficients(4)
    assert tb.identity.ok
    assert len(tb.beta) == tb.m + 1
    assert len(tb.gamma_degs) == tb.m
    assert len(tb.sigma_coeffs) == tb.m - 1
