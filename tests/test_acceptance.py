"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The lines bypass pytest's output capture, so every run of this module shows
them regardless of -s; timing-sensitive checks include the measured time.
"""

import json
import time
from fractions import Fraction
from itertools import combinations

from invdeg.cli import main
from invdeg.exact import SkewMatrix, pfaffian_reference
from invdeg.mldegree import finite_difference_check, ml_degree, ml_polynomial, smallest_valid_n
from invdeg.multidegree import beta_vector, gamma_degrees, sdp_degree, sym_dimension, verify_multidegree_identity
from invdeg.psi import psi_pair, psi_seq, psi_single
from invdeg.symbolic import verify_graph_vanishing, witness_pair_valid


def report(capsys, num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def naive_psi(entries):
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


def test_criterion_01_golden_tables(capsys):
    start = time.perf_counter()
    ok = (
        gamma_degrees(2) == (1, 1, 1)
        and gamma_degrees(3) == (1, 2, 4, 4, 2, 1)
        and beta_vector(3) == (1, 3, 6, 8, 6, 3, 1)
    )
    elapsed = time.perf_counter() - start
    report(capsys, 1, "golden tables", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_02_product_identity(capsys):
    start = time.perf_counter()
    ok = all(verify_multidegree_identity(n).ok for n in range(1, 13))
    elapsed = time.perf_counter() - start
    report(capsys, 2, "product identity n<=12", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_03_full_sequence_psi_is_one(capsys):
    start = time.perf_counter()
    ok = all(psi_seq(range(1, n + 1)) == 1 for n in range(1, 17))
    elapsed = time.perf_counter() - start
    report(capsys, 3, "psi of full sequence n<=16", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_04_symmetries(capsys):
    ok = True
    for n in range(1, 13):
        vec = beta_vector(n)
        gam = gamma_degrees(n)
        ok = ok and vec == vec[::-1] and gam == gam[::-1]
    report(capsys, 4, "beta and gamma palindromic n<=12", ok)


def test_criterion_05_oracle_equivalence(capsys):
    ok = True
    for n in range(1, 11):
        m = sym_dimension(n)
        universe = list(range(1, n + 1))
        betas = [0] * (m + 1)
        by_size_weight = {}
        for size in range(n + 1):
            for combo in combinations(universe, size):
                comp = tuple(e for e in universe if e not in combo)
                prod = naive_psi(combo) * naive_psi(comp)
                betas[sum(combo)] += prod
                key = (size, sum(combo))
                by_size_weight[key] = by_size_weight.get(key, 0) + prod
        ok = ok and list(beta_vector(n)) == betas
        for r in range(0, n + 1):
            for d in range(0, m + 1):
                expected = by_size_weight.get((n - r, d), 0) if 0 < r < n else 0
                ok = ok and sdp_degree(d, n, r) == expected
    report(capsys, 5, "engine equals naive enumeration n<=10", ok)


def test_criterion_06_graph_vanishing(capsys):
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        rep = verify_graph_vanishing(n, mode="symbolic")
        ok = ok and rep.mode == "symbolic"
    symbolic_elapsed = time.perf_counter() - start
    for n in (5, 6, 7):
        rep = verify_graph_vanishing(n, mode="numeric", trials=100, seed=2024)
        ok = ok and rep.trials == 100
    report(capsys, 6, "graph vanishing symbolic n<=4, numeric n<=7",
           ok and symbolic_elapsed < 300.0, f"symbolic {symbolic_elapsed:.2f}s")


def test_criterion_07_polynomiality(capsys):
    ok = True
    for d in range(1, 7):
        poly = ml_polynomial(d)  # interpolates d points, validates 3 more
        ok = ok and poly.degree == d - 1
        n0 = smallest_valid_n(d)
        ok = ok and all(poly.evaluate(n) == ml_degree(n, d) for n in range(n0, n0 + d + 5))
        ok = ok and finite_difference_check(d, d + 10).ok
    ok = ok and ml_polynomial(2).coeffs == (Fraction(-1), Fraction(1))
    report(capsys, 7, "ML-degree polynomiality d<=6, d=2 gives n-1", ok)


def test_criterion_08_boundary_ml_degrees(capsys):
    ok = all(
        ml_degree(n, 1) == 1 and ml_degree(n, sym_dimension(n)) == 1
        for n in range(1, 11)
    )
    report(capsys, 8, "boundary ML-degrees n<=10", ok)


def test_criterion_09_witness_checks(capsys):
    ok = all(
        witness_pair_valid(n, r, seed)
        for n in range(1, 6)
        for r in range(n + 1)
        for seed in range(20)
    )
    report(capsys, 9, "witness rank pairs n<=5, 20 seeds", ok)


def test_criterion_10_performance_n20(capsys):
    args = ["multidegree", "--n", "20", "--format", "json"]
    start = time.perf_counter()
    code_one = main(["--threads", "1"] + args)
    elapsed = time.perf_counter() - start
    out_one = capsys.readouterr().out
    code_four = main(["--threads", "4"] + args)
    out_four = capsys.readouterr().out
    payload = json.loads(out_one)
    ok = (
        code_one == 0
        and code_four == 0
        and out_one == out_four
        and elapsed < 60.0
        and payload["results"]["m"] == "210"
        and payload["checks"][0]["pass"] is True
    )
    report(capsys, 10, "n=20 table under 60s, thread-count independent", ok, f"{elapsed:.1f}s")
