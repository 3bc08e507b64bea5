"""The benchmark's workloads: fixed invdeg command lists and their output checks.

Each workload is a list of ``python -m invdeg`` argument lists. One pass runs
the list once, in an order drawn from the workload seed; the seed is also the
``verify --seed`` value. Every command's stdout is checked: seed-independent
outputs against sha256 digests recorded when the benchmark was added
(printed bytes are a fixed constraint), plus cheap independent checks on the decoded
values where they exist.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# sha256 of stdout, recorded with `python -m invdeg <args> | sha256sum`.
DIGESTS = {
    "psi --n 1": "d0b097163d46c6110a47ee6d2e5a06a633d88aedc0fbbb28421faf22f036b626",
    "multidegree --n 20": "ac95b7e05ddd3f150adcbc26778b617011564fe8ba4e0c2c115b5c7719533ba6",
    "mldeg --n-max 18": "1b672424ec47090b840a74e1b3a6b6211ae8ad1986233c26cf203e51cb22fb93",
    "mldeg --d 12 --poly": "ac9c425a72c0d1ee70a1d4283964ebffe22c30b396deb4053eee9cc7cc889691",
    "mldeg --d 8 --window 14": "9a9acf95c2ea85f3a85a050b2b5b4c1bbf18c4e38899dd51ba5b8e817cbf6957",
    "psi --n 150 --format json": "1795f83dc4dab32747965df2aefb54875b39fa8f1c04c6585aada64a4d57af2c",
    "psi --n 150 --format csv": "f13f20f72500cee3f060d2ac411b6942830ad76e5e44abde12171ec05c6fcd8f",
    "psi --n 150 --format latex": "5d1af123edc83a713409552e9f74f72173da2e3b67151f04368d629702e0f19b",
}

# A check takes a command's stdout and returns None, or why the output is wrong.
Check = Callable[[bytes], Optional[str]]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    checks: tuple[Check, ...]

    @property
    def label(self) -> str:
        return " ".join(self.args)


def digest_check(label: str) -> Check:
    want = DIGESTS[label]

    def check(out: bytes) -> Optional[str]:
        got = hashlib.sha256(out).hexdigest()
        return None if got == want else f"stdout sha256 {got} differs from the recorded {want}"

    return check


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _check_gamma(gamma: list[int], n: int) -> Optional[str]:
    if any(g <= 0 for g in gamma):
        return f"n={n}: gamma has a non-positive entry"
    if gamma != gamma[::-1]:
        return f"n={n}: gamma is not palindromic"
    if n >= 2 and gamma[1] != n - 1:
        return f"n={n}: gamma[1] = {gamma[1]}, expected {n - 1}"
    return None


def check_multidegree(out: bytes) -> Optional[str]:
    doc = json.loads(out)
    n = int(doc["params"]["n"])
    beta = _ints(doc["results"]["beta"])
    if len(beta) != n * (n + 1) // 2 + 1:
        return f"beta has {len(beta)} entries"
    if beta != beta[::-1]:
        return "beta is not palindromic"
    if not all(c["pass"] for c in doc["checks"]):
        return "the multidegree identity check failed"
    return _check_gamma(_ints(doc["results"]["gamma"]), n)


def check_ml_table(out: bytes) -> Optional[str]:
    doc = json.loads(out)
    rows = doc["results"]["rows"]
    if len(rows) != int(doc["params"]["n_max"]):
        return f"{len(rows)} rows"
    for row in rows:
        n = int(row["n"])
        gamma = _ints(row["values"])
        if len(gamma) != n * (n + 1) // 2:
            return f"n={n}: {len(gamma)} values"
        reason = _check_gamma(gamma, n)
        if reason:
            return reason
    return None


def check_json_checks_pass(out: bytes) -> Optional[str]:
    doc = json.loads(out)
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    return f"failed checks: {failed}" if failed else None


def check_differences(out: bytes) -> Optional[str]:
    doc = json.loads(out)
    diffs = doc["results"]["differences"]
    want = int(doc["params"]["window"]) - int(doc["params"]["d"])
    if len(diffs) != want or any(v != "0" for v in diffs):
        return f"differences {diffs}, expected {want} zeros"
    return None


def check_verify(out: bytes) -> Optional[str]:
    results = json.loads(out)["results"]
    if results["failed"] != "0" or results["passed"] != "5":
        return f"verify reported {results}"
    return None


def _adjacent_pair(i: int) -> int:
    # psi_{i,i+1} = sum_{k=i}^{i} C(2i - 1, k): one binomial, computed here independently.
    return math.comb(2 * i - 1, i)


def check_psi_json(out: bytes) -> Optional[str]:
    doc = json.loads(out)
    n = int(doc["params"]["n"])
    singles = _ints(doc["results"]["singles"])
    if singles != [1 << i for i in range(n)]:
        return "singles are not the powers of two"
    pairs = {(int(p["i"]), int(p["j"])): int(p["value"]) for p in doc["results"]["pairs"]}
    if len(pairs) != n * (n - 1) // 2:
        return f"{len(pairs)} pairs"
    bad = [i for i in range(1, n) if pairs[(i, i + 1)] != _adjacent_pair(i)]
    return f"psi_(i,i+1) wrong for i in {bad[:5]}" if bad else None


def check_psi_csv(out: bytes) -> Optional[str]:
    rows = list(csv.reader(io.StringIO(out.decode())))
    n = sum(1 for r in rows if r[0] == "single")
    pairs = {(int(r[1]), int(r[2])): int(r[3]) for r in rows if r[0] == "pair"}
    if len(rows) != 1 + n + n * (n - 1) // 2 or len(pairs) != n * (n - 1) // 2:
        return f"{len(rows)} csv rows for n={n}"
    bad = [i for i in range(1, n) if pairs[(i, i + 1)] != _adjacent_pair(i)]
    return f"psi_(i,i+1) wrong for i in {bad[:5]}" if bad else None


def _fixed(args: str, *checks: Check) -> Command:
    return Command(tuple(args.split()), (digest_check(args), *checks))


SETUP = _fixed("psi --n 1")


def _certify(seed: int) -> list[Command]:
    numeric = f"verify --mode numeric --n 10 --trials 20 --seed {seed}"
    return [
        Command(tuple(f"--threads 1 {numeric}".split()), (check_verify,)),
        Command(tuple(f"--threads 2 {numeric}".split()), (check_verify,)),
        Command(tuple(f"verify --mode symbolic --n 7 --symbolic-cap 7 --seed {seed}".split()), (check_verify,)),
    ]


def same_output_across_threads(outputs: dict[str, bytes]) -> Optional[str]:
    """certify: stdout must not depend on --threads."""
    by_rest: dict[str, set[bytes]] = {}
    for label, out in outputs.items():
        if label.startswith("--threads "):
            by_rest.setdefault(label.split(" ", 2)[2], set()).add(out)
    differ = [rest for rest, outs in by_rest.items() if len(outs) > 1]
    return f"stdout depends on --threads for: {differ}" if differ else None


# Each workload's command list, built from the seed; why each was chosen is
# in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "tables": lambda seed: [
        _fixed("multidegree --n 20", check_multidegree),
        _fixed("mldeg --n-max 18", check_ml_table),
    ],
    "mlpoly": lambda seed: [
        _fixed("mldeg --d 12 --poly", check_json_checks_pass),
        _fixed("mldeg --d 8 --window 14", check_differences, check_json_checks_pass),
    ],
    "certify": _certify,
    "psi-wide": lambda seed: [
        _fixed("psi --n 150 --format json", check_psi_json),
        _fixed("psi --n 150 --format csv", check_psi_csv),
        _fixed("psi --n 150 --format latex"),
    ],
}


def commands(workload: str, seed: int) -> list[Command]:
    """The command list for one pass, in the order the seed gives."""
    cmds = WORKLOADS[workload](seed)
    random.Random(seed).shuffle(cmds)
    return cmds


# Checks that compare the outputs of a whole pass, by workload.
PASS_CHECKS = {"certify": same_output_across_threads}
