"""Command line front end.

Subcommands: ``psi`` (value tables), ``multidegree`` (beta/gamma/sigma
coefficient lists plus the product identity check), ``mldeg`` (ML-degree
tables, interpolated polynomials, difference checks) and ``verify`` (the
symbolic/numeric certificate suite). Output formats are json, csv and latex;
JSON carries every integer as a decimal string since the values outgrow 64
bits quickly, and is shaped as {command, params, results, checks}. Each
command returns one report; one renderer per format prints it.

Identical invocations produce byte-identical stdout. ``--threads`` only fans
independent verification trials over a thread pool; it never changes output,
and is therefore not echoed into the params block. On a standard (GIL) build
it gives no speed-up.

Exit codes: 0 success, 1 usage error, 2 verification failure (any failed
check, a nonzero graph residual included), 3 invariant violation (positivity,
polynomiality), 4 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exact import InvariantViolation
from .mldegree import finite_difference_check, ml_polynomial, ml_table
from .multidegree import multidegree_table
from .psi import psi_table
from .symbolic import (
    adjugate_identity_holds,
    adjugate_identity_numeric,
    adjugate_sym,
    generic_sym_matrix,
    spans_product_entries,
    swap_symmetry_holds,
    verify_graph_vanishing,
    witness_pair_valid,
)

class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2 here
        raise UsageError(message)


@dataclass(frozen=True)
class _Report:
    """What one command computed, ready for any output format.

    ``params`` and ``checks`` are plain values; ``results``, ``rows`` and
    ``latex`` are built only by the renderer that prints them.
    """

    params: dict
    checks: list[dict]
    results: Callable[[], dict]
    csv_header: list[str]
    rows: Callable[[], list[list]]
    latex: Callable[[], list[str]]


def build_parser() -> _Parser:
    parser = _Parser(prog="invdeg", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threads",
        default="1",
        help="worker threads for verification fan-out (N or auto); never changes output, "
        "and gives no speed-up on a standard (GIL) build",
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
    p_ml.add_argument("--poly", action="store_true", help="interpolate the polynomial in n for fixed d")
    p_ml.add_argument("--window", type=int, help="sample count for the difference check (default d + 10)")

    p_ver = sub.add_parser("verify", help="run the certificate suite")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--mode", default="symbolic", choices=("symbolic", "numeric"))
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--symbolic-cap", type=int, default=4)

    for command_parser in (p_psi, p_multi, p_ml, p_ver):
        command_parser.add_argument("--format", default="json", choices=sorted(_RENDERERS))
    return parser


def _validate(ns: argparse.Namespace) -> None:
    """Reject a bad invocation; fill in ``window`` and the thread count.

    Equal namespaces after this step give byte-identical output.
    """
    if ns.threads != "auto":
        try:
            if int(ns.threads) < 1:
                raise ValueError
        except ValueError:
            raise UsageError(f"--threads must be a positive integer or 'auto', got {ns.threads!r}")
    ns.threads = (os.cpu_count() or 1) if ns.threads == "auto" else int(ns.threads)
    if ns.command in ("psi", "multidegree", "verify") and ns.n < 1:
        raise UsageError(f"--n must be >= 1, got {ns.n}")
    if ns.command == "mldeg":
        if ns.n_max is not None:
            if ns.n_max < 1:
                raise UsageError(f"--n-max must be >= 1, got {ns.n_max}")
            if ns.poly or ns.window is not None:
                raise UsageError("--poly/--window require --d")
            return
        if ns.d < 1:
            raise UsageError(f"--d must be >= 1, got {ns.d}")
        if ns.window is None:
            ns.window = ns.d + 10
        if ns.window < ns.d + 1:
            raise UsageError(f"--window must be >= d + 1, got {ns.window}")
    elif ns.command == "verify":
        if ns.trials < 1:
            raise UsageError(f"--trials must be >= 1, got {ns.trials}")
        if ns.symbolic_cap < 1:
            raise UsageError(f"--symbolic-cap must be >= 1, got {ns.symbolic_cap}")
        if ns.mode == "symbolic" and ns.n > ns.symbolic_cap:
            raise UsageError(
                f"symbolic mode is capped at n <= {ns.symbolic_cap}; use --mode numeric or raise --symbolic-cap"
            )


# ------------------------------------------------------------------- rendering

def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render_json(command: str, report: _Report) -> str:
    payload = {
        "command": command,
        "params": {**report.params, "format": "json"},
        "results": report.results(),
        "checks": report.checks,
    }
    return json.dumps(_jsonable(payload), indent=2)


def _render_csv(command: str, report: _Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.csv_header)
    for row in report.rows():
        writer.writerow(["" if v is None else str(v) for v in row])
    return buf.getvalue().rstrip("\n")


def _render_latex(command: str, report: _Report) -> str:
    return "\n".join(report.latex())


_RENDERERS = {"csv": _render_csv, "json": _render_json, "latex": _render_latex}


def _tabular(spec: str, rows: list[list]) -> list[str]:
    body = [" & ".join(map(str, row)) + " \\\\" for row in rows]
    return [f"\\begin{{tabular}}{{{spec}}}", *body, "\\end{tabular}"]


def _latex_bipoly(coeffs: list[int], m: int) -> str:
    """Render sum of coeffs[d] * t1^(m-d) * t2^d."""
    parts = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        factors = []
        for name, e in (("t_1", m - d), ("t_2", d)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{{{e}}}")
        body = " ".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c} {body}")
    return " + ".join(parts) if parts else "0"


def _latex_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _latex_poly_in_n(coeffs: tuple[Fraction, ...]) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        var = "" if k == 0 else ("n" if k == 1 else f"n^{{{k}}}")
        mag = _latex_coeff(abs(c))
        body = var if (var and abs(c) == 1) else f"{mag} {var}".strip()
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


# ------------------------------------------------------------------- commands

def _cmd_psi(ns: argparse.Namespace) -> _Report:
    n = ns.n
    table = psi_table(n)
    pairs = [(i, j, table.pair(i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def latex() -> list[str]:
        singles = ",\\quad ".join(f"\\psi_{{{i}}} = {table.singles[i - 1]}" for i in range(1, n + 1))
        lines = [f"% psi values, n = {n}", f"\\[ {singles} \\]"]
        if pairs:
            body = ",\\quad ".join(f"\\psi_{{{i},{j}}} = {v}" for i, j, v in pairs)
            lines.append(f"\\[ {body} \\]")
        return lines

    return _Report(
        params={"n": n},
        checks=[],
        results=lambda: {
            "singles": list(table.singles),
            "pairs": [{"i": i, "j": j, "value": v} for i, j, v in pairs],
        },
        csv_header=["kind", "i", "j", "value"],
        rows=lambda: [["single", i, None, table.singles[i - 1]] for i in range(1, n + 1)]
        + [["pair", i, j, v] for i, j, v in pairs],
        latex=latex,
    )


def _cmd_multidegree(ns: argparse.Namespace) -> _Report:
    n = ns.n
    tb = multidegree_table(n)
    identity = tb.identity
    detail = f"{len(identity.coefficients)} coefficients of (t1+t2)*C_Gamma match t1^m + t2^m + C_Sigma"

    def rows() -> list[list]:
        rows = [["beta", d, v] for d, v in enumerate(tb.beta)]
        rows += [["gamma", d, v] for d, v in enumerate(tb.gamma_degs)]
        rows += [["sigma", d + 1, v] for d, v in enumerate(tb.sigma_coeffs)]
        rows.append(["identity", None, "pass" if identity.ok else "fail"])
        return rows

    def latex() -> list[str]:
        table = [["d", "\\beta", "\\gamma"]]
        table += [[d, tb.beta[d], tb.gamma_degs[d] if d < tb.m else ""] for d in range(tb.m + 1)]
        lhs = _latex_bipoly([c.lhs for c in identity.coefficients], tb.m)
        return [
            f"% multidegrees, n = {n}, m = {tb.m}",
            *_tabular("rrr", table),
            f"\\[ (t_1 + t_2)\\, C_\\Gamma = {lhs} = t_1^{{{tb.m}}} + t_2^{{{tb.m}}} + C_\\Sigma \\]",
        ]

    return _Report(
        params={"n": n},
        checks=[{"name": "multidegree_identity", "pass": identity.ok, "detail": detail}],
        results=lambda: {
            "m": tb.m,
            "beta": list(tb.beta),
            "gamma": list(tb.gamma_degs),
            "sigma": list(tb.sigma_coeffs),
        },
        csv_header=["quantity", "d", "value"],
        rows=rows,
        latex=latex,
    )


def _cmd_mldeg(ns: argparse.Namespace) -> _Report:
    if ns.n_max is not None:
        table = ml_table(ns.n_max)

        def flat() -> list[list]:
            return [[i + 1, d + 1, v] for i, r in enumerate(table) for d, v in enumerate(r)]

        return _Report(
            params={"n_max": ns.n_max},
            checks=[],
            results=lambda: {"rows": [{"n": i + 1, "values": list(r)} for i, r in enumerate(table)]},
            csv_header=["n", "d", "value"],
            rows=flat,
            latex=lambda: [
                f"% ML-degrees, n <= {ns.n_max}",
                *_tabular("rrr", [["n", "d", "\\varphi(n, d)"], *flat()]),
            ],
        )
    d = ns.d
    if ns.poly:
        poly = ml_polynomial(d)
        return _Report(
            params={"d": d, "poly": True},
            checks=[{
                "name": "polynomiality_validation",
                "pass": True,
                "detail": f"interpolant reproduces the table at n = {', '.join(map(str, poly.validated_at))}",
            }],
            results=lambda: {
                "degree": poly.degree,
                "coefficients": [str(c) for c in poly.coeffs],
                "sample_start": poly.sample_start,
                "validated_at": list(poly.validated_at),
            },
            csv_header=["field", "key", "value"],
            rows=lambda: [["coefficient", k, str(c)] for k, c in enumerate(poly.coeffs)]
            + [["sample_start", None, poly.sample_start]]
            + [["validated", n, "pass"] for n in poly.validated_at],
            latex=lambda: [
                f"% ML-degree polynomial, d = {d}",
                f"\\[ \\varphi_{{{d}}}(n) = {_latex_poly_in_n(poly.coeffs)} \\]",
            ],
        )
    report = finite_difference_check(d, ns.window)
    verdict = "0" if report.ok else "\\text{nonzero}"
    return _Report(
        params={"d": d, "window": report.window},
        checks=[{
            "name": "difference_vanishing",
            "pass": report.ok,
            "detail": f"{len(report.differences)} forward differences of order {d} from n = {report.start_n}",
        }],
        results=lambda: {"start_n": report.start_n, "differences": list(report.differences)},
        csv_header=["field", "key", "value"],
        rows=lambda: [["difference", k, v] for k, v in enumerate(report.differences)]
        + [["vanish", None, "pass" if report.ok else "fail"]],
        latex=lambda: [
            f"% difference check, d = {d}, window = {report.window}",
            f"\\[ \\Delta^{{{d}}} \\varphi_{{{d}}}(n) = {verdict}, \\quad n = {report.start_n}, \\ldots \\]",
        ],
    )


def _cmd_verify(ns: argparse.Namespace) -> _Report:
    n = ns.n
    # One symbolic adjugate serves both symbolic checks.
    adj_x = adjugate_sym(generic_sym_matrix(n, "X")) if ns.mode == "symbolic" else None
    executor = ThreadPoolExecutor(max_workers=ns.threads) if ns.threads > 1 else None
    checks = []
    try:
        try:
            report = verify_graph_vanishing(
                n, mode=ns.mode, trials=ns.trials, seed=ns.seed,
                symbolic_cap=ns.symbolic_cap, executor=executor, adj_x=adj_x,
            )
            if report.mode == "symbolic":
                detail = f"{report.generators} generators vanish identically under Y -> adj(X)"
            else:
                detail = f"{report.generators} generators vanish on {report.trials} exact samples"
            checks.append({"name": "graph_vanishing", "pass": True, "detail": detail})
        except InvariantViolation as exc:
            checks.append({"name": "graph_vanishing", "pass": False, "detail": str(exc)})
        if ns.mode == "symbolic":
            ok = adjugate_identity_holds(n, adj_x)
            detail = "X * adj(X) = det(X) * Id symbolically"
        else:
            ok = adjugate_identity_numeric(n, ns.trials, ns.seed, executor=executor)
            detail = f"X * adj(X) = det(X) * Id on {ns.trials} exact samples"
        checks.append({"name": "adjugate_identity", "pass": ok, "detail": detail})
        checks.append({
            "name": "swap_symmetry",
            "pass": swap_symmetry_holds(n),
            "detail": "generator set stable under exchanging X and Y",
        })
        checks.append({
            "name": "product_span",
            "pass": spans_product_entries(n),
            "detail": "generators plus the (1,1) entry span all product entries in bidegree (1,1)",
        })
        seeds_per_rank = 3
        cases = [(r, k) for r in range(n + 1) for k in range(seeds_per_rank)]

        def witness_case(case: tuple[int, int]) -> bool:
            r, k = case
            return witness_pair_valid(n, r, ns.seed * 1_000_003 + 101 * r + k)

        runner = executor.map if executor is not None else map
        witness_ok = all(runner(witness_case, cases))
        checks.append({
            "name": "witness_rank_pairs",
            "pass": witness_ok,
            "detail": f"{len(cases)} pairs across ranks 0..{n}: exact ranks and zero products",
        })
    finally:
        if executor is not None:
            executor.shutdown()
    return _Report(
        params={"n": n, "mode": ns.mode, "trials": ns.trials, "seed": ns.seed, "symbolic_cap": ns.symbolic_cap},
        checks=checks,
        results=lambda: {"passed": sum(c["pass"] for c in checks), "failed": sum(not c["pass"] for c in checks)},
        csv_header=["check", "pass", "detail"],
        rows=lambda: [[c["name"], "pass" if c["pass"] else "fail", c["detail"]] for c in checks],
        latex=lambda: [
            f"% verification, n = {n}, mode = {ns.mode}",
            *_tabular("lr", [[c["name"].replace("_", " "), "pass" if c["pass"] else "fail"] for c in checks]),
        ],
    )


_DISPATCH = {
    "psi": _cmd_psi,
    "multidegree": _cmd_multidegree,
    "mldeg": _cmd_mldeg,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _validate(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        report = _DISPATCH[ns.command](ns)
        text = _RENDERERS[ns.format](ns.command, report)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"out of memory: {ns.command} needs more memory than this process may use", file=sys.stderr)
        return 4
    if text:
        print(text)
    return 0 if all(c["pass"] for c in report.checks) else 2


def run() -> None:
    sys.exit(main(sys.argv[1:]))
