"""Command line front end.

Subcommands: ``psi`` (value tables), ``multidegree`` (beta/gamma/sigma
coefficient lists plus the product identity check), ``mldeg`` (ML-degree
tables, interpolated polynomials, difference checks) and ``verify`` (the
symbolic/numeric certificate suite). Output formats are json, csv and latex;
JSON carries every integer as a decimal string since the values outgrow 64
bits quickly, and is shaped as {command, params, results, checks}.

Identical invocations produce byte-identical stdout. ``--threads`` only fans
independent verification trials over a thread pool; it never changes output,
and is therefore not echoed into the params block.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 invariant
violation (positivity, polynomiality, nonzero graph residual), 4 out of memory.
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
from typing import Optional

from .exact import InvariantViolation
from .mldegree import finite_difference_check, ml_polynomial, ml_table, smallest_valid_n
from .multidegree import multidegree_table
from .psi import psi_table
from .symbolic import (
    adjugate_identity_holds,
    adjugate_identity_numeric,
    spans_product_entries,
    swap_symmetry_holds,
    verify_graph_vanishing,
    witness_pair_valid,
)

LARGE_N_WARNING = 22


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2 here
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated invocation; equal configs give byte-identical output."""

    command: str
    fmt: str = "json"
    threads: str = "1"
    n: Optional[int] = None
    n_max: Optional[int] = None
    d: Optional[int] = None
    poly: bool = False
    window: Optional[int] = None
    mode: str = "symbolic"
    trials: int = 100
    seed: int = 0
    symbolic_cap: int = 4

    def resolved_threads(self) -> int:
        if self.threads == "auto":
            return os.cpu_count() or 1
        return int(self.threads)


def build_parser() -> _Parser:
    parser = _Parser(prog="invdeg", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", default="1", help="worker threads for verification fan-out (N or auto)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="psi value tables")
    p_psi.add_argument("--n", type=int, required=True)
    p_psi.add_argument("--format", default="json", choices=("csv", "json", "latex"))

    p_multi = sub.add_parser("multidegree", help="multidegree coefficient lists")
    p_multi.add_argument("--n", type=int, required=True)
    p_multi.add_argument("--format", default="json", choices=("csv", "json", "latex"))

    p_ml = sub.add_parser("mldeg", help="ML-degree tables and polynomials")
    which = p_ml.add_mutually_exclusive_group(required=True)
    which.add_argument("--n-max", type=int)
    which.add_argument("--d", type=int)
    p_ml.add_argument("--poly", action="store_true", help="interpolate the polynomial in n for fixed d")
    p_ml.add_argument("--window", type=int, help="sample count for the difference check (default d + 10)")
    p_ml.add_argument("--format", default="json", choices=("csv", "json", "latex"))

    p_ver = sub.add_parser("verify", help="run the certificate suite")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--mode", default="symbolic", choices=("symbolic", "numeric"))
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--symbolic-cap", type=int, default=4)
    p_ver.add_argument("--format", default="json", choices=("csv", "json", "latex"))
    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    threads = str(ns.threads)
    if threads != "auto":
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            raise UsageError(f"--threads must be a positive integer or 'auto', got {threads!r}")
    if ns.command in ("psi", "multidegree", "verify") and ns.n < 1:
        raise UsageError(f"--n must be >= 1, got {ns.n}")
    if ns.command == "psi" or ns.command == "multidegree":
        return RunConfig(command=ns.command, fmt=ns.format, threads=threads, n=ns.n)
    if ns.command == "mldeg":
        if ns.n_max is not None:
            if ns.n_max < 1:
                raise UsageError(f"--n-max must be >= 1, got {ns.n_max}")
            if ns.poly or ns.window is not None:
                raise UsageError("--poly/--window require --d")
            return RunConfig(command="mldeg", fmt=ns.format, threads=threads, n_max=ns.n_max)
        if ns.d < 1:
            raise UsageError(f"--d must be >= 1, got {ns.d}")
        window = ns.window if ns.window is not None else ns.d + 10
        if window < ns.d + 1:
            raise UsageError(f"--window must be >= d + 1, got {window}")
        return RunConfig(command="mldeg", fmt=ns.format, threads=threads, d=ns.d, poly=ns.poly, window=window)
    if ns.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {ns.trials}")
    if ns.symbolic_cap < 1:
        raise UsageError(f"--symbolic-cap must be >= 1, got {ns.symbolic_cap}")
    if ns.mode == "symbolic" and ns.n > ns.symbolic_cap:
        raise UsageError(
            f"symbolic mode is capped at n <= {ns.symbolic_cap}; use --mode numeric or raise --symbolic-cap"
        )
    return RunConfig(
        command="verify",
        fmt=ns.format,
        threads=threads,
        n=ns.n,
        mode=ns.mode,
        trials=ns.trials,
        seed=ns.seed,
        symbolic_cap=ns.symbolic_cap,
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


def _render_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2)


def _render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else str(v) for v in row])
    return buf.getvalue().rstrip("\n")


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

def _cmd_psi(config: RunConfig) -> tuple[int, str]:
    n = config.n
    table = psi_table(n)
    pairs = [(i, j, table.pair(i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if config.fmt == "json":
        payload = {
            "command": "psi",
            "params": {"n": n, "format": config.fmt},
            "results": {
                "singles": list(table.singles),
                "pairs": [{"i": i, "j": j, "value": v} for i, j, v in pairs],
            },
            "checks": [],
        }
        return 0, _render_json(payload)
    if config.fmt == "csv":
        rows = [["single", i, None, table.singles[i - 1]] for i in range(1, n + 1)]
        rows += [["pair", i, j, v] for i, j, v in pairs]
        return 0, _render_csv(["kind", "i", "j", "value"], rows)
    singles = ",\\quad ".join(f"\\psi_{{{i}}} = {table.singles[i - 1]}" for i in range(1, n + 1))
    lines = [f"% psi values, n = {n}", f"\\[ {singles} \\]"]
    if pairs:
        body = ",\\quad ".join(f"\\psi_{{{i},{j}}} = {v}" for i, j, v in pairs)
        lines.append(f"\\[ {body} \\]")
    return 0, "\n".join(lines)


def _cmd_multidegree(config: RunConfig) -> tuple[int, str]:
    n = config.n
    if n > LARGE_N_WARNING:
        print(f"warning: n = {n} needs ~2^{n + 1} cached bigints; expect minutes and real memory", file=sys.stderr)
    tb = multidegree_table(n)
    identity = tb.identity
    detail = f"{len(identity.coefficients)} coefficients of (t1+t2)*C_Gamma match t1^m + t2^m + C_Sigma"
    if config.fmt == "json":
        payload = {
            "command": "multidegree",
            "params": {"n": n, "format": config.fmt},
            "results": {
                "m": tb.m,
                "beta": list(tb.beta),
                "gamma": list(tb.gamma_degs),
                "sigma": list(tb.sigma_coeffs),
            },
            "checks": [{"name": "multidegree_identity", "pass": identity.ok, "detail": detail}],
        }
        return 0 if identity.ok else 2, _render_json(payload)
    if config.fmt == "csv":
        rows = [["beta", d, v] for d, v in enumerate(tb.beta)]
        rows += [["gamma", d, v] for d, v in enumerate(tb.gamma_degs)]
        rows += [["sigma", d + 1, v] for d, v in enumerate(tb.sigma_coeffs)]
        rows.append(["identity", None, "pass" if identity.ok else "fail"])
        return 0 if identity.ok else 2, _render_csv(["quantity", "d", "value"], rows)
    lhs = [c.lhs for c in identity.coefficients]
    lines = [
        f"% multidegrees, n = {n}, m = {tb.m}",
        "\\begin{tabular}{rrr}",
        "d & \\beta & \\gamma \\\\",
    ]
    for d in range(tb.m + 1):
        gamma = str(tb.gamma_degs[d]) if d < tb.m else ""
        lines.append(f"{d} & {tb.beta[d]} & {gamma} \\\\")
    lines.append("\\end{tabular}")
    lines.append(f"\\[ (t_1 + t_2)\\, C_\\Gamma = {_latex_bipoly(lhs, tb.m)} = t_1^{{{tb.m}}} + t_2^{{{tb.m}}} + C_\\Sigma \\]")
    return 0 if identity.ok else 2, "\n".join(lines)


def _cmd_mldeg(config: RunConfig) -> tuple[int, str]:
    if config.n_max is not None and config.n_max > LARGE_N_WARNING:
        print(f"warning: n up to {config.n_max} needs ~2^{config.n_max + 1} cached bigints; expect minutes and real memory", file=sys.stderr)
    if config.d is not None:
        top = smallest_valid_n(config.d) + (config.d + 2 if config.poly else config.window - 1)
        if top > LARGE_N_WARNING:
            print(f"warning: d = {config.d} samples the table up to n = {top}; expect minutes and real memory", file=sys.stderr)
    if config.n_max is not None:
        rows = ml_table(config.n_max)
        if config.fmt == "json":
            payload = {
                "command": "mldeg",
                "params": {"n_max": config.n_max, "format": config.fmt},
                "results": {"rows": [{"n": i + 1, "values": list(r)} for i, r in enumerate(rows)]},
                "checks": [],
            }
            return 0, _render_json(payload)
        flat = [[i + 1, d + 1, v] for i, r in enumerate(rows) for d, v in enumerate(r)]
        if config.fmt == "csv":
            return 0, _render_csv(["n", "d", "value"], flat)
        lines = [f"% ML-degrees, n <= {config.n_max}", "\\begin{tabular}{rrr}", "n & d & \\varphi(n, d) \\\\"]
        lines += [f"{n} & {d} & {v} \\\\" for n, d, v in flat]
        lines.append("\\end{tabular}")
        return 0, "\n".join(lines)
    d = config.d
    if config.poly:
        poly = ml_polynomial(d)
        check = {
            "name": "polynomiality_validation",
            "pass": True,
            "detail": f"interpolant reproduces the table at n = {', '.join(map(str, poly.validated_at))}",
        }
        if config.fmt == "json":
            payload = {
                "command": "mldeg",
                "params": {"d": d, "poly": True, "format": config.fmt},
                "results": {
                    "degree": poly.degree,
                    "coefficients": [str(c) for c in poly.coeffs],
                    "sample_start": poly.sample_start,
                    "validated_at": list(poly.validated_at),
                },
                "checks": [check],
            }
            return 0, _render_json(payload)
        if config.fmt == "csv":
            rows = [["coefficient", k, str(c)] for k, c in enumerate(poly.coeffs)]
            rows.append(["sample_start", None, poly.sample_start])
            rows += [["validated", n, "pass"] for n in poly.validated_at]
            return 0, _render_csv(["field", "key", "value"], rows)
        return 0, f"% ML-degree polynomial, d = {d}\n\\[ \\varphi_{{{d}}}(n) = {_latex_poly_in_n(poly.coeffs)} \\]"
    report = finite_difference_check(d, config.window)
    check = {
        "name": "difference_vanishing",
        "pass": report.ok,
        "detail": f"{len(report.differences)} forward differences of order {d} from n = {report.start_n}",
    }
    code = 0 if report.ok else 2
    if config.fmt == "json":
        payload = {
            "command": "mldeg",
            "params": {"d": d, "window": report.window, "format": config.fmt},
            "results": {"start_n": report.start_n, "differences": list(report.differences)},
            "checks": [check],
        }
        return code, _render_json(payload)
    if config.fmt == "csv":
        rows = [["difference", k, v] for k, v in enumerate(report.differences)]
        rows.append(["vanish", None, "pass" if report.ok else "fail"])
        return code, _render_csv(["field", "key", "value"], rows)
    verdict = "0" if report.ok else "\\text{nonzero}"
    return code, (
        f"% difference check, d = {d}, window = {report.window}\n"
        f"\\[ \\Delta^{{{d}}} \\varphi_{{{d}}}(n) = {verdict}, \\quad n = {report.start_n}, \\ldots \\]"
    )


def _cmd_verify(config: RunConfig) -> tuple[int, str]:
    n = config.n
    threads = config.resolved_threads()
    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    checks = []
    try:
        try:
            report = verify_graph_vanishing(
                n, mode=config.mode, trials=config.trials, seed=config.seed,
                symbolic_cap=config.symbolic_cap, executor=executor,
            )
            if report.mode == "symbolic":
                detail = f"{report.generators} generators vanish identically under Y -> adj(X)"
            else:
                detail = f"{report.generators} generators vanish on {report.trials} exact samples"
            checks.append({"name": "graph_vanishing", "pass": True, "detail": detail})
        except InvariantViolation as exc:
            checks.append({"name": "graph_vanishing", "pass": False, "detail": str(exc)})
        if config.mode == "symbolic":
            ok = adjugate_identity_holds(n)
            detail = "X * adj(X) = det(X) * Id symbolically"
        else:
            ok = adjugate_identity_numeric(n, config.trials, config.seed, executor=executor)
            detail = f"X * adj(X) = det(X) * Id on {config.trials} exact samples"
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
            return witness_pair_valid(n, r, config.seed * 1_000_003 + 101 * r + k)

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
    all_ok = all(c["pass"] for c in checks)
    code = 0 if all_ok else 2
    if config.fmt == "json":
        payload = {
            "command": "verify",
            "params": {
                "n": n,
                "mode": config.mode,
                "trials": config.trials,
                "seed": config.seed,
                "symbolic_cap": config.symbolic_cap,
                "format": config.fmt,
            },
            "results": {"passed": sum(c["pass"] for c in checks), "failed": sum(not c["pass"] for c in checks)},
            "checks": checks,
        }
        return code, _render_json(payload)
    if config.fmt == "csv":
        rows = [[c["name"], "pass" if c["pass"] else "fail", c["detail"]] for c in checks]
        return code, _render_csv(["check", "pass", "detail"], rows)
    lines = [f"% verification, n = {n}, mode = {config.mode}", "\\begin{tabular}{lr}"]
    lines += [f"{c['name'].replace('_', ' ')} & {'pass' if c['pass'] else 'fail'} \\\\" for c in checks]
    lines.append("\\end{tabular}")
    return code, "\n".join(lines)


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
        config = _config_from(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code, text = _DISPATCH[config.command](config)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"out of memory: {config.command} needs more memory than this process may use", file=sys.stderr)
        return 4
    if text:
        print(text)
    return code


def run() -> None:
    sys.exit(main(sys.argv[1:]))
