"""Command line front end.

Subcommands: ``psi`` (value tables), ``multidegree`` (beta/gamma/sigma
coefficient lists plus the product identity check), ``mldeg`` (ML-degree
tables, interpolated polynomials, difference checks) and ``verify`` (the
symbolic/numeric certificate suite). Output formats are json, csv and latex;
JSON carries every integer as a decimal string since the values outgrow 64
bits quickly, and is shaped as {command, params, results, checks}. Each
command returns one report; one renderer per format appends its text to one
list of pieces (a JSON record or array of ints, a CSV line, a LaTeX line or
psi term), and ``main`` writes them with ``writelines`` once rendering has
finished. No whole-document string is built, so output memory stays near the
size of the output, and a run that fails while rendering prints nothing. A
list of same-shaped int records, such as psi's (i, j, value) pairs, travels
as one ``_Records`` value: JSON and CSV fill one %-template per record, so no
record becomes a dict or passes a per-cell check. A command imports only the
engine it runs, and only the JSON renderer loads a stdlib module (``json``'s
string quoting), so start-up loads no more than the run executes.

Identical invocations produce byte-identical stdout. Verification runs in one
thread; ``--threads`` is still accepted and validated, changes nothing, and
is therefore not echoed into the params block.

Exit codes: 0 success, 1 usage error, 2 verification failure (any failed
check, a nonzero graph residual included), 3 invariant violation (positivity,
polynomiality), 4 out of memory, 141 stdout closed by its reader (a pipe
cut short, as by ``head``; 128 + SIGPIPE, what a shell reports for a
producer killed by that signal), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .exact import InvariantViolation

if TYPE_CHECKING:
    from fractions import Fraction


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2 here
        raise UsageError(message)


class _Report(NamedTuple):
    """What one command computed, ready for any output format.

    ``params`` and ``checks`` are plain values; ``results``, ``rows`` and
    ``latex`` are built only by the renderer that prints them, and may be
    generators. ``latex`` gives the text as pieces, each line ending in a
    newline.
    """

    params: dict
    checks: list[dict]
    results: Callable[[], dict]
    csv_header: list[str]
    rows: Callable[[], Iterable[Sequence]]
    latex: Callable[[], Iterable[str]]


class _Records(NamedTuple):
    """Records of ints that share one key set, read once and possibly lazily.

    JSON writes them as an array of objects with these keys; CSV writes each
    record's ints as the cells after a row's leading cells.
    """

    keys: tuple[str, ...]
    rows: Iterable[tuple[int, ...]]


def build_parser() -> _Parser:
    parser = _Parser(prog="invdeg", description=__doc__.splitlines()[0])
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
        command_parser.add_argument("--format", default="json", choices=sorted(_RENDERERS))
    return parser


def _validate(ns: argparse.Namespace) -> None:
    """Reject a bad invocation and fill in ``window``.

    ``--threads`` must be a positive integer or ``auto``; its value is not
    used, since verification runs in one thread. Equal namespaces after
    this step give byte-identical output.
    """
    if ns.threads != "auto":
        try:
            if int(ns.threads) < 1:
                raise ValueError
        except ValueError:
            raise UsageError(f"--threads must be a positive integer or 'auto', got {ns.threads!r}")
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

def _to_json(value, out: list[str]) -> None:
    """Append ``json.dumps(value, indent=2)`` to ``out`` as pieces, with every
    int written as its decimal string and dict keys passed through str. Lists
    and tuples are arrays, and ``_Records`` an array of objects. A list or
    tuple whose values are all plain ints, and each record of a ``_Records``,
    is one piece."""
    from json.encoder import encode_basestring_ascii as quote

    def write(value, pad: str) -> None:
        if value is True or value is False:
            out.append("true" if value else "false")
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for k, v in value.items():
                out.append(sep + quote(str(k)) + ": ")
                write(v, inner)
                sep = ",\n" + inner
            out.append("\n" + pad + "}")
        elif isinstance(value, int):
            out.append('"' + str(value) + '"')
        elif isinstance(value, str):
            out.append(quote(value))
        elif type(value) is _Records:
            inner = pad + "  "
            fields = [f'{inner}  {quote(k).replace("%", "%%")}: "%d"' for k in value.keys]
            record = "{\n" + ",\n".join(fields) + "\n" + inner + "}" if fields else "{}"
            rows = iter(value.rows)
            first = next(rows, None)
            if first is None:
                out.append("[]")
                return
            out.append(f"[\n{inner}{record}" % first)
            out.extend(map(f",\n{inner}{record}".__mod__, rows))
            out.append("\n" + pad + "]")
        elif isinstance(value, (list, tuple)):
            inner = pad + "  "
            if value and all(type(v) is int for v in value):
                out.append(f'[\n{inner}"' + f'",\n{inner}"'.join(map(str, value)) + f'"\n{pad}]')
                return
            opening = sep = "[\n" + inner
            for v in value:
                out.append(sep)
                write(v, inner)
                sep = ",\n" + inner
            out.append("[]" if sep is opening else "\n" + pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(value)!r}")

    write(value, "")


def _render_json(command: str, report: _Report, out: list[str]) -> None:
    _to_json({
        "command": command,
        "params": {**report.params, "format": "json"},
        "results": report.results(),
        "checks": report.checks,
    }, out)
    out.append("\n")


def _csv_cell(cell) -> str:
    """One CSV field as ``csv.writer`` writes it with QUOTE_MINIMAL: None is
    empty, anything else its str, quoted when it holds a comma, a quote or a
    line break, with quotes doubled. A lone carriage return is quoted as
    Python 3.13's writer does; earlier writers leave it bare."""
    if cell is None:
        return ""
    text = str(cell)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _csv_line(fields: list[str]) -> str:
    """Written fields as one line; a line of one empty field is ``""``, so
    that it reads back as a field rather than a blank line."""
    line = ",".join(fields)
    return line + "\n" if line or not fields else '""\n'


def _render_csv(command: str, report: _Report, out: list[str]) -> None:
    """Header, then one line per row. A row that ends in a ``_Records`` is
    one line per record: the row's leading cells, then the record's ints."""
    out.append(_csv_line([_csv_cell(c) for c in report.csv_header]))
    for row in report.rows():
        if row and type(row[-1]) is _Records:
            head = [_csv_cell(c).replace("%", "%%") for c in row[:-1]]
            template = _csv_line(head + ["%d"] * len(row[-1].keys))
            out.extend(map(template.__mod__, row[-1].rows))
        else:
            out.append(_csv_line([_csv_cell(c) for c in row]))


def _render_latex(command: str, report: _Report, out: list[str]) -> None:
    out.extend(report.latex())


_RENDERERS = {"csv": _render_csv, "json": _render_json, "latex": _render_latex}


def _tabular(spec: str, rows: Iterable[Sequence]) -> list[str]:
    body = [" & ".join(map(str, row)) + " \\\\\n" for row in rows]
    return [f"\\begin{{tabular}}{{{spec}}}\n", *body, "\\end{tabular}\n"]


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
    from .psi import psi_table

    n = ns.n
    table = psi_table(n)

    def pairs() -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(table.pairs, 1):
            for j in range(i + 1, n + 1):
                yield i, j, row[j - 1]

    def latex() -> Iterator[str]:
        singles = ",\\quad ".join(f"\\psi_{{{i}}} = {v}" for i, v in enumerate(table.singles, 1))
        yield f"% psi values, n = {n}\n\\[ {singles} \\]\n"
        if n > 1:
            sep = "\\[ "
            for i, j, v in pairs():
                yield f"{sep}\\psi_{{{i},{j}}} = {v}"
                sep = ",\\quad "
            yield " \\]\n"

    return _Report(
        params={"n": n},
        checks=[],
        results=lambda: {"singles": table.singles, "pairs": _Records(("i", "j", "value"), pairs())},
        csv_header=["kind", "i", "j", "value"],
        rows=lambda: [
            *(("single", i, None, v) for i, v in enumerate(table.singles, 1)),
            ("pair", _Records(("i", "j", "value"), pairs())),
        ],
        latex=latex,
    )


def _cmd_multidegree(ns: argparse.Namespace) -> _Report:
    from .multidegree import multidegree_table

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
            f"% multidegrees, n = {n}, m = {tb.m}\n",
            *_tabular("rrr", table),
            f"\\[ (t_1 + t_2)\\, C_\\Gamma = {lhs} = t_1^{{{tb.m}}} + t_2^{{{tb.m}}} + C_\\Sigma \\]\n",
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
    from .mldegree import finite_difference_check, ml_polynomial, ml_table

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
                f"% ML-degrees, n <= {ns.n_max}\n",
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
                f"% ML-degree polynomial, d = {d}\n",
                f"\\[ \\varphi_{{{d}}}(n) = {_latex_poly_in_n(poly.coeffs)} \\]\n",
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
            f"% difference check, d = {d}, window = {report.window}\n",
            f"\\[ \\Delta^{{{d}}} \\varphi_{{{d}}}(n) = {verdict}, \\quad n = {report.start_n}, \\ldots \\]\n",
        ],
    )


def _cmd_verify(ns: argparse.Namespace) -> _Report:
    from .symbolic import (
        numeric_checks,
        spans_product_entries,
        swap_symmetry_holds,
        symbolic_checks,
        witness_family_valid,
    )

    n = ns.n
    # One P serves graph vanishing and the adjugate identity: X * adj(X)
    # symbolically, read entry by entry, and M * adj M per exact sample
    # numerically.
    if ns.mode == "symbolic":
        checked = symbolic_checks(n)
        vanish, holds = "identically under Y -> adj(X)", "symbolically"
    else:
        checked = numeric_checks(n, ns.trials, ns.seed)
        vanish = holds = f"on {ns.trials} exact samples"
    checks = [
        {
            "name": "graph_vanishing",
            "pass": checked.residual is None,
            "detail": checked.residual or f"{checked.generators} generators vanish {vanish}",
        },
        {"name": "adjugate_identity", "pass": checked.identity, "detail": f"X * adj(X) = det(X) * Id {holds}"},
    ]
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
    # One witness family per seed serves every rank 0..n; a family's stream
    # is named by a str, so it is never one of the int trial streams.
    families = 3
    checks.append({
        "name": "witness_rank_pairs",
        "pass": all(witness_family_valid(n, f"witness:{ns.seed}:{k}") for k in range(families)),
        "detail": f"{families * (n + 1)} pairs across ranks 0..{n}: exact ranks and zero products",
    })
    return _Report(
        params={"n": n, "mode": ns.mode, "trials": ns.trials, "seed": ns.seed, "symbolic_cap": ns.symbolic_cap},
        checks=checks,
        results=lambda: {"passed": sum(c["pass"] for c in checks), "failed": sum(not c["pass"] for c in checks)},
        csv_header=["check", "pass", "detail"],
        rows=lambda: [[c["name"], "pass" if c["pass"] else "fail", c["detail"]] for c in checks],
        latex=lambda: [
            f"% verification, n = {n}, mode = {ns.mode}\n",
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
    # The pieces are written only once rendering has finished, so a run that
    # fails while rendering prints nothing.
    out: list[str] = []
    try:
        report = _DISPATCH[ns.command](ns)
        _RENDERERS[ns.format](ns.command, report, out)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"out of memory: {ns.command} needs more memory than this process may use", file=sys.stderr)
        return 4
    try:
        sys.stdout.writelines(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the flush at
        # exit cannot raise again, and exit as a run killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0 if all(c["pass"] for c in report.checks) else 2


def run() -> None:
    sys.exit(main(sys.argv[1:]))
