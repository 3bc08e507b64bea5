"""A command line takes one of two routes: ``cli._match`` reads a plain
line without argparse, and ``cli.build_parser`` builds argparse from the
same grammar table for every other line. Both are checked against the parser
written out by hand in ``oracles.build_parser``."""

import contextlib
import importlib.util
import io
import re
import shlex
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import oracles
from invdeg import cli

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = ("psi", "multidegree", "mldeg", "verify")
FLAGS = ("--n", "--n-max", "--d", "--poly", "--window", "--mode", "--trials", "--seed", "--symbolic-cap", "--format")
VALUES = ("1", "3", "12", "0", "-2", "-h", "", "x", "2.5", " 4", "json", "csv", "xml", "symbolic", "numeric", "auto", "psi")
# values each command's options take on a line the matcher accepts; "0" and
# a window below d + 1 pass the parse and fail only in cli._validate
PLAIN = {
    "psi": {"--n": ("1", "3", "0"), "--format": ("json", "csv", "latex")},
    "multidegree": {"--n": ("2", "5"), "--format": ("json", "latex")},
    "mldeg": {"--n-max": ("4",), "--d": ("3", "0"), "--poly": (), "--window": ("6", "2"), "--format": ("csv",)},
    "verify": {
        "--n": ("3", "10"),
        "--mode": ("symbolic", "numeric"),
        "--trials": ("5", "100"),
        "--seed": ("0", "7"),
        "--symbolic-cap": ("4", "9"),
        "--format": ("latex", "json"),
    },
}
REQUIRED = {"psi": ("--n",), "multidegree": ("--n",), "mldeg": ("--n-max", "--d"), "verify": ("--n",)}
THREADS = ([], ["--threads", "2"], ["--threads", "auto"], ["--threads", "0"], ["--threads", "x"], ["--threads", ""])


def outcome(parser, argv):
    """What parsing argv gives: the namespace's attributes, the usage error's
    message or the exit code, and whatever it printed."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            result = "namespace", vars(parser.parse_args(argv))
    except cli.UsageError as exc:
        result = "usage error", str(exc)
    except SystemExit as exc:
        result = "exit", exc.code
    return result, printed.getvalue()


@st.composite
def plain_lines(draw):
    """A line the matcher accepts, but for a required option left out now
    and then."""
    command = draw(st.sampled_from(COMMANDS))
    flags = [flag for flag in PLAIN[command] if flag not in REQUIRED[command] and draw(st.booleans())]
    if draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(REQUIRED[command])))
    line = [*draw(st.sampled_from(THREADS)), command]
    for flag in draw(st.permutations(flags)):
        line += [flag, draw(st.sampled_from(PLAIN[command][flag]))] if PLAIN[command][flag] else [flag]
    return line


@st.composite
def option_tokens(draw):
    """One option, spelled in full, abbreviated, as --opt=value or without
    its value, with any value."""
    flag = draw(st.sampled_from(FLAGS + ("--threads", "-h", "--help", "--bogus")))
    value = draw(st.sampled_from(VALUES))
    form = draw(st.sampled_from(("full", "full", "abbreviated", "joined", "bare")))
    if form == "abbreviated":
        flag = flag[: draw(st.integers(min(3, len(flag)), len(flag)))]
    return {"full": [flag, value], "abbreviated": [flag, value], "joined": [f"{flag}={value}"], "bare": [flag]}[form]


@st.composite
def any_lines(draw):
    """A plain line with options added, or a line of any options, before or
    after any command or none."""
    line = draw(plain_lines()) if draw(st.booleans()) else [*draw(st.sampled_from(THREADS + (["bogus"],)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        line[at:at] = draw(option_tokens())
    return line


CORPUS = st.one_of(plain_lines(), any_lines())


def test_table_built_help_matches_the_oracle():
    # help prints format_help() of the top level or of one command
    for argv in (["-h"], *([command, "--help"] for command in COMMANDS)):
        got, want = outcome(cli.build_parser(), argv), outcome(oracles.build_parser(), argv)
        assert got == want and want[0] == ("exit", 0) and want[1].startswith("usage: invdeg"), argv


@settings(max_examples=400, deadline=None)
@given(CORPUS)
@example(["mldeg", "--n", "3"])  # an abbreviation of --n-max
@example(["psi", "--n=3"])
@example(["psi", "--n", "3", "--n", "4"])
@example(["psi", "--n", "-3"])
@example(["psi", "--n", " -3"])
@example(["--threads", "psi", "psi", "--n", "1"])
@example(["psi", "--n", "1", "--threads", "2"])
@example(["mldeg", "--d", "3", "--poly", "--window", "5"])
@example(["mldeg", "--n-max", "3", "--d", "3"])
@example(["verify", "--n", "3", "--mode", "numer"])
@example(["verify", "--n", "3", "--trials"])
@example(["--threads"])
@example([])
def test_table_built_parser_matches_the_oracle(argv):
    assert outcome(cli.build_parser(), argv) == outcome(oracles.build_parser(), argv)


@settings(max_examples=400, deadline=None)
@given(CORPUS)
@example(["--threads", "-h", "psi", "--n", "1"])
@example(["--threads", "", "verify", "--n", "3", "--mode", "numeric", "--symbolic-cap", "2"])
@example(["mldeg", "--window", "12", "--d", "3", "--format", "latex"])
def test_matcher_declines_or_agrees_with_the_oracle(argv):
    got = cli._match(argv)
    if got is not None:
        assert outcome(oracles.build_parser(), argv) == (("namespace", vars(got)), "")


def _workload_lines(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    yield list(workloads.SETUP.args)
    for build in workloads.WORKLOADS.values():
        yield from (list(command.args) for command in build(3))


def _ci_lines():
    """Every invdeg command line the CI steps run from the shell, with one
    value for each loop variable; a shell function's own line, which passes
    on its arguments, is skipped."""
    loop = {"$threads": "auto", "$seed": "7", "$fmt": "latex"}
    for line in (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines():
        if line.strip().startswith("refuse '"):
            yield shlex.split(line)[2:]
        elif "-m invdeg " in line and not re.search(r"\$\{?@", line):
            args = re.split(r" [12]?>|\|", line.split("-m invdeg ", 1)[1])[0]
            yield [loop.get(token, token) for token in shlex.split(args)]


def _readme_lines():
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        yield from (shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("invdeg "))


def test_routine_command_lines_take_the_fast_path(monkeypatch):
    lines = [*_workload_lines(monkeypatch), *_ci_lines(), *_readme_lines()]
    assert len(lines) > 40
    for argv in lines:
        ns = cli._match(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(oracles.build_parser().parse_args(argv)), argv

