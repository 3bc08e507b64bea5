import csv
import importlib.metadata as md
import inspect
import io
import json
import os
import random
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import invdeg
import invdeg.cli as cli
import invdeg.mldegree as mldegree
import invdeg.multidegree as multidegree
import invdeg.psi as psi
import invdeg.symbolic as symbolic
from invdeg.cli import main
from invdeg.multidegree import gamma_prefix, multidegree_table

try:
    import tomllib
except ModuleNotFoundError:
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_csv_golden(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--n", "3", "--format", "csv"])
    assert code == 0
    assert out == (
        "kind,i,j,value\n"
        "single,1,,1\n"
        "single,2,,2\n"
        "single,3,,4\n"
        "pair,1,2,1\n"
        "pair,1,3,3\n"
        "pair,2,3,3\n"
    )


def test_psi_json_shape_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "psi"
    assert payload["params"] == {"n": "3", "format": "json"}
    assert payload["results"]["singles"] == ["1", "2", "4"]
    assert payload["results"]["pairs"][1] == {"i": "1", "j": "3", "value": "3"}
    assert json.dumps(payload, indent=2) == out.rstrip("\n")


def test_psi_latex(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--n", "2", "--format", "latex"])
    assert code == 0
    assert "\\psi_{2} = 2" in out
    assert "\\psi_{1,2} = 1" in out


def test_usage_errors_exit_1(capsys):
    # invdeg's own messages are pinned line for line; argparse's wording
    # varies between Python versions, so its messages (None) are not.
    for args, message in (
        (["psi", "--n", "0"], "--n must be >= 1, got 0"),
        (["multidegree", "--n", "-2"], "--n must be >= 1, got -2"),
        (["verify", "--n", "0", "--mode", "numeric"], "--n must be >= 1, got 0"),
        (["bogus"], None),
        (["psi"], None),
        (["psi", "--n", "3", "--format", "xml"], None),
        (["mldeg", "--n-max", "0"], "--n-max must be >= 1, got 0"),
        (["mldeg", "--n-max", "3", "--poly"], "--poly/--window require --d"),
        (["mldeg", "--n-max", "3", "--window", "5"], "--poly/--window require --d"),
        (["mldeg", "--d", "0"], "--d must be >= 1, got 0"),
        (["mldeg", "--d", "3", "--window", "2"], "--window must be >= d + 1, got 2"),
        (["mldeg", "--d", "3", "--poly", "--window", "100"], None),  # one or the other
        (["mldeg", "--d", "3", "--window", "2", "--poly"], None),
        (["verify", "--n", "3", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["verify", "--n", "3", "--symbolic-cap", "0"], "--symbolic-cap must be >= 1, got 0"),
        (
            ["verify", "--n", "9", "--mode", "symbolic"],
            "symbolic mode is capped at n <= 4; use --mode numeric or raise --symbolic-cap",
        ),
        (["--threads", "0", "psi", "--n", "3"], "--threads must be a positive integer or 'auto', got '0'"),
        (["--threads", "x", "psi", "--n", "3"], "--threads must be a positive integer or 'auto', got 'x'"),
    ):
        code, out, err = run_cli(capsys, args)
        assert code == 1, args
        assert out == ""
        if message is None:
            assert "usage error" in err or "usage" in err
        else:
            assert err == f"usage error: {message}\n", args


def test_multidegree_json_golden(capsys):
    code, out, _ = run_cli(capsys, ["multidegree", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["m"] == "6"
    assert payload["results"]["beta"] == ["1", "3", "6", "8", "6", "3", "1"]
    assert payload["results"]["gamma"] == ["1", "2", "4", "4", "2", "1"]
    assert payload["results"]["sigma"] == ["3", "6", "8", "6", "3"]
    checks = payload["checks"]
    assert checks[0]["name"] == "multidegree_identity" and checks[0]["pass"] is True


def test_multidegree_csv(capsys):
    code, out, _ = run_cli(capsys, ["multidegree", "--n", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,d,value"
    assert "beta,1,2" in lines
    assert "gamma,2,1" in lines
    assert "sigma,1,2" in lines
    assert lines[-1] == "identity,,pass"


def test_multidegree_latex_identity_polynomial(capsys):
    code, out, _ = run_cli(capsys, ["multidegree", "--n", "2", "--format", "latex"])
    assert code == 0
    assert "t_1^{3} + 2 t_1^{2} t_2 + 2 t_1 t_2^{2} + t_2^{3}" in out


def test_multidegree_large_n_is_silent(capsys, monkeypatch):
    monkeypatch.setattr(multidegree, "multidegree_table", lambda n: multidegree_table(2))
    code, out, err = run_cli(capsys, ["multidegree", "--n", "23"])
    assert code == 0
    assert err == ""


def test_multidegree_n24_matches_the_light_slice(capsys):
    code, out, err = run_cli(capsys, ["multidegree", "--n", "24", "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["checks"][0]["name"] == "multidegree_identity"
    assert payload["checks"][0]["pass"] is True
    gamma = [int(v) for v in payload["results"]["gamma"]]
    assert len(gamma) == 24 * 25 // 2
    assert tuple(gamma[:8]) == gamma_prefix(24, 8)


def test_mldeg_stderr_is_empty(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["mldeg", "--d", "20", "--poly", "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["results"]["validated_at"] == ["26", "27", "28"]
    assert payload["checks"][0]["pass"] is True
    ml_table = mldegree.ml_table
    monkeypatch.setattr(mldegree, "ml_table", lambda n_max: ml_table(2))
    code, out, err = run_cli(capsys, ["mldeg", "--n-max", "23"])
    assert code == 0
    assert err == ""


def test_mldeg_table(capsys):
    code, out, _ = run_cli(capsys, ["mldeg", "--n-max", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,value"
    assert "1,1,1" in lines
    assert "3,3,4" in lines
    code, out, _ = run_cli(capsys, ["mldeg", "--n-max", "2"])
    payload = json.loads(out)
    assert payload["results"]["rows"] == [
        {"n": "1", "values": ["1"]},
        {"n": "2", "values": ["1", "1", "1"]},
    ]


def test_mldeg_poly(capsys):
    code, out, _ = run_cli(capsys, ["mldeg", "--d", "2", "--poly"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["coefficients"] == ["-1", "1"]
    assert payload["checks"][0]["pass"] is True
    code, out, _ = run_cli(capsys, ["mldeg", "--d", "2", "--poly", "--format", "latex"])
    assert "\\varphi_{2}(n) = n - 1" in out


def test_mldeg_differences(capsys):
    code, out, _ = run_cli(capsys, ["mldeg", "--d", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["window"] == "13"
    assert all(v == "0" for v in payload["results"]["differences"])
    assert payload["checks"][0]["name"] == "difference_vanishing"
    code, out, _ = run_cli(capsys, ["mldeg", "--d", "2", "--window", "5", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[-1] == "vanish,,pass"


def test_mldeg_invariant_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(mldegree, "_ml_degrees", lambda d, ns: [2 ** n for n in ns])
    code, out, err = run_cli(capsys, ["mldeg", "--d", "3", "--poly"])
    assert code == 3
    assert out == ""
    assert "invariant violation" in err and "polynomiality violated" in err


def test_multidegree_digit_read_one_place_off_exits_3(capsys, monkeypatch):
    # the swap keeps the digit sum, so only palindromy tells it apart
    digits = multidegree._digits

    def one_place_off(*args):
        out = digits(*args)
        out[1], out[2] = out[2], out[1]
        return out

    monkeypatch.setattr(multidegree, "_digits", one_place_off)
    code, out, err = run_cli(capsys, ["multidegree", "--n", "6"])
    assert code == 3
    assert out == ""
    assert "invariant violation" in err and "n = 6 are not palindromic" in err


def test_out_of_memory_exits_4(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(multidegree, "multidegree_table", exhausted)
    code, out, err = run_cli(capsys, ["multidegree", "--n", "3"])
    assert code == 4
    assert out == ""
    assert err == "out of memory: multidegree needs more memory than this process may use\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_out_of_memory_while_rendering_exits_4_with_empty_stdout(capsys, monkeypatch, fmt):
    table = psi.psi_table(4)
    read = []

    def rows_then_exhausted():
        read.append(table.pairs[0])
        yield table.pairs[0]
        raise MemoryError

    monkeypatch.setattr(psi, "psi_table", lambda n: table._replace(pairs=rows_then_exhausted()))
    code, out, err = run_cli(capsys, ["psi", "--n", "4", "--format", fmt])
    assert read, "the renderer stopped before reaching the failing row"
    assert (code, out) == (4, "")
    assert err == "out of memory: psi needs more memory than this process may use\n"


def test_verify_symbolic(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "graph_vanishing",
        "adjugate_identity",
        "swap_symmetry",
        "product_span",
        "witness_rank_pairs",
    ]
    assert all(c["pass"] for c in payload["checks"])
    assert payload["results"] == {"passed": "5", "failed": "0"}


def test_verify_numeric(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--n", "5", "--mode", "numeric", "--trials", "5", "--seed", "42"])
    assert code == 0
    payload = json.loads(out)
    assert all(c["pass"] for c in payload["checks"])
    assert payload["params"]["mode"] == "numeric"
    assert payload["params"]["trials"] == "5"


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(symbolic, "swap_symmetry_holds", lambda n: False)
    code, out, _ = run_cli(capsys, ["verify", "--n", "2"])
    assert code == 2
    payload = json.loads(out)
    swap = next(c for c in payload["checks"] if c["name"] == "swap_symmetry")
    assert swap["pass"] is False
    assert payload["results"]["failed"] == "1"


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_verify_graph_residual_exits_2(capsys, monkeypatch, mode):
    # A generator that does not vanish on the graph is a failed check, not an
    # invariant violation: every check still reports and the exit code is 2.
    # The one generator faked here is the (1,1) entry, which P holds as det.
    monkeypatch.setattr(symbolic, "_at_generator_places", lambda e: [e[0][0]])
    code, out, err = run_cli(capsys, ["verify", "--n", "2", "--mode", mode, "--trials", "3"])
    assert code == 2
    assert err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [
        "graph_vanishing",
        "adjugate_identity",
        "swap_symmetry",
        "product_span",
        "witness_rank_pairs",
    ]
    assert checks[0]["pass"] is False
    assert "does not vanish" in checks[0]["detail"] and "X[1,1]" in checks[0]["detail"]


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_verify_shifted_generator_place_fails_graph_vanishing_alone(capsys, monkeypatch, mode):
    # The (1,1) entry in place of the (1,2) one: P is det there, not 0, and
    # P = det * Id still holds, so only graph vanishing fails.
    places = symbolic._at_generator_places
    monkeypatch.setattr(symbolic, "_at_generator_places", lambda e: [e[0][0], *places(e)[1:]])
    code, out, err = run_cli(capsys, ["verify", "--n", "3", "--mode", mode, "--trials", "3"])
    assert (code, err) == (2, "")
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert (checks["graph_vanishing"], checks["adjugate_identity"]) == (False, True)


def _verify_with_adjugate(capsys, monkeypatch, change):
    draw = symbolic._invertible_symmetric

    def changed(rng, n):
        m, det, adj = draw(rng, n)
        return m, det, change(adj)

    monkeypatch.setattr(symbolic, "_invertible_symmetric", changed)
    # a failing run prints the same verdicts and first residual at any --threads
    args = ["verify", "--n", "3", "--mode", "numeric", "--trials", "4"]
    runs = [run_cli(capsys, ["--threads", t] + args) for t in ("1", "2")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (2, "")
    return changed, {c["name"]: (c["pass"], c["detail"]) for c in json.loads(out)["checks"]}


@pytest.mark.parametrize("cells", [[(0, 0)], [(0, 1)], [(1, 0)], [(2, 2)], [(0, 2), (2, 0)]])
def test_verify_numeric_fails_both_checks_on_a_wrong_adjugate(capsys, monkeypatch, cells, pair_assignment):
    def off_by_one(adj):
        for i, j in cells:
            adj[i][j] += 1
        return adj

    changed, checks = _verify_with_adjugate(capsys, monkeypatch, off_by_one)
    assert {name: ok for name, (ok, _) in checks.items()} == {
        "graph_vanishing": False,
        "adjugate_identity": False,
        "swap_symmetry": True,
        "product_span": True,
        "witness_rank_pairs": True,
    }
    if len(cells) == 2 or cells[0][0] == cells[0][1]:
        # adj stays symmetric: the first residual is the one that evaluating
        # each generator at (M, adj) finds
        gens = symbolic.graph_ideal_generators(3)
        residuals = (
            f"trial {t}: generator {g} evaluates to nonzero"
            for t in range(4)
            for m, _, adj in [changed(random.Random(t), 3)]
            for g in gens
            if g.evaluate(pair_assignment(m, adj))
        )
        assert checks["graph_vanishing"][1] == "graph generator does not vanish on inverse pairs: " + next(residuals)


def test_verify_numeric_scaled_adjugate_fails_the_identity_alone(capsys, monkeypatch):
    # M * (2 adj M) = 2 det M * Id: every generator vanishes, the identity does not hold
    _, checks = _verify_with_adjugate(capsys, monkeypatch, lambda adj: [[2 * x for x in row] for row in adj])
    assert checks["graph_vanishing"][0] is True
    assert checks["adjugate_identity"][0] is False


def test_verify_csv_and_latex(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "check,pass,detail"
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--format", "latex"])
    assert code == 0
    assert "\\begin{tabular}" in out


def test_output_is_deterministic(capsys):
    args = ["verify", "--n", "4", "--mode", "numeric", "--trials", "6", "--seed", "3"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    assert first == second


def test_output_identical_across_thread_counts(capsys):
    # --threads is validated and ignored: every accepted value prints the same bytes
    base = ["verify", "--n", "4", "--mode", "numeric", "--trials", "8", "--seed", "7"]
    outputs = [run_cli(capsys, ["--threads", t] + base) for t in ("1", "2", "4", "1000000", "auto")]
    assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 4


def declared_script():
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return toml.load(fh)["project"]["scripts"]["invdeg"]


def is_installed():
    try:
        md.distribution("invdeg")
    except md.PackageNotFoundError:
        return False
    return True


needs_source_tree = pytest.mark.skipif(
    not PYPROJECT.is_file(), reason="pyproject.toml not found next to the tests"
)


@needs_source_tree
def test_entry_point_exists(capsys, monkeypatch):
    ep = md.EntryPoint(name="invdeg", value=declared_script(), group="console_scripts")
    script = ep.load()
    assert script is cli.run
    monkeypatch.setattr(sys, "argv", ["invdeg", "psi", "--n", "2", "--format", "csv"])
    with pytest.raises(SystemExit) as exc:
        script()
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == "kind,i,j,value"


@needs_source_tree
@pytest.mark.skipif(not is_installed(), reason="invdeg distribution is not installed")
def test_installed_entry_point_matches_pyproject():
    eps = md.distribution("invdeg").entry_points.select(group="console_scripts", name="invdeg")
    assert [ep.value for ep in eps] == [declared_script()]
    assert md.version("invdeg") == invdeg.__version__


def _fresh_python(*args):
    """Run a new interpreter that imports invdeg from this source tree.

    Import footprints are checked in a subprocess: pytest itself imports
    dataclasses and inspect."""
    src = str(Path(invdeg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _modules_loaded_by(*args):
    """Exit code of ``python -m invdeg ARGS`` and every module it imported."""
    proc = _fresh_python("-X", "importtime", "-m", "invdeg", *args)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


def test_cli_import_leaves_the_thread_pool_unloaded():
    # verification runs in one thread whatever --threads says, so no run
    # pays for a pool; threading is left out, since --threads 1 loads it too
    code, loaded = _modules_loaded_by("--threads", "2", "verify", "--mode", "numeric", "--n", "4", "--trials", "4")
    assert code == 0 and "invdeg.symbolic" in loaded
    assert loaded & {"concurrent.futures", "logging", "queue"} == set()


def test_psi_run_loads_only_the_psi_engine():
    code, loaded = _modules_loaded_by("psi", "--n", "1")
    assert code == 0 and "invdeg.psi" in loaded
    unwanted = {"dataclasses", "inspect", "invdeg.poly", "invdeg.symbolic", "invdeg.mldegree", "invdeg.multidegree"}
    assert loaded & unwanted == set()


@pytest.mark.parametrize("args", [
    ("psi", "--n", "1"),
    ("multidegree", "--n", "3"),
    ("mldeg", "--n-max", "4"),
    ("mldeg", "--d", "3", "--window", "6"),
    ("verify", "--n", "3", "--mode", "numeric", "--trials", "2"),
    ("verify", "--n", "3"),
])
def test_runs_without_rationals_load_neither_fractions_nor_decimal(args):
    code, loaded = _modules_loaded_by(*args)
    assert code == 0 and "invdeg.cli" in loaded
    assert loaded & {"fractions", "decimal"} == set()


@pytest.mark.parametrize("args", [("psi", "--n", "3"), ("verify", "--n", "3")])
def test_csv_runs_load_no_csv_module(args):
    code, loaded = _modules_loaded_by(*args, "--format", "csv")
    assert code == 0 and "invdeg.cli" in loaded
    assert loaded & {"csv", "_csv"} == set()


def test_poly_run_loads_fractions():
    # the interpolant has rational coefficients; this run shows the check above can see the import
    code, loaded = _modules_loaded_by("mldeg", "--d", "3", "--poly")
    assert code == 0 and "fractions" in loaded


def test_verify_run_loads_neither_degree_engine():
    code, loaded = _modules_loaded_by("verify", "--n", "2")
    assert code == 0 and "invdeg.symbolic" in loaded
    assert loaded & {"invdeg.mldegree", "invdeg.multidegree"} == set()


def test_package_import_loads_no_engine():
    proc = _fresh_python("-c", "import sys, invdeg; print(sorted(m for m in sys.modules if m.startswith('invdeg')))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['invdeg']\n", "")


def test_public_names_resolve_on_first_use():
    star: dict = {}
    exec("from invdeg import *", star)
    listing = dir(invdeg)
    assert len(set(invdeg.__all__)) == len(invdeg.__all__)
    for module, names in invdeg._PUBLIC.items():
        for name in names:
            value = getattr(import_module(f"invdeg.{module}"), name)
            assert getattr(invdeg, name) is value and star[name] is value and name in listing
            # the table names the module that defines each name, so a stale entry or a re-export fails
            assert value.__module__ == f"invdeg.{module}", name
            if not isinstance(value, type):  # X * Y depends on n alone: no check takes it as an argument
                assert "prod" not in inspect.signature(value).parameters, name
    assert star["__version__"] == invdeg.__version__ and "__version__" in listing
    with pytest.raises(AttributeError, match="no_such_name"):
        invdeg.no_such_name
    with pytest.raises(ImportError):
        exec("from invdeg import no_such_name", {})


def _lazily(payload):
    """``payload`` with the rows of every ``_Records`` turned into an
    iterator, as psi passes its pairs."""
    if isinstance(payload, cli._Records):
        return payload._replace(rows=iter(payload.rows))
    if isinstance(payload, (list, tuple)):
        return type(payload)(_lazily(v) for v in payload)
    if isinstance(payload, dict):
        return {k: _lazily(v) for k, v in payload.items()}
    return payload


def _json_text(value) -> str:
    out: list[str] = []
    cli._to_json(value, out)
    return "".join(out)


def _old_jsonable(value):
    """The serializer the one-pass JSON writer replaced: map ints to str,
    then ``json.dumps(..., indent=2)``. Kept as its oracle."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, cli._Records):  # the equivalent list of dicts
        return [{k: str(v) for k, v in zip(value.keys, row)} for row in value.rows]
    if isinstance(value, (list, tuple)):
        return [_old_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _old_jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value)!r}")


_AWKWARD_TEXT = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\té\u2028😀'), max_size=6)
_LEAVES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.text(max_size=8),
    _AWKWARD_TEXT,
)
_KEYS = st.one_of(st.text(max_size=6), _AWKWARD_TEXT, st.integers(), st.booleans())
# same-shaped int records, empty ones included; "%" keys exercise the template escaping
_RECORDS = st.lists(st.one_of(st.text(max_size=6), _AWKWARD_TEXT, st.just("%d %%s")), max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.tuples(*[st.integers()] * len(keys)), max_size=4).map(
        lambda rows: cli._Records(tuple(keys), rows)
    )
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        # str(key) must stay unique, or the oracle's dict would merge keys
        st.dictionaries(_KEYS, inner, max_size=4).filter(lambda d: len({str(k) for k in d}) == len(d)),
        # all-int arrays are written as one piece each, all-int dicts key by key
        st.dictionaries(_KEYS, st.one_of(st.integers(), st.booleans()), max_size=4).filter(
            lambda d: len({str(k) for k in d}) == len(d)
        ),
        st.lists(st.integers(), min_size=1, max_size=4),
        _RECORDS,
    ),
    max_leaves=30,
)


@given(_PAYLOADS)
@example({
    "empty": [[], {}, ()],
    "text": ['"quoted"', "back\\slash", "\x00\x08\x1f", "ünïcödé 😀", "\u2028"],
    "flags": [True, False],
    "big": [2**200, -(3**150)],
    1: {"nested": {"deeper": [0]}},
    "nested": [(), ([1, 2], {"i": 1, "value": -(2**70)}), [()]],
    "records": [{"i": 1, "j": 2, "value": 3}, {"i": 1, "flag": True}, {"off": False}],
    "ints": [(7,), [1, -2, 3], [1, True]],
    "pairs": cli._Records(("i", "j", "value"), [(1, 2, 1), (1, 3, -(2**70))]),
    "no records": [cli._Records(("i",), []), cli._Records((), [(), ()]), cli._Records(("100%",), [(5,)])],
})
def test_json_writer_matches_the_two_pass_oracle(payload):
    assert _json_text(_lazily(payload)) == json.dumps(_old_jsonable(payload), indent=2)


def test_json_writer_writes_an_int_array_as_one_piece():
    out: list[str] = []
    cli._to_json([3, -4], out)
    assert out == ['[\n  "3",\n  "-4"\n]']


def _csv_module_text(rows) -> str:
    """What ``csv.writer(..., lineterminator="\n")`` writes on Python 3.13+.

    Before 3.13 that writer leaves a field with a lone carriage return
    unquoted, so a reader splits the line there. A writer whose terminator
    is "\r\n" quotes it on every version; each of its lines, cut back to
    "\n", is the 3.13 text.
    """
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    text = "".join(lines)
    if sys.version_info >= (3, 13):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text
    return text


_CSV_CELLS = st.one_of(
    st.none(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.text(alphabet=st.sampled_from(',"\r\n a%é😀'), max_size=6),
    st.text(max_size=6),
)
_BIG_INTS = st.one_of(st.integers(), st.integers(min_value=-(10**80), max_value=10**80))


@given(
    st.lists(_CSV_CELLS, max_size=4),
    st.lists(st.lists(_CSV_CELLS, max_size=4), max_size=5),
    st.lists(_CSV_CELLS, max_size=3),
    st.integers(0, 3).flatmap(lambda k: st.lists(st.tuples(*[_BIG_INTS] * k), max_size=4)),
)
@example(["kind", "i", "j", "value"], [["single", 1, None, 1], [""], [None], [], ["a,b", 'say "x"', "\r", "x\ny", ""]],
         ["pair"], [(1, 2, 3), (-(10**70), 0, 7)])
@example([], [], ["50%", "%d"], [(1,), (2,)])
@example(["h"], [], [""], [(), ()])
def test_csv_writer_matches_the_csv_module(header, rows, head, records):
    # a row that ends in a _Records stands for one line per record after its leading cells
    keys = tuple(f"k{i}" for i in range(len(records[0]))) if records else ()
    report = cli._Report(
        params={}, checks=[], results=dict, csv_header=header,
        rows=lambda: [*rows, (*head, cli._Records(keys, iter(records)))], latex=list,
    )
    out: list[str] = []
    cli._render_csv("psi", report, out)
    assert "".join(out) == _csv_module_text([header, *rows, *([*head, *r] for r in records)])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_psi_pairs_are_appended_one_record_per_piece(monkeypatch, fmt):
    # no piece holds the document or the pair list, so peak memory stays near the output's size
    pieces: list[str] = []

    class Sink:
        def writelines(self, lines):
            pieces.extend(lines)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["psi", "--n", "60", "--format", fmt]) == 0
    mark = '"value"' if fmt == "json" else "pair,"
    assert sum(mark in piece for piece in pieces) == 60 * 59 // 2
    assert all(piece.count(mark) <= 1 for piece in pieces)
    # the longest piece is the JSON array of the 60 singles, about 1.3 KB
    assert max(map(len, pieces)) < 2048


@pytest.mark.parametrize("bad", [None, 1.5, b"x", {"k": [None]}, [{1, 2}]])
def test_json_writer_rejects_other_types(bad):
    with pytest.raises(TypeError, match="cannot serialize"):
        _old_jsonable(bad)
    with pytest.raises(TypeError, match="cannot serialize"):
        _json_text(bad)
    with pytest.raises(TypeError, match="cannot serialize"):
        _json_text(iter([bad]))


def test_module_is_runnable():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "invdeg", "psi", "--n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "kind,i,j,value"


def test_a_reader_that_closes_early_ends_the_run_quietly_with_141():
    # 10 MB of CSV outgrow any pipe buffer, so the writer meets the closed pipe
    src = str(Path(invdeg.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "invdeg", "psi", "--n", "400", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (header, proc.wait(timeout=60), err) == (b"kind,i,j,value\n", 141, b"")
