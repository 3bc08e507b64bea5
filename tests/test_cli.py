import importlib.metadata as md
import json
import sys
from pathlib import Path

import pytest

import invdeg
import invdeg.cli as cli
import invdeg.mldegree as mldegree
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
    monkeypatch.setattr(cli, "multidegree_table", lambda n: multidegree_table(2))
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
    monkeypatch.setattr(cli, "ml_table", lambda n_max: mldegree.ml_table(2))
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
    monkeypatch.setattr(mldegree, "ml_degree", lambda n, d: 2 ** n)
    code, out, err = run_cli(capsys, ["mldeg", "--d", "3", "--poly"])
    assert code == 3
    assert out == ""
    assert "invariant violation" in err and "polynomiality violated" in err


def test_out_of_memory_exits_4(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cli, "multidegree_table", exhausted)
    code, out, err = run_cli(capsys, ["multidegree", "--n", "3"])
    assert code == 4
    assert out == ""
    assert err == "out of memory: multidegree needs more memory than this process may use\n"


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
    monkeypatch.setattr(cli, "swap_symmetry_holds", lambda n: False)
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
    bad = symbolic.SparsePoly.variable(symbolic.xvar(1, 1))
    monkeypatch.setattr(symbolic, "graph_ideal_generators", lambda n: [bad])
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
    base = ["verify", "--n", "4", "--mode", "numeric", "--trials", "8", "--seed", "7"]
    _, one, _ = run_cli(capsys, ["--threads", "1"] + base)
    _, four, _ = run_cli(capsys, ["--threads", "4"] + base)
    _, auto, _ = run_cli(capsys, ["--threads", "auto"] + base)
    assert one == four == auto


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
