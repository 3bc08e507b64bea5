"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SETUP, Command, check_multidegree, digest_check  # noqa: E402

ENV = run.child_env()


@pytest.fixture(scope="module")
def spawner():
    with run.Spawner(ENV) as server:
        yield server


def _python(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def test_rss_and_cpu_are_read_per_child(spawner):
    big = spawner.run(_python("b = b'x' * (64 << 20); sum(range(3_000_000))"))
    ballast = b"x" * (96 << 20)  # the harness's own peak must not leak into children
    small = spawner.run(_python("import time; time.sleep(0.2)"))
    del ballast
    assert big.code == small.code == 0
    assert big.rss_mb > 64
    # getrusage(RUSAGE_CHILDREN) would report the first child's peak again here.
    assert small.rss_mb < 30
    assert small.cpu_s < big.cpu_s
    assert small.wall_s >= 0.2


def test_recorded_output_passes_and_digest_mismatch_fails(spawner):
    ok = run.run_pass("psi-wide", [SETUP], spawner)
    assert ok.failures == {}
    wrong = Command(("psi", "--n", "2"), (digest_check("psi --n 1"),))
    bad = run.run_pass("psi-wide", [wrong], spawner)
    assert list(bad.failures) == ["psi --n 2"]
    tally = run.Tally()
    tally.count(1, ok.failures)
    tally.count(1, bad.failures)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_independent_checks_reject_a_wrong_table():
    out = subprocess.run([sys.executable, "-m", "invdeg", "multidegree", "--n", "5"],
                         env=ENV, capture_output=True, check=True).stdout
    assert check_multidegree(out) is None
    doc = json.loads(out)
    doc["results"]["gamma"][1] = "5"
    assert "gamma" in check_multidegree(json.dumps(doc).encode())
    doc["results"]["beta"][0] = "2"
    assert "palindromic" in check_multidegree(json.dumps(doc).encode())


@pytest.mark.parametrize("args", [
    "multidegree --n 6 --format latex",
    "mldeg --d 3 --poly",
    "mldeg --n-max 5 --format csv",
    "psi --n 7",
    "verify --mode symbolic --n 3",
    "--threads 2 verify --mode numeric --n 4 --trials 4 --seed 9",
    "verify --n 0",
])
def test_trace_is_transparent(spawner, args):
    cmd = Command(tuple(args.split()), ())
    plain = spawner.run(run.invdeg_argv(cmd, traced=False))
    traced = spawner.run(run.invdeg_argv(cmd, traced=True), trace=True)
    assert traced.stdout == plain.stdout
    assert traced.stderr == plain.stderr
    assert traced.code == plain.code
    spans = traced.trace["spans"]
    assert spans["cli.main"][0] == 1
    assert traced.trace["absent"] == []
    for calls, total, self_s in spans.values():
        assert calls >= 1 and self_s <= total + 1e-9


def test_worker_thread_spans_are_children_of_the_waiting_span(spawner):
    cmd = Command(tuple("--threads 2 verify --mode numeric --n 5 --trials 6".split()), ())
    spans = spawner.run(run.invdeg_argv(cmd, traced=True), trace=True).trace["spans"]
    calls, total, self_s = spans["symbolic.verify_graph_vanishing"]
    assert spans["symbolic.determinant"][0] >= 6
    assert self_s < total / 2


def test_absent_names_are_skipped_and_reported():
    code = (
        "import trace_child as t\n"
        "t.WRAPPED['psi'] += ('no_such_function',)\n"
        "tracer = t.Tracer(); tracer.install()\n"
        "import invdeg.cli\n"
        "invdeg.cli.main(['psi', '--n', '3'])\n"
        "print(tracer.report()['absent'])\n"
    )
    env = dict(ENV, PYTHONPATH=f"{ENV['PYTHONPATH']}:{HERE}")
    out = subprocess.run(_python(code), env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "['psi.no_such_function']"


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        bench = Path(bare) / "perfbench"
        bench.mkdir()
        for name in ("run.py", "workloads.py", "trace_child.py", "spawner.py"):
            (bench / name).write_bytes((HERE / name).read_bytes())
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json(spawner):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer, _ = run.per_layer("psi-wide", [SETUP], spawner, 0, run.Tally())
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e, _ = run.end_to_end("psi-wide", [SETUP], spawner, 0, run.Tally())
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e["ok_frac"][0] == 1.0
