"""invdeg benchmark harness (stdlib only).

    python3 perfbench/run.py --workload tables --seed 1 --seconds 28 --trace 0

Runs one workload as a single closed-loop client: one ``python -m invdeg``
process at a time, each timed from spawn to exit, with its own CPU time and
peak RSS read from ``os.wait4``. Times are scaled to reference seconds by a
speed probe on the child's CPU (see run_scaled). Every stdout is checked.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes (see trace_child.py) and reports the
per-layer metrics. Human-readable lines go first; the last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from trace_child import LAYERS, SWEEP_SIZES
from workloads import PASS_CHECKS, SETUP, WORKLOADS, Command, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_CHILD = HERE / "trace_child.py"
SPAWNER = HERE / "spawner.py"

SETUP_SAMPLES = 7
# A fixed reference for speed_probe: about its median on the 2-vCPU 2.1 GHz
# Xeon VM the benchmark was tuned on.
PROBE_REF_S = 0.001
# Command time grows as (probe time)^0.75 there: fitting log wall time on log
# probe time over 50 runs each of five small commands, one or two like those
# of each workload, gave slopes 0.67-0.80 (r ~ 0.95). Reported times are in
# reference seconds: measured seconds / slowdown ** PROBE_EXPONENT.
PROBE_EXPONENT = 0.75
PROBE_INTERVAL_S = 0.05
CHECK_SPANS = {
    "graph_vanishing": ("symbolic.verify_graph_vanishing",),
    "adjugate_identity": ("symbolic.adjugate_identity_holds", "symbolic.adjugate_identity_numeric"),
    "swap_symmetry": ("symbolic.swap_symmetry_holds",),
    "product_span": ("symbolic.spans_product_entries",),
    "witness_rank_pairs": ("symbolic.witness_pair_valid",),
}


@dataclass
class Child:
    """One finished child process, as the kernel accounted for it."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    trace: Optional[dict] = None
    slowdown: float = 1.0  # median speed_probe time while this child ran, over PROBE_REF_S

    def scaled(self, seconds: float) -> float:
        """Seconds measured while this child ran, in reference seconds."""
        return seconds / self.slowdown ** PROBE_EXPONENT


def speed_probe(rounds: int = 2_400) -> float:
    """Seconds this process takes for a fixed loop of bigint and dict work."""
    start = time.perf_counter()
    acc, table = 1, {}
    for i in range(rounds):
        acc = (acc * 1000003 + i) & ((1 << 256) - 1)
        table[i & 1023] = acc
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it spawns, to its lowest allowed CPU.

    The probe tracks a child's speed only on the CPU the child runs on. The
    cost: ``--threads 2`` runs on one CPU, so pass_s cannot show a parallel
    speed-up; the commands are bound by the interpreter lock today.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Spawner:
    """Runs children through spawner.py, so each reports its own peak RSS."""

    def __init__(self, env: dict):
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self._server = subprocess.Popen(
                [sys.executable, "-S", str(SPAWNER), str(theirs.fileno())],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, pass_fds=(theirs.fileno(),),
            )

    def close(self) -> None:
        self._sock.close()
        self._server.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, argv: list[str], trace: bool = False) -> Child:
        """Run argv to completion, draining its pipes; rusage comes from wait4.

        With ``trace``, "{fd}" in argv is the write end of a pipe whose
        contents are read back as the child's JSON report.
        """
        pipes = [os.pipe() for _ in range(3 if trace else 2)]
        start = time.perf_counter()
        try:
            socket.send_fds(self._sock, [json.dumps(argv).encode()], [w for _, w in pipes])
        finally:
            for _, w in pipes:
                os.close(w)
        chunks: dict[int, list[bytes]] = {r: [] for r, _ in pipes}
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
                        os.close(key.fd)
        reply = json.loads(self._sock.recv(1 << 16))
        wall = time.perf_counter() - start
        if "error" in reply:
            raise OSError(f"cannot start {argv}: {reply['error']}")
        out, err, *report = (b"".join(chunks[r]) for r, _ in pipes)
        return Child(
            code=reply["code"],
            wall_s=wall,
            cpu_s=reply["cpu_s"],
            rss_mb=reply["maxrss_kib"] / 1024,
            stdout=out,
            stderr=err,
            trace=json.loads(report[0]) if report and report[0] else None,
        )


def run_scaled(spawner: Spawner, argv: list[str], trace: bool = False) -> Child:
    """Spawner.run while a thread probes the CPU's speed every PROBE_INTERVAL_S.

    The machines this runs on share cores with other tenants, and a core's
    speed drifts by up to 2x over seconds. The probe thread shares the
    child's CPU (see pin_to_one_cpu) and takes about 2% of it; the child's
    slowdown is the median probe time over PROBE_REF_S.
    """
    samples = [speed_probe()]
    done = threading.Event()

    def sample() -> None:
        while not done.wait(PROBE_INTERVAL_S):
            samples.append(speed_probe())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        child = spawner.run(argv, trace)
    finally:
        done.set()
        sampler.join()
    samples.append(speed_probe())
    child.slowdown = statistics.median(samples) / PROBE_REF_S
    return child


def child_env() -> dict:
    """The caller's environment without PYTHON* settings, importing invdeg from src/.

    Ambient settings such as PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED
    would change what is measured; children get interpreter defaults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def invdeg_argv(cmd: Command, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(TRACE_CHILD), "{fd}", *cmd.args]
    return [sys.executable, "-m", "invdeg", *cmd.args]


def failures_of(cmd: Command, child: Child) -> list[str]:
    """Why this command's run counts as failed; empty if it did not."""
    if child.code != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"{cmd.label}: exit code {child.code} {tail}"]
    reasons = []
    for check in cmd.checks:
        try:
            reason = check(child.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"output does not parse: {exc!r}"
        if reason:
            reasons.append(f"{cmd.label}: {reason}")
    return reasons


@dataclass
class Pass:
    children: dict[str, Child] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)  # label -> reasons

    @property
    def wall_s(self) -> float:
        return sum(c.scaled(c.wall_s) for c in self.children.values())

    @property
    def cpu_s(self) -> float:
        return sum(c.scaled(c.cpu_s) for c in self.children.values())

    @property
    def raw_wall_s(self) -> float:
        return sum(c.wall_s for c in self.children.values())

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children.values())


def run_pass(workload: str, cmds: list[Command], spawner: Spawner, traced: bool = False) -> Pass:
    result = Pass()
    for cmd in cmds:
        child = run_scaled(spawner, invdeg_argv(cmd, traced), trace=traced)
        result.children[cmd.label] = child
        reasons = failures_of(cmd, child)
        if traced and child.trace is None:
            reasons.append(f"{cmd.label}: traced run wrote no report")
        if reasons:
            result.failures[cmd.label] = reasons
    pass_check = PASS_CHECKS.get(workload)
    if pass_check:
        reason = pass_check({label: c.stdout for label, c in result.children.items()})
        if reason:
            result.failures.setdefault("pass check", []).append(reason)
    return result


class Tally:
    """Commands attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def count(self, attempted: int, failures: dict[str, list[str]]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.reasons += [r for reasons in failures.values() for r in reasons]


def setup_times(spawner: Spawner, tally: Tally, samples: int) -> list[float]:
    """Wall times of no-work runs, after one untimed run that writes bytecode."""
    walls = []
    for i in range(samples + 1):
        child = run_scaled(spawner, invdeg_argv(SETUP, False))
        reasons = failures_of(SETUP, child)
        tally.count(1, {SETUP.label: reasons} if reasons else {})
        if i:
            walls.append(child.scaled(child.wall_s))
    return walls


def timed_passes(name: str, cmds: list[Command], spawner: Spawner, seconds: float, tally: Tally) -> list[Pass]:
    """Untraced passes until the next one would end after ``seconds``; at least one."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        p = run_pass(name, cmds, spawner)
        tally.count(len(cmds), p.failures)
        passes.append(p)
        if time.perf_counter() - start + p.raw_wall_s > seconds:
            return passes


def end_to_end(name: str, cmds: list[Command], spawner: Spawner, seconds: float, tally: Tally):
    setup = setup_times(spawner, tally, SETUP_SAMPLES)
    passes = timed_passes(name, cmds, spawner, seconds, tally)
    attempted = tally.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "ok_frac": ((attempted - tally.failed) / attempted, "fraction"),
    }
    samples = {
        "setup_s": len(setup), "passes": len(passes), "commands": attempted,
        "raw_pass_s": statistics.median(p.raw_wall_s for p in passes),
        "slowdown": statistics.median(c.slowdown for p in passes for c in p.children.values()),
    }
    return metrics, samples


def _merge_traces(children: list[Child]) -> tuple[dict, dict, list]:
    """Sum the children's reports, with times in reference seconds."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for child in children:
        report = child.trace or {"spans": {}, "counters": {}, "absent": []}
        for key, (calls, total, self_s) in report["spans"].items():
            acc = spans.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += child.scaled(total)
            acc[2] += child.scaled(self_s)
        for key, value in report["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, 0), value)
            elif key.endswith("_s"):
                counters[key] = counters.get(key, 0) + child.scaled(value)
            else:
                counters[key] = counters.get(key, 0) + value
        absent.update(report["absent"])
    return spans, counters, sorted(absent)


def src_lines(layer: str) -> int:
    path = SRC / "invdeg" / f"{layer}.py"
    return len(path.read_bytes().splitlines()) if path.exists() else 0


def layer_metrics(traced: Pass, untraced: Pass) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, against the untraced pass before it."""
    spans, counters, absent = _merge_traces(list(traced.children.values()))

    def calls(key):
        return spans.get(key, [0])[0]

    def total(*keys):
        return sum(spans[k][1] for k in keys if k in spans)

    def count(key):
        return counters.get(key, 0)

    m = {f"{layer}.self_s": (sum(v[2] for k, v in spans.items() if k.startswith(layer + ".")), "s")
         for layer in LAYERS}
    bv_calls = calls("multidegree.beta_vector")
    bv_computed = count("multidegree.beta_vector.computed")
    m.update({
        "psi.psi_pair.calls": (calls("psi.psi_pair"), "count"),
        "exact.pfaffian.calls": (calls("exact.pfaffian"), "count"),
        "exact.pfaffian.size_max": (count("exact.pfaffian.size_max"), "count"),
        "multidegree.beta_vector.calls": (bv_calls, "count"),
        "multidegree.beta_vector.computed": (bv_computed, "count"),
        "multidegree.beta_vector.hit_ratio": ((bv_calls - bv_computed) / bv_calls if bv_calls else 0.0, "fraction"),
        "multidegree.masks": (count("multidegree.masks"), "count"),
        "multidegree.n_max": (count("multidegree.n_max"), "count"),
        "mldegree.ml_degree.calls": (calls("mldegree.ml_degree"), "count"),
        "mldegree.n_sampled": (count("mldegree.n_sampled"), "count"),
        "symbolic.determinant.calls": (calls("symbolic.determinant"), "count"),
        "symbolic.determinant.size_max": (count("symbolic.determinant.size_max"), "count"),
        "symbolic.determinant.int_s": (count("symbolic.determinant.int_s"), "s"),
        "symbolic.determinant.poly_s": (count("symbolic.determinant.poly_s"), "s"),
        "symbolic.determinant.zero_results": (count("symbolic.determinant.zero_results"), "count"),
        "symbolic.adjugate.calls": (calls("symbolic.adjugate"), "count"),
        "symbolic.product_entries.calls": (calls("symbolic.product_entries"), "count"),
        "cli.stdout_bytes": (sum(len(c.stdout) for c in traced.children.values()), "bytes"),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1, "fraction"),
    })
    for check, keys in CHECK_SPANS.items():
        m[f"symbolic.check.{check}_s"] = (total(*keys), "s")
    return m, absent


def kernel_sweep(spawner: Spawner, tally: Tally) -> tuple[dict, list]:
    """Pfaffian kernel times on the psi pair matrix of {1..k}; each must equal 1."""
    child = run_scaled(spawner, [sys.executable, str(TRACE_CHILD), "{fd}", "--sweep"], trace=True)
    sweep = child.trace or {"absent": ["sweep"], "seconds": {}, "wrong": []}
    failures = [f"Pfaffian of the psi pair matrix of 1..{k} is not 1" for k in sweep["wrong"]]
    if child.code != 0:
        failures.append(f"kernel sweep exited with {child.code}")
    tally.count(1, {"sweep": failures} if failures else {})
    metrics = {f"exact.pfaffian_s.k{k}": (child.scaled(sweep["seconds"].get(str(k), 0.0)), "s")
               for k in SWEEP_SIZES}
    return metrics, sweep["absent"]


def per_layer(name: str, cmds: list[Command], spawner: Spawner, seconds: float, tally: Tally):
    """Alternate untraced and traced passes; traced stdout must match byte for byte."""
    setup_times(spawner, tally, 0)
    kernel, kernel_absent = kernel_sweep(spawner, tally)
    rounds = []
    start = time.perf_counter()
    while True:
        untraced = run_pass(name, cmds, spawner)
        traced = run_pass(name, cmds, spawner, traced=True)
        failures = dict(untraced.failures)
        for label, child in traced.children.items():
            reasons = traced.failures.get(label, [])
            if child.stdout != untraced.children[label].stdout:
                reasons = reasons + [f"{label}: traced stdout differs from untraced"]
            if reasons:
                failures[f"traced {label}"] = reasons
        if "pass check" in traced.failures:
            failures["traced pass check"] = traced.failures["pass check"]
        tally.count(2 * len(cmds), failures)
        rounds.append(layer_metrics(traced, untraced))
        if time.perf_counter() - start + untraced.raw_wall_s + traced.raw_wall_s > seconds:
            break
    units = {key: unit for key, (_, unit) in rounds[0][0].items()}
    metrics = {key: (statistics.median(r[0][key][0] for r in rounds), unit) for key, unit in units.items()}
    metrics.update(kernel)
    metrics.update({f"{layer}.src_lines": (src_lines(layer), "lines") for layer in LAYERS})
    samples = {"traced_passes": len(rounds), "commands": tally.attempted, "absent": rounds[0][1] + kernel_absent}
    return metrics, samples


def provenance(seed: int, workload: str, trace: int, samples: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = probe.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "invdeg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": samples,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invdeg" / "__init__.py").is_file():
        print(f"perfbench: no invdeg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cmds = commands(args.workload, args.seed)
    cpu = pin_to_one_cpu()
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    with Spawner(child_env()) as spawner:
        metrics, samples = measure(args.workload, cmds, spawner, args.seconds, tally)
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    samples["cpu"] = cpu
    print(json.dumps({"provenance": provenance(args.seed, args.workload, args.trace, samples)}))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
