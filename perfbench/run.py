"""bellsim benchmark: end-to-end process metrics, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload search|sample|quick --seed N --seconds S --trace 0|1

One driver process runs the workload's operations one after another (a
closed loop with one client). Each CLI operation is a fresh
``python -m bellsim.cli`` process with ``src`` on ``PYTHONPATH``, reaped with
``os.wait4`` so that its wall time, user+sys CPU and peak RSS belong to it
alone. Every output is checked against the oracles in ``oracles.py``, which
never call bellsim. Passes over the workload repeat until ``--seconds`` have
elapsed (at least one pass), and each process counts with its median run.

The time metrics are in reference seconds. On a shared 2-vCPU VM the speed
of the cores drifted by up to 1.8x over minutes, as other tenants came and
went, so before every process the driver also runs ``REFERENCE``, a fixed
numpy and Python program that does not use bellsim. Every measured time is
scaled by ``REFERENCE_S / median reference time`` of the same run (CPU time
by the reference's CPU time), which cancels the drift. The measured times
and the factors are printed in a ``measured`` line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: import times from ``python -X importtime``, and
span self times from running the same operations in one process with the
layers' public functions wrapped from outside (see ``child.py``), next to an
unwrapped in-process run that gives the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata and the SHA-256 of every report and trial log.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = "import bellsim.cli"

#: Process start, numpy import, small complex matrix products and a Python
#: loop: the kinds of work bellsim's processes do, in a fixed amount.
REFERENCE = """
import numpy as np
m = np.arange(16.0).reshape(4, 4) / 16 + 1j * np.eye(4)
acc = 0.0
for i in range(6000):
    acc += float(np.trace(m @ m).real)
s = 0
for i in range(600000):
    s += i
"""
#: The median wall time of ``REFERENCE`` on a 2-vCPU Intel Xeon VM (Python
#: 3.11, numpy 2.4), where the benchmark was written.
REFERENCE_S = 0.4

#: name -> unit, printed with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: name -> unit, printed with --trace 1.
PER_LAYER = {
    "import.bellsim_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "B",
    "chsh.optimize.calls": "count",
    "chsh.optimize.self_s": "s",
    "chsh.optimize.grid_evals": "count",
    "chsh.optimize.refine_evals": "count",
    "chsh.optimize.max_gap": "1",
    "chsh.threshold.self_s": "s",
    "chsh.threshold.probes": "count",
    "chsh.correlator_table.calls": "count",
    "chsh.correlator_table.self_s": "s",
    "chsh.quantum_correlator.calls": "count",
    "chsh.quantum_correlator.self_s": "s",
    "states.make.calls": "count",
    "states.make.self_s": "s",
    "lhv.sample.calls": "count",
    "lhv.sample.self_s": "s",
    "lhv.sample.trials": "count",
    "lhv.sample.ns_per_trial": "ns",
    "lhv.write_log.self_s": "s",
    "lhv.write_log.bytes": "B",
    "lhv.exhaustive.self_s": "s",
    "error_rate": "ratio",
    "trace.untraced_s": "s",
    "trace.overhead_pct": "%",
}

#: Span names whose self time the attribution line reports.
LAYER_SPANS = ("cli.main", "chsh.optimize", "chsh.threshold", "chsh.correlator_table",
               "chsh.quantum_correlator", "states.make", "lhv.sample", "lhv.write_log", "lhv.exhaustive")


@dataclass(frozen=True)
class Usage:
    """One reaped child: exit code, wall time, user+sys CPU, peak RSS and its output."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # One BLAS thread per process keeps every child at or below nproc.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], cwd: Path, env: dict) -> Usage:
    """Run one child to completion and measure it on its own with ``os.wait4``."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Usage(proc.returncode, wall, rusage.ru_utime + rusage.ru_stime, rusage.ru_maxrss / 1024.0,
                     out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing bellsim, scipy and numpy, from ``-X importtime``.

    Each package's time is the cumulative time of its outermost entries, so a
    package imported under another one is not counted twice.
    """
    pending: dict[int, list] = defaultdict(list)
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:") or "cumulative" in line:
            continue
        name_field = parts[2][1:]
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        node = (name_field.strip(), int(parts[1]) / 1e6, pending.pop(depth + 1, []))
        pending[depth].append(node)

    def outermost(nodes, package: str) -> float:
        return sum(cum if name == package or name.startswith(package + ".") else outermost(children, package)
                   for name, cum, children in nodes)

    return {f"import.{pkg}_s": outermost(pending[0], pkg) for pkg in ("bellsim", "scipy", "numpy")}


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times (span duration minus its children's) of one traced pass."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, list] = defaultdict(list)
    probes = 0
    for i, (name, start, end, parent, _, value) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[i]
        if value is not None:
            extra[name].append(value)
        if name == "chsh.optimize":
            while parent >= 0 and spans[parent][0] != "chsh.threshold":
                parent = spans[parent][3]
            probes += parent >= 0
    trials = sum(extra["lhv.sample"])
    m = {f"{name}.self_s": self_s[name] for name in LAYER_SPANS}
    m.update({f"{name}.calls": calls[name] for name in
              ("chsh.optimize", "chsh.correlator_table", "chsh.quantum_correlator", "states.make", "lhv.sample")})
    m.update({
        "chsh.optimize.grid_evals": sum(v[0] for v in extra["chsh.optimize"]),
        "chsh.optimize.refine_evals": sum(v[1] for v in extra["chsh.optimize"]),
        "chsh.threshold.probes": probes,
        "lhv.sample.trials": trials,
        "lhv.sample.ns_per_trial": self_s["lhv.sample"] / trials * 1e9 if trials else 0.0,
        "lhv.write_log.bytes": sum(extra["lhv.write_log"]),
    })
    return m


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One benchmark run of one workload inside a scratch directory."""

    def __init__(self, root: Path, work: Path, ops: list[dict], calls: list[dict]):
        self.work, self.ops, self.calls = work, ops, calls
        self.env = child_env(root)
        (work / "ops.json").write_text(json.dumps(ops))
        (work / "calls.json").write_text(json.dumps(calls))
        # Also the warm-up: the first import compiles bellsim's bytecode cache.
        usage = self.run([sys.executable, "-c", f"{IMPORT_PROBE}; import json; "
                                                "print(json.dumps(bellsim.cli.REPORT_SCHEMA))"])
        if usage.rc != 0:
            raise RuntimeError(f"cannot import bellsim.cli: {usage.stderr.strip()[-500:]}")
        self.checker = oracles.Checker(json.loads(usage.stdout))
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str]) -> Usage:
        return spawn(argv, self.work, self.env)

    def probe(self, *flags: str) -> Usage:
        usage = self.run([sys.executable, *flags, "-c", IMPORT_PROBE])
        if usage.rc != 0:
            raise RuntimeError(f"import probe failed: {usage.stderr.strip()[-500:]}")
        return usage

    def probe_reference(self) -> Usage:
        usage = self.run([sys.executable, "-c", REFERENCE])
        if usage.rc != 0:
            raise RuntimeError(f"reference program failed: {usage.stderr.strip()[-500:]}")
        return usage

    def _record(self, op_id: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAIL {op_id}: " + "; ".join(errors[:5]), file=sys.stderr)

    def _same_as_first(self, name: str, digest: str) -> list[str]:
        if self.digests.setdefault(name, digest) != digest:
            return [f"{name} differs from its first run with this seed"]
        return []

    def _clear_outputs(self) -> None:
        for op in self.ops:
            for name in (op["spec"]["report"], op["spec"]["log"]):
                if name:
                    (self.work / name).unlink(missing_ok=True)

    def check_cli(self, op: dict, rc: int, stderr: str) -> None:
        if rc != 0:
            self._record(op["id"], [f"exit code {rc}: {stderr.strip()[-300:]}"])
            return
        errors = self.checker.cli(op["spec"], self.work)
        for name in (op["spec"]["report"], op["spec"]["log"]):
            if name and (self.work / name).exists():
                errors += self._same_as_first(name, sha256(self.work / name))
        self._record(op["id"], errors)

    def check_library(self, results: list[dict] | None, failure: str) -> None:
        if results is None or len(results) != len(self.calls):
            for call in self.calls:
                self._record(call["id"], [failure or "library process returned no results"])
            return
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        shared = self._same_as_first("library.json", digest)
        for call, result in zip(self.calls, results):
            self._record(call["id"], self.checker.library(call, result) + shared)

    def end_to_end(self, seconds: float, probes: int) -> tuple[dict, float]:
        """Repeat the workload's processes until ``seconds`` have passed; report reference seconds.

        Every process runs again and again, each time after a run of
        ``REFERENCE``, and its time is its median run: ``wall_s`` and
        ``cpu_s`` sum these over the workload's processes, and ``op_p50_s`` is
        their median over its operations (a library call counts as one).
        ``setup_s`` is the median of ``probes`` import-only processes per
        pass. Every process runs at least once, and the run stops at the
        first process that ends after ``seconds``. All four are then scaled
        to reference seconds; ``peak_rss_mb`` is as measured.
        """
        jobs = [(op["id"], [sys.executable, "-m", "bellsim.cli", *op["argv"]], op) for op in self.ops]
        if self.calls:
            jobs.append(("library", [sys.executable, CHILD, "library", "calls.json", "library.json", "times.json"],
                         None))
        # Spread the probes over the pass, so that a burst of load from outside
        # the benchmark does not slow all of them at once.
        probe_before = [round(i * len(jobs) / probes) for i in range(probes)]
        walls: dict[str, list[float]] = defaultdict(list)
        cpus: dict[str, list[float]] = defaultdict(list)
        setup: list[float] = []
        reference: list[Usage] = []
        rss, step = 0.0, 0
        t_start = time.perf_counter()
        while step < len(jobs) or time.perf_counter() - t_start < seconds:
            i = step % len(jobs)
            step += 1
            if i == 0:
                self._clear_outputs()
            setup.extend(self.probe().wall_s for _ in range(probe_before.count(i)))
            reference.append(self.probe_reference())
            name, argv, op = jobs[i]
            usage = self.run(argv)
            walls[name].append(usage.wall_s)
            cpus[name].append(usage.cpu_s)
            rss = max(rss, usage.rss_mb)
            if op is not None:
                self.check_cli(op, usage.rc, usage.stderr)
                continue
            results = None
            if usage.rc == 0:
                results = json.loads((self.work / "library.json").read_text())
                for call, call_s in zip(self.calls, json.loads((self.work / "times.json").read_text())):
                    walls[call["id"]].append(call_s)
            self.check_library(results, usage.stderr.strip()[-300:])
        passes = step / len(jobs)
        processes = [name for name, _, _ in jobs]
        operations = [op["id"] for op in self.ops] + [call["id"] for call in self.calls]
        measured = {
            "wall_s": sum(statistics.median(walls[name]) for name in processes),
            "cpu_s": sum(statistics.median(cpus[name]) for name in processes),
            "op_p50_s": statistics.median(statistics.median(walls[name]) for name in operations if walls[name]),
            "setup_s": statistics.median(setup),
        }
        # CPU time does not count the time the host lends this CPU to others, so
        # it is scaled by the reference's CPU time, and wall times by its wall time.
        factors = {"wall": REFERENCE_S / statistics.median(u.wall_s for u in reference),
                   "cpu": REFERENCE_S / statistics.median(u.cpu_s for u in reference)}
        metrics = {name: value * factors["cpu" if name == "cpu_s" else "wall"] for name, value in measured.items()}
        metrics["peak_rss_mb"] = rss
        print(f"{passes:.2f} passes of {len(self.ops)} CLI operations and {len(self.calls)} library calls "
              f"in {time.perf_counter() - t_start:.1f} s; setup from {len(setup)} import probes")
        print(json.dumps({"measured": measured, "reference_runs": len(reference), "factors": factors}))
        return metrics, passes

    def inproc(self, trace: int) -> dict | None:
        self._clear_outputs()
        usage = self.run([sys.executable, CHILD, "inproc", "ops.json", "calls.json", "inproc.json",
                          "--trace", str(trace)])
        if usage.rc != 0:
            for item in self.ops + self.calls:
                self._record(item["id"], [f"in-process run exited {usage.rc}: {usage.stderr.strip()[-300:]}"])
            return None
        result = json.loads((self.work / "inproc.json").read_text())
        for op, outcome in zip(self.ops, result["ops"]):
            self.check_cli(op, outcome["rc"], outcome["stderr"])
        self.check_library(result["library"], "")
        return result

    def traced(self, seconds: float, probes: int, workload: str) -> tuple[dict, int]:
        runs = [self.probe("-X", "importtime") for _ in range(probes)]
        imports = [parse_importtime(u.stderr) for u in runs]
        plain_runs, traced_runs = [], []
        t_start = time.perf_counter()
        while True:
            plain_runs.append(self.inproc(0))
            traced_runs.append(self.inproc(1))
            if time.perf_counter() - t_start >= seconds:
                break
        plain = [r["total_s"] for r in plain_runs if r is not None]
        traced = [r for r in traced_runs if r is not None]
        per_pass = [span_metrics(r["spans"]) for r in traced]
        metrics = {name: statistics.median(i[name] for i in imports) for name in imports[0]}
        for name in per_pass[0] if per_pass else ():
            metrics[name] = statistics.median(p[name] for p in per_pass)
        metrics["cli.report_bytes"] = sum(o["report_bytes"] for o in traced[0]["ops"]) if traced else 0
        metrics["chsh.optimize.max_gap"] = self.checker.max_gap
        metrics["error_rate"] = self.failed / max(self.attempted, 1)
        untraced_s = statistics.median(plain) if plain else 0.0
        traced_s = statistics.median(r["total_s"] for r in traced) if traced else 0.0
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0 if untraced_s else 0.0
        metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
        self._attribution(workload, metrics, statistics.median(u.wall_s for u in runs), traced_s)
        return metrics, len(traced)

    def _attribution(self, workload: str, m: dict, probe_s: float, traced_s: float) -> None:
        """Print where the workload's time goes, as if each operation were a fresh process.

        Process start plus import is charged once per process at the median
        ``-X importtime`` probe wall time, which overstates it slightly.
        """
        processes = len(self.ops) + (1 if self.calls else 0)
        parts = {"import": processes * probe_s}
        parts.update({name: m[f"{name}.self_s"] for name in LAYER_SPANS})
        total = parts["import"] + traced_s
        parts["other"] = total - sum(parts.values())
        shares = sorted(parts.items(), key=lambda kv: -kv[1])
        print(f"attribution {workload} ({total:.3f} s as {processes} processes): "
              + ", ".join(f"{name} {100 * v / total:.1f}%" for name, v in shares if total))
        print(f"tracing overhead {m['trace.overhead_pct']:.2f}% "
              f"({traced_s:.4f} s traced against {m['trace.untraced_s']:.4f} s without wrappers)")


def run_metadata(root: Path, bench: Bench) -> dict:
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "bellsim").rglob("*.py"))),
        "dependencies": pyproject["project"]["dependencies"],
        "sha256": dict(sorted(bench.digests.items())),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' is the smoke-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bellsim" / "cli.py").is_file():
        print(f"error: no src/bellsim/cli.py under {root}; run from the repository root", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size]
    ops, calls = workloads.build(args.workload, args.seed, size)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(root, work, ops, calls)
        if args.trace:
            metrics, passes = bench.traced(args.seconds, size.probes, args.workload)
            units = PER_LAYER
        else:
            metrics, passes = bench.end_to_end(args.seconds, size.probes)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": passes,
            **run_metadata(root, bench)}
    print(f"error_rate = {bench.failed / max(bench.attempted, 1)} ({bench.failed} of {bench.attempted} failed)")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
