"""bellsim operations run inside one process, with ``src`` on ``PYTHONPATH``.

    python child.py library CALLS RESULTS TIMES
        Build each random state of CALLS and call ``optimize_settings_traced``
        on it; write the results (deterministic) and per-call seconds.

    python child.py inproc OPS CALLS OUT --trace 0|1
        Run the CLI operations of OPS through ``bellsim.cli.main(argv)`` and
        the library calls of CALLS in this process, one root span per
        operation. With ``--trace 1`` the public functions of every layer are
        wrapped from outside; the spans stay in memory and are written to OUT
        with the per-operation results when the run ends.

Both modes run in the working directory the benchmark chose, so that the
relative output paths in the operations land there.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time

import numpy as np

from bellsim import chsh, cli, lhv, states
from bellsim.linalg import ComplexMatrix


def _trace_counts(args, kwargs, result):
    return [result[1].grid_evaluations, result[1].refine_evaluations]


def _trials(args, kwargs, result):
    return len(result[1])


def _log_chars(args, kwargs, result):
    # cli passes a fresh StringIO, so its position is the number of ASCII bytes written.
    return kwargs["stream"].tell() if "stream" in kwargs else args[1].tell()


#: (span name, defining module, function, what to record from the call)
LAYERS = (
    ("cli.main", cli, "main", None),
    ("chsh.optimize", chsh, "optimize_settings_traced", _trace_counts),
    ("chsh.threshold", chsh, "werner_threshold", None),
    ("chsh.correlator_table", chsh, "correlator_table", None),
    ("chsh.quantum_correlator", chsh, "quantum_correlator", None),
    ("states.make", states, "make_singlet", None),
    ("states.make", states, "make_werner", None),
    ("lhv.sample", lhv, "sample_quantum_experiment", _trials),
    ("lhv.sample", lhv, "sample_lhv_experiment", _trials),
    ("lhv.write_log", lhv, "write_trial_log", _log_chars),
    ("lhv.exhaustive", lhv, "classical_bound_exhaustive", None),
)


class Tracer:
    """Spans as ``[name, start, end, parent index, op id, extra]``, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if extra is not None:
                    record[5] = extra(args, kwargs, result)
                return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace each layer function wherever a bellsim module binds it.

    ``bellsim.cli`` and ``bellsim.chsh`` import names from the defining modules
    at import time, so patching only the defining module would miss their calls.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "bellsim" or name.startswith("bellsim.")]
    for name, module, attr, extra in LAYERS:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, extra)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def library_call(call: dict) -> dict:
    rho = states.DensityMatrix(ComplexMatrix(np.array(call["re"]) + 1j * np.array(call["im"])))
    result, trace = chsh.optimize_settings_traced(rho, seed=call["seed"])
    s = result.settings
    return {
        "id": call["id"],
        "s_value": result.s_value,
        "settings": [[v.x, v.y, v.z] for v in (s.a1, s.a2, s.b1, s.b2)],
        "grid_evaluations": trace.grid_evaluations,
        "refine_evaluations": trace.refine_evaluations,
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def run_library(calls: list[dict], results_path: str, times_path: str) -> None:
    results, seconds = zip(*(_timed(library_call, c) for c in calls)) if calls else ((), ())
    with open(results_path, "w") as f:
        json.dump(list(results), f)
    with open(times_path, "w") as f:
        json.dump(list(seconds), f)


def _cli_op(op: dict) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(op["argv"])
    report = op["spec"]["report"]
    return {"id": op["id"], "rc": rc, "stderr": err.getvalue()[-2000:],
            "report_bytes": os.path.getsize(report) if os.path.exists(report) else 0}


def run_inproc(ops: list[dict], calls: list[dict], trace: bool) -> dict:
    tracer = Tracer()
    if trace:
        install(tracer)
    root = tracer.span if trace else (lambda name: contextlib.nullcontext())
    out: dict = {"ops": [], "library": [], "library_seconds": []}
    t_start = time.perf_counter()
    for op in ops:
        tracer.op = op["id"]
        with root("op"):
            result, seconds = _timed(_cli_op, op)
        out["ops"].append({**result, "seconds": seconds})
    for call in calls:
        tracer.op = call["id"]
        with root("op"):
            result, seconds = _timed(library_call, call)
        out["library"].append(result)
        out["library_seconds"].append(seconds)
    out["total_s"] = time.perf_counter() - t_start
    out["spans"] = tracer.spans
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("library")
    p.add_argument("calls")
    p.add_argument("results")
    p.add_argument("times")
    p = sub.add_parser("inproc")
    p.add_argument("ops")
    p.add_argument("calls")
    p.add_argument("out")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.calls) as f:
        calls = json.load(f)
    if args.mode == "library":
        run_library(calls, args.results, args.times)
        return 0
    with open(args.ops) as f:
        ops = json.load(f)
    result = run_inproc(ops, calls, bool(args.trace))
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
