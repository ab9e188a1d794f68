"""Seeded operation lists for the benchmark workloads.

Every workload is a list of CLI operations (argv for ``python -m bellsim.cli``)
plus, for ``search``, a list of library calls run in one library process.
Each operation carries the inputs its oracle needs (``spec``). Output files
are named relative to the working directory, so that the reports are
byte-identical between runs with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("search", "sample", "quick")


@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does."""

    probes: int  # fresh import-only processes timed per pass
    sweep_points: int
    optimize_ops: int
    library_states: int
    trials: int
    quick_counts: tuple[int, ...]  # per quick kind, in QUICK_KINDS order


QUICK_KINDS = ("chsh-singlet", "chsh-werner", "chsh-optimal", "chsh-aligned", "lhv-exhaustive", "lhv-weights")

#: ``full`` keeps one pass short (about 8 to 14 s with the reference runs), so
#: that a run repeats every process: the sweep runs at 5 points, whose 20
#: threshold probes are most of its default cost, and ``sample`` at 3e5
#: trials, where sampling and the log still take most of each process.
SIZES = {
    "full": Size(probes=2, sweep_points=5, optimize_ops=2, library_states=40,
                 trials=300_000, quick_counts=(2, 2, 1, 1, 1, 1)),
    "tiny": Size(probes=1, sweep_points=3, optimize_ops=1, library_states=2,
                 trials=2_000, quick_counts=(1, 1, 1, 1, 1, 1)),
}


def _werner_p(rng: np.random.Generator) -> float:
    return float(rng.uniform(-1.0 / 3.0, 1.0))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _op(op_id: str, argv: list[str], spec: dict, log: bool = False) -> dict:
    out = [*argv, "--out", f"{op_id}.json"]
    if log:
        out += ["--trial-log", f"{op_id}.csv"]
    return {"id": op_id, "argv": out, "spec": {**spec, "report": f"{op_id}.json",
                                                "log": f"{op_id}.csv" if log else None}}


def _random_state(rng: np.random.Generator, pure: bool) -> np.ndarray:
    if pure:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _search(rng: np.random.Generator, size: Size) -> tuple[list[dict], list[dict]]:
    argv = ["werner-sweep", "--points", str(size.sweep_points), "--seed", str(_seed(rng))]
    ops = [_op("sweep", argv, {"cmd": "werner-sweep", "points": size.sweep_points})]
    for i in range(size.optimize_ops):
        p = _werner_p(rng)
        ops.append(_op(f"opt{i:02d}", ["optimize", "--state", f"werner:{p!r}", "--seed", str(_seed(rng))],
                       {"cmd": "optimize", "p": p}))
    calls = []
    for i in range(size.library_states):
        rho = _random_state(rng, pure=i % 2 == 0)
        calls.append({"id": f"lib{i:02d}", "re": rho.real.tolist(), "im": rho.imag.tolist(),
                      "seed": _seed(rng)})
    return ops, calls


def _sample(rng: np.random.Generator, size: Size) -> list[dict]:
    n = size.trials
    weights = [float(w) for w in rng.dirichlet(np.ones(16))]
    commands = [
        ("smp", ["sample", "--preset", "optimal"], {"cmd": "sample", "p": 1.0}),
        ("u16", ["lhv", "--preset", "uniform16"], {"cmd": "lhv", "weights": [1.0 / 16] * 16}),
        ("wts", ["lhv", "--weights", *map(repr, weights)], {"cmd": "lhv", "weights": weights}),
    ]
    ops = []
    for name, argv, spec in commands:
        argv = [*argv, "--trials", str(n), "--seed", str(_seed(rng))]
        # The same draw with and without --trial-log isolates the cost of the log.
        for log in (False, True):
            ops.append(_op(f"{name}_{'log' if log else 'nolog'}", argv, {**spec, "trials": n}, log=log))
    return ops


def _angles(rng: np.random.Generator) -> list[list[float]]:
    return [[float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, 2.0 * np.pi))] for _ in range(4)]


def _quick(rng: np.random.Generator, size: Size) -> list[dict]:
    ops = []
    for kind, count in zip(QUICK_KINDS, size.quick_counts):
        for i in range(count):
            op_id = f"{kind}{i:02d}"
            if kind in ("chsh-singlet", "chsh-werner"):
                p = 1.0 if kind == "chsh-singlet" else _werner_p(rng)
                state = "singlet" if kind == "chsh-singlet" else f"werner:{p!r}"
                angles = _angles(rng)
                flags = [tok for name, (t, ph) in zip(("a1", "a2", "b1", "b2"), angles)
                         for tok in (f"--{name}", repr(t), repr(ph))]
                ops.append(_op(op_id, ["chsh", "--state", state, *flags],
                               {"cmd": "chsh", "p": p, "angles": angles}))
            elif kind in ("chsh-optimal", "chsh-aligned"):
                p = 1.0 if i % 2 == 0 else _werner_p(rng)
                state = "singlet" if i % 2 == 0 else f"werner:{p!r}"
                preset = kind.split("-")[1]
                ops.append(_op(op_id, ["chsh", "--state", state, "--preset", preset],
                               {"cmd": "chsh", "p": p, "preset": preset}))
            elif kind == "lhv-exhaustive":
                ops.append(_op(op_id, ["lhv", "--exhaustive"], {"cmd": "lhv-exhaustive"}))
            else:
                weights = [float(w) for w in rng.dirichlet(np.ones(16))]
                ops.append(_op(op_id, ["lhv", "--weights", *map(repr, weights)],
                               {"cmd": "lhv", "weights": weights}))
    return ops


def build(workload: str, seed: int, size: Size) -> tuple[list[dict], list[dict]]:
    """The CLI operations and library calls of one pass of ``workload``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "search":
        return _search(rng, size)
    if workload == "sample":
        return _sample(rng, size), []
    return _quick(rng, size), []
