"""Independent oracles for every bellsim output the benchmark produces.

Nothing here imports bellsim: the expected values come from numpy code of
the benchmark's own.

- Singlet and Werner correlators: ``E(a, b) = -p a.b``.
- Optimized S (``optimize``, ``werner-sweep`` rows, random states): the
  closed-form maximum ``2*sqrt(s1^2 + s2^2)`` over the two largest singular
  values of ``T_ij = Tr(rho sigma_i (x) sigma_j)`` (R., P. & M. Horodecki,
  Phys. Lett. A 200, 340, 1995).
- Werner threshold: ``1/sqrt(2)``.
- Exact hidden-variable tables: weighted sums over the 16 sign patterns.
- Sampled runs: ``|S_hat - S_exact| <= 5 SE``, counts that sum to ``n``, and a
  trial log of ``n + 1`` lines under the documented header.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

CORRELATOR_TOL = 1e-10
OPTIMUM_TOL = 1e-6
THRESHOLD_TOL = 1e-4
UNIT_TOL = 1e-12
SAMPLE_Z = 5.0
TRIAL_LOG_HEADER = b"trial,a_setting,b_setting,a_outcome,b_outcome\n"

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_SINGLET = np.array([[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]], dtype=complex)


def werner(p: float) -> np.ndarray:
    return p * _SINGLET + (1.0 - p) / 4.0 * np.eye(4)


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    return np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in _PAULI] for si in _PAULI])


def horodecki_max_s(rho: np.ndarray) -> float:
    s = np.linalg.svd(correlation_tensor(rho), compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def unit_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


def pattern(i: int) -> tuple[int, int, int, int]:
    """Outcomes (A1, A2, B1, B2) of deterministic pattern ``i``; bit 3..0 set means -1."""
    return tuple(1 - 2 * ((i >> k) & 1) for k in (3, 2, 1, 0))


def lhv_table(weights) -> np.ndarray:
    resp = np.array([pattern(i) for i in range(16)], dtype=float)
    return np.einsum("l,lj,lk->jk", np.asarray(weights, dtype=float), resp[:, :2], resp[:, 2:])


def chsh(e: np.ndarray) -> float:
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def singlet_family_table(p: float, vecs) -> np.ndarray:
    """Correlators ``E_jk = -p a_j . b_k`` of the singlet (p = 1) and Werner states."""
    a1, a2, b1, b2 = vecs
    return -p * np.array([[a1 @ b1, a1 @ b2], [a2 @ b1, a2 @ b2]])


def _table(d: dict) -> np.ndarray:
    return np.array([[d["e11"], d["e12"]], [d["e21"], d["e22"]]], dtype=float)


def _close(errors: list, what: str, got, want: float, tol: float) -> None:
    if not abs(float(got) - want) <= tol:
        errors.append(f"{what} = {got!r}, oracle {want!r} (tolerance {tol:g})")


def _close_table(errors: list, what: str, got: dict, want: np.ndarray) -> None:
    for name, g, w in zip(("e11", "e12", "e21", "e22"), _table(got).ravel(), want.ravel()):
        _close(errors, f"{what}.{name}", g, w, CORRELATOR_TOL)


def _vectors(settings: dict, errors: list) -> list[np.ndarray]:
    vecs = [np.array([settings[k]["x"], settings[k]["y"], settings[k]["z"]], dtype=float)
            for k in ("a1", "a2", "b1", "b2")]
    for name, v in zip(("a1", "a2", "b1", "b2"), vecs):
        _close(errors, f"|{name}|", np.linalg.norm(v), 1.0, UNIT_TOL)
    return vecs


def _s_from_tensor(t: np.ndarray, vecs: list[np.ndarray]) -> float:
    a1, a2, b1, b2 = vecs
    return float(a1 @ t @ (b1 + b2) + a2 @ t @ (b1 - b2))


class Checker:
    """Validates reports, logs and library results; records the Horodecki gaps seen."""

    def __init__(self, schema: dict):
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.max_gap = 0.0

    def _gap(self, errors: list, what: str, s, rho: np.ndarray) -> None:
        want = horodecki_max_s(rho)
        self.max_gap = max(self.max_gap, abs(want - float(s)))
        _close(errors, what, s, want, OPTIMUM_TOL)

    def cli(self, spec: dict, workdir: Path) -> list[str]:
        """Errors in the report (and trial log) one CLI operation wrote; empty if correct."""
        try:
            report = json.loads((workdir / spec["report"]).read_text())
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        errors = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if errors:
            return errors
        try:
            getattr(self, "_" + spec["cmd"].replace("-", "_"))(spec, report, workdir, errors)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            errors.append(f"malformed report: {exc!r}")
        return errors

    def library(self, call: dict, result: dict) -> list[str]:
        """Errors in one ``optimize_settings_traced`` result on a random state."""
        errors: list[str] = []
        try:
            rho = np.array(call["re"]) + 1j * np.array(call["im"])
            self._gap(errors, "S", result["s_value"], rho)
            vecs = [np.array(v, dtype=float) for v in result["settings"]]
            _close(errors, "S at the returned settings", _s_from_tensor(correlation_tensor(rho), vecs),
                   float(result["s_value"]), CORRELATOR_TOL)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            errors.append(f"malformed result: {exc!r}")
        return errors

    def _chsh(self, spec, report, workdir, errors):
        res, p = report["results"], spec["p"]
        if "angles" in spec:
            vecs = [unit_vector(t, ph) for t, ph in spec["angles"]]
        else:
            vecs = _vectors(report["inputs"]["settings"], errors)
        e = singlet_family_table(p, vecs)
        _close_table(errors, "correlators", res["correlators"], e)
        _close(errors, "s_value", res["s_value"], chsh(e), CORRELATOR_TOL)
        closed_form = {"optimal": 2.0 * math.sqrt(2.0) * p, "aligned": -2.0 * p}
        if spec.get("preset") in closed_form:
            _close(errors, "s_value at the preset", res["s_value"], closed_form[spec["preset"]], CORRELATOR_TOL)
        if res["within_tsirelson"] is not True:
            errors.append("within_tsirelson is not true")

    def _optimize(self, spec, report, workdir, errors):
        res, rho = report["results"], werner(spec["p"])
        self._gap(errors, "optimized S", res["s_value"], rho)
        vecs = _vectors(res["settings"], errors)
        _close(errors, "S at the reported settings", _s_from_tensor(correlation_tensor(rho), vecs),
               float(res["s_value"]), CORRELATOR_TOL)

    def _werner_sweep(self, spec, report, workdir, errors):
        res, points = report["results"], spec["points"]
        rows = res["rows"]
        if len(rows) != points:
            errors.append(f"{len(rows)} rows, expected {points}")
        for i, row in enumerate(rows):
            _close(errors, f"rows[{i}].p", row["p"], i / (points - 1), 1e-12)
            self._gap(errors, f"rows[{i}].max_s", row["max_s"], werner(row["p"]))
        _close(errors, "threshold", res["threshold"], 1.0 / math.sqrt(2.0), THRESHOLD_TOL)
        _close(errors, "threshold_row.p", res["threshold_row"]["p"], res["threshold"], 0.0)
        self._gap(errors, "threshold_row.max_s", res["threshold_row"]["max_s"], werner(res["threshold"]))

    def _lhv_exhaustive(self, spec, report, workdir, errors):
        res = report["results"]
        _close(errors, "classical_bound", res["classical_bound"], 2.0, 0.0)
        want = [p[0] * (p[2] + p[3]) + p[1] * (p[2] - p[3]) for p in map(pattern, range(16))]
        if [float(v) for v in res["pattern_values"]] != want:
            errors.append(f"pattern_values {res['pattern_values']!r}, oracle {want!r}")
        labels = ["".join("+" if v > 0 else "-" for v in pattern(i)) for i in range(16)]
        if res["pattern_labels"] != labels:
            errors.append(f"pattern_labels {res['pattern_labels']!r}, oracle {labels!r}")

    def _lhv(self, spec, report, workdir, errors):
        res, e = report["results"], lhv_table(spec["weights"])
        _close_table(errors, "exact_table", res["exact_table"], e)
        _close(errors, "s_value", res["s_value"], chsh(e), CORRELATOR_TOL)
        if spec.get("trials") is not None:
            self._estimate(spec, res["estimate"], e, workdir, errors)

    def _sample(self, spec, report, workdir, errors):
        res, p = report["results"], spec["p"]
        e = singlet_family_table(p, _vectors(report["inputs"]["settings"], errors))
        _close_table(errors, "exact_table", res["exact_table"], e)
        _close(errors, "exact_s", res["exact_s"], 2.0 * math.sqrt(2.0) * p, CORRELATOR_TOL)
        self._estimate(spec, res["estimate"], e, workdir, errors)

    def _estimate(self, spec, est, e, workdir, errors):
        n, counts = spec["trials"], est["counts"]
        if not (len(counts) == 4 and all(isinstance(c, int) and c >= 0 for c in counts) and sum(counts) == n):
            errors.append(f"counts {counts!r} do not sum to {n}")
            return
        table = _table(est["table"])
        _close(errors, "s_estimate", est["s_estimate"], chsh(table), 1e-12)
        if min(counts) == 0:
            errors.append(f"a setting pair received no trials: counts {counts!r}")
            return
        se = math.sqrt(sum((1.0 - x * x) / c for x, c in zip(e.ravel(), counts)))
        _close(errors, "s_estimate", est["s_estimate"], chsh(e), max(SAMPLE_Z * se, 1e-12))
        if spec["log"] is not None:
            errors.extend(check_trial_log(workdir / spec["log"], n))


def check_trial_log(path: Path, n: int) -> list[str]:
    """A trial log holds the header and then ``n`` rows numbered 0 to n-1."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"no trial log: {exc}"]
    errors = []
    if not data.startswith(TRIAL_LOG_HEADER):
        errors.append(f"trial log header {data[:60]!r}")
    lines = data.count(b"\n")
    if lines != n + 1 or not data.endswith(b"\n"):
        errors.append(f"trial log has {lines} lines, expected {n + 1}")
    elif not data[data.rfind(b"\n", 0, -1) + 1:].startswith(f"{n - 1},".encode()):
        errors.append("last trial log row is not numbered n-1")
    return errors
