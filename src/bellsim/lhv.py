"""Local hidden-variable side of the CHSH analysis.

Hidden variables live on a finite, explicit space: each label carries a
probability weight and four predetermined outcomes (A1, A2, B1, B2), each +1
or -1. A's responses never reference B's setting choice and vice versa, so
locality is structural. Any distribution over deterministic strategies is
equivalent, for CHSH statistics, to a mixture of the 16 sign patterns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .chsh import CorrelatorTable, chsh_value

WEIGHT_SUM_TOL = 1e-12

#: The 16 deterministic response patterns (A1, A2, B1, B2), indexed so that
#: bit 3..0 of the index select the sign of A1, A2, B1, B2 (0 -> +1, 1 -> -1).
RESPONSE_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(
    tuple(1 - 2 * ((i >> k) & 1) for k in (3, 2, 1, 0)) for i in range(16)
)


def pattern_label(responses: Sequence[int]) -> str:
    return "".join("+" if v > 0 else "-" for v in responses)


@dataclass(frozen=True)
class LhvModel:
    """Finite hidden-variable space: labels, probability weights, responses."""

    labels: tuple[str, ...]
    weights: tuple[float, ...]
    responses: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("model needs at least one hidden-variable label")
        if not len(self.labels) == len(self.weights) == len(self.responses):
            raise ValueError("labels, weights and responses must have equal length")
        if not all(w >= 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative numbers")
        total = math.fsum(self.weights)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        for resp in self.responses:
            if len(resp) != 4 or any(v not in (1, -1) for v in resp):
                raise ValueError(f"responses must be four values in {{+1, -1}}, got {resp!r}")

    @classmethod
    def deterministic(cls, responses: Sequence[int]) -> "LhvModel":
        """Single hidden variable with the given (A1, A2, B1, B2) outcomes."""
        resp = tuple(int(v) for v in responses)
        return cls(labels=(pattern_label(resp),), weights=(1.0,), responses=(resp,))

    @classmethod
    def from_pattern_weights(cls, weights: Sequence[float]) -> "LhvModel":
        """Mixture over the 16 deterministic patterns in RESPONSE_PATTERNS order."""
        if len(weights) != 16:
            raise ValueError(f"need 16 pattern weights, got {len(weights)}")
        return cls(
            labels=tuple(pattern_label(p) for p in RESPONSE_PATTERNS),
            weights=tuple(float(w) for w in weights),
            responses=RESPONSE_PATTERNS,
        )

    @classmethod
    def uniform16(cls) -> "LhvModel":
        return cls.from_pattern_weights([1.0 / 16.0] * 16)


def lhv_correlators_exact(m: LhvModel) -> CorrelatorTable:
    """Exact correlators: weighted sums of A_j(lambda) * B_k(lambda)."""
    resp = np.array(m.responses, dtype=float)
    w = np.array(m.weights)
    a, b = resp[:, :2], resp[:, 2:]
    e = np.einsum("l,lj,lk->jk", w, a, b)
    return CorrelatorTable(
        e11=float(e[0, 0]), e12=float(e[0, 1]), e21=float(e[1, 0]), e22=float(e[1, 1])
    )


def bell_operator_integrand(m: LhvModel, lambda_index: int) -> float:
    """A1*(B1 + B2) + A2*(B1 - B2) at one hidden variable; always +2 or -2."""
    if not 0 <= lambda_index < len(m.responses):
        raise ValueError(f"lambda index {lambda_index} out of range for {len(m.responses)} labels")
    a1, a2, b1, b2 = m.responses[lambda_index]
    return float(a1 * (b1 + b2) + a2 * (b1 - b2))


def deterministic_chsh_values() -> tuple[float, ...]:
    """CHSH value of every deterministic pattern, in RESPONSE_PATTERNS order."""
    return tuple(chsh_value(lhv_correlators_exact(LhvModel.deterministic(p))) for p in RESPONSE_PATTERNS)


def classical_bound_exhaustive() -> float:
    """Max |S| over all 16 deterministic patterns; equals 2 exactly.

    Mixtures cannot do better: S is linear in the weights, so its extrema over
    the probability simplex sit at the deterministic vertices.
    """
    return max(abs(s) for s in deterministic_chsh_values())


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One experimental run: chosen settings (1 or 2 each) and +-1 outcomes."""

    trial_index: int
    a_setting: int
    b_setting: int
    a_outcome: int
    b_outcome: int


@dataclass(frozen=True)
class EstimatedTable:
    """Correlators estimated from finite statistics.

    ``counts`` and ``std_errors`` follow the (11, 12, 21, 22) entry order of
    the table; each standard error is sqrt((1 - e^2)/n), infinite when a
    setting pair received no trials.
    """

    table: CorrelatorTable
    counts: tuple[int, int, int, int]
    std_errors: tuple[float, float, float, float]

    @property
    def s_estimate(self) -> float:
        return chsh_value(self.table)

    @property
    def s_std_error(self) -> float:
        """Combined standard error of S, added in quadrature."""
        return math.sqrt(sum(se * se for se in self.std_errors))


def _estimate(a_set: np.ndarray, b_set: np.ndarray, a_out: np.ndarray, b_out: np.ndarray) -> EstimatedTable:
    prod = (a_out * b_out).astype(float)
    entries, counts, errors = [], [], []
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        mask = (a_set == j) & (b_set == k)
        n = int(mask.sum())
        if n == 0:
            e, se = 0.0, math.inf
        else:
            e = float(prod[mask].mean())
            se = math.sqrt(max(1.0 - e * e, 0.0) / n)
        entries.append(e)
        counts.append(n)
        errors.append(se)
    return EstimatedTable(
        table=CorrelatorTable(*entries),
        counts=tuple(counts),
        std_errors=tuple(errors),
    )


def estimate_from_records(records: Iterable[TrialRecord]) -> EstimatedTable:
    """Recompute the estimated table from a trial log."""
    rows = [(r.a_setting, r.b_setting, r.a_outcome, r.b_outcome) for r in records]
    if not rows:
        raise ValueError("cannot estimate correlators from an empty trial log")
    arr = np.array(rows)
    return _estimate(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def _make_records(a_set: np.ndarray, b_set: np.ndarray, a_out: np.ndarray, b_out: np.ndarray) -> list[TrialRecord]:
    return [
        TrialRecord(i, aj, bk, ao, bo)
        for i, (aj, bk, ao, bo) in enumerate(
            zip(a_set.tolist(), b_set.tolist(), a_out.tolist(), b_out.tolist())
        )
    ]


def sample_lhv_experiment(
    m: LhvModel, n_trials: int, seed: int
) -> tuple[EstimatedTable, list[TrialRecord]]:
    """Simulate ``n_trials`` runs of the hidden-variable model.

    Per trial a fresh hidden variable is drawn from the model's weights and
    the two setting indices are drawn uniformly, independently of it and of
    each other. The stream contract for a given seed is: one PCG64 generator
    (numpy ``default_rng``), consumed in the order lambda indices, A settings,
    B settings, each as one vectorized draw.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    lam = rng.choice(len(m.responses), size=n_trials, p=np.array(m.weights))
    a_set = rng.integers(1, 3, size=n_trials)
    b_set = rng.integers(1, 3, size=n_trials)
    resp = np.array(m.responses)
    a_out = resp[lam, a_set - 1]
    b_out = resp[lam, b_set + 1]
    return _estimate(a_set, b_set, a_out, b_out), _make_records(a_set, b_set, a_out, b_out)


def sample_quantum_experiment(
    e_table: CorrelatorTable, n_trials: int, seed: int
) -> tuple[EstimatedTable, list[TrialRecord]]:
    """Simulate trials whose joint outcome law is P(a,b) = (1 + a*b*e_jk)/4.

    This is the unique pair law with the given correlators and unbiased
    single-party outcomes, so it applies to states whose one-party
    expectations vanish (singlet and Werner states qualify). Stream contract
    per seed (PCG64, vectorized draws in order): A settings, B settings,
    A outcomes, correlation coin.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    a_set = rng.integers(1, 3, size=n_trials)
    b_set = rng.integers(1, 3, size=n_trials)
    a_out = 2 * rng.integers(0, 2, size=n_trials) - 1
    coin = rng.random(n_trials)
    e_grid = np.array([[e_table.e11, e_table.e12], [e_table.e21, e_table.e22]])
    e_per_trial = e_grid[a_set - 1, b_set - 1]
    same = coin < (1.0 + e_per_trial) / 2.0
    b_out = np.where(same, a_out, -a_out)
    return _estimate(a_set, b_set, a_out, b_out), _make_records(a_set, b_set, a_out, b_out)


TRIAL_LOG_HEADER = ("trial", "a_setting", "b_setting", "a_outcome", "b_outcome")


def write_trial_log(records: Iterable[TrialRecord], stream: IO[str]) -> None:
    """Write records as CSV: one row per trial, settings in {1,2}, outcomes in {+1,-1}."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRIAL_LOG_HEADER)
    for r in records:
        writer.writerow((r.trial_index, r.a_setting, r.b_setting, r.a_outcome, r.b_outcome))
