"""Local hidden-variable side of the CHSH analysis.

A local model is 16 probability weights, one per deterministic response
pattern (A1, A2, B1, B2) of +1/-1 values. Fine (Phys. Rev. Lett. 48, 291,
1982) showed that every local model of the CHSH statistics is such a
mixture. A's outcome never references B's setting choice and vice versa, so
locality is structural.
"""

from __future__ import annotations

import math
from typing import IO, TYPE_CHECKING, Sequence

from .chsh import CorrelatorTable, chsh_value
from .linalg import Record

if TYPE_CHECKING:
    import numpy as np

WEIGHT_SUM_TOL = 1e-12

#: The 16 deterministic response patterns (A1, A2, B1, B2), indexed so that
#: bit 3..0 of the index select the sign of A1, A2, B1, B2 (0 -> +1, 1 -> -1).
RESPONSE_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(
    tuple(1 - 2 * ((i >> k) & 1) for k in (3, 2, 1, 0)) for i in range(16)
)

#: Each pattern as four signs, e.g. "+-+-" for (1, -1, 1, -1), in RESPONSE_PATTERNS order.
PATTERN_LABELS: tuple[str, ...] = tuple("".join("+" if v > 0 else "-" for v in p) for p in RESPONSE_PATTERNS)


class LhvModel(Record):
    """A mixture of the 16 deterministic patterns: one weight each, in RESPONSE_PATTERNS order."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[float, ...]) -> None:
        if len(weights) != 16:
            raise ValueError(f"need 16 pattern weights, got {len(weights)}")
        # Checked before the sum: math.fsum overflows on weights such as 1e308 + 1e308.
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise ValueError("weights must be nonnegative numbers of at most 1")
        total = math.fsum(weights)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def deterministic(cls, pattern: Sequence[int]) -> "LhvModel":
        """All weight on one pattern, given as its (A1, A2, B1, B2) outcomes."""
        pattern = tuple(pattern)
        if pattern not in RESPONSE_PATTERNS:
            raise ValueError(f"{pattern!r} is not one of the 16 patterns of four +1/-1 values")
        return cls.from_pattern_weights([float(p == pattern) for p in RESPONSE_PATTERNS])

    @classmethod
    def from_pattern_weights(cls, weights: Sequence[float]) -> "LhvModel":
        """The model with these 16 weights, each converted to float."""
        return cls(weights=tuple(float(w) for w in weights))

    @classmethod
    def uniform16(cls) -> "LhvModel":
        return cls.from_pattern_weights([1.0 / 16.0] * 16)


def lhv_correlators_exact(m: LhvModel) -> CorrelatorTable:
    """Exact correlators: weighted sums of A_j * B_k over the patterns, in RESPONSE_PATTERNS order."""
    pairs = list(zip(m.weights, RESPONSE_PATTERNS))
    return CorrelatorTable(*(sum((w * r[j] * r[k] for w, r in pairs), 0.0) for j in (0, 1) for k in (2, 3)))


def deterministic_chsh_values() -> tuple[float, ...]:
    """CHSH value of every deterministic pattern, in RESPONSE_PATTERNS order."""
    return tuple(chsh_value(lhv_correlators_exact(LhvModel.deterministic(p))) for p in RESPONSE_PATTERNS)


def classical_bound_exhaustive() -> float:
    """Max |S| over all 16 deterministic patterns; equals 2 exactly.

    Mixtures cannot do better: S is linear in the weights, so its extrema over
    the probability simplex sit at the deterministic vertices.
    """
    return max(abs(s) for s in deterministic_chsh_values())


#: Largest trial count the samplers accept. Every trial stays in memory, and
#: a CLI run peaked at about 20 bytes per trial above the 35 MB of ``sample``
#: at one trial, numpy loaded (235 MB for 1e7 trials of ``sample``, 207 MB for
#: ``lhv --preset uniform16``), so the largest run needs about 2 GB. Larger
#: counts are refused before any draw.
MAX_TRIALS = 10**8


def _all_in(column: np.ndarray, allowed: tuple[int, int]) -> bool:
    return bool(((column == allowed[0]) | (column == allowed[1])).all())


class TrialLog(Record):
    """Sampled trials as four int8 columns; trial ``i`` is row ``i``.

    A log equals another log holding the same trials in the same order; logs
    are unhashable.
    """

    __slots__ = ("a_setting", "b_setting", "a_outcome", "b_outcome")

    def __init__(self, a_setting: np.ndarray, b_setting: np.ndarray, a_outcome: np.ndarray,
                 b_outcome: np.ndarray) -> None:
        import numpy as np
        cols = [np.asarray(c) for c in (a_setting, b_setting, a_outcome, b_outcome)]
        if not all(c.ndim == 1 and len(c) == len(cols[0]) for c in cols):
            raise ValueError("trial log columns must be 1-D and of equal length")
        if not (all(_all_in(c, (1, 2)) for c in cols[:2]) and all(_all_in(c, (1, -1)) for c in cols[2:])):
            raise ValueError("trial log settings must be 1 or 2 and outcomes +1 or -1")
        for name, c in zip(self.__slots__, cols):
            object.__setattr__(self, name, c.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.a_setting)

    def __eq__(self, other) -> bool:
        import numpy as np
        if isinstance(other, TrialLog):
            return all(map(np.array_equal, self._values(), other._values()))
        return NotImplemented


class EstimatedTable(Record):
    """Correlators estimated from finite statistics.

    ``counts`` and ``std_errors`` follow the (11, 12, 21, 22) entry order of
    the table; each standard error is sqrt((1 - e^2)/n), infinite when a
    setting pair received no trials.
    """

    __slots__ = ("table", "counts", "std_errors")

    def __init__(self, table: CorrelatorTable, counts: tuple[int, int, int, int],
                 std_errors: tuple[float, float, float, float]) -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "std_errors", std_errors)

    @property
    def s_estimate(self) -> float:
        return chsh_value(self.table)

    @property
    def s_std_error(self) -> float:
        """Combined standard error of S, added in quadrature."""
        return math.sqrt(sum(se * se for se in self.std_errors))


def estimate_from_records(log: TrialLog) -> EstimatedTable:
    """Estimate the correlator table from a non-empty :class:`TrialLog`."""
    import numpy as np
    if not len(log):
        raise ValueError("cannot estimate correlators from an empty trial log")
    # One tally over 8 bins: the setting pair 2*(j-1) + (k-1), plus 4 when the outcomes agree.
    same = (log.a_outcome == log.b_outcome).view(np.int8)
    tally = np.bincount(4 * same + 2 * (log.a_setting - 1) + (log.b_setting - 1), minlength=8).reshape(2, 4)
    counts = tuple(tally.sum(axis=0).tolist())
    entries, errors = [], []
    for n, n_same in zip(counts, tally[1].tolist()):
        # Exact integers divided once, as in the mean of the +-1 products; a pair with no trials gives 0 +- inf.
        e = (2 * n_same - n) / n if n else 0.0
        entries.append(e)
        errors.append(math.sqrt(max(1.0 - e * e, 0.0) / n) if n else math.inf)
    return EstimatedTable(table=CorrelatorTable(*entries), counts=counts, std_errors=tuple(errors))


def _check_trials(n_trials: int) -> None:
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n_trials}")


def sample_lhv_experiment(m: LhvModel, n_trials: int, seed: int) -> tuple[EstimatedTable, TrialLog]:
    """Simulate ``n_trials`` runs of the hidden-variable model.

    Per trial a fresh pattern is drawn from the model's weights and the two
    setting indices are drawn uniformly, independently of it and of each
    other. The stream contract for a given seed is: one PCG64 generator
    (numpy ``default_rng``), consumed in the order pattern indices, A settings,
    B settings, each as one vectorized draw. ``n_trials`` must lie in
    ``[1, MAX_TRIALS]``. Returns the estimate and the trials as a
    :class:`TrialLog`.
    """
    import numpy as np
    _check_trials(n_trials)
    rng = np.random.default_rng(seed)
    lam = rng.choice(16, size=n_trials, p=np.array(m.weights))
    a_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    b_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    resp = np.array(RESPONSE_PATTERNS, dtype=np.int8)
    a_out, b_out = resp[lam, a_set - 1], resp[lam, b_set + 1]
    del lam  # 8 B per trial, which the estimate would hold on to
    log = TrialLog(a_set, b_set, a_out, b_out)
    return estimate_from_records(log), log


def sample_quantum_experiment(
    e_table: CorrelatorTable, n_trials: int, seed: int
) -> tuple[EstimatedTable, TrialLog]:
    """Simulate trials whose joint outcome law is P(a,b) = (1 + a*b*e_jk)/4.

    This is the unique pair law with the given correlators and unbiased
    single-party outcomes, so it applies to states whose one-party
    expectations vanish (singlet and Werner states qualify). Stream contract
    per seed (PCG64, vectorized draws in order): A settings, B settings,
    A outcomes, correlation coin. ``n_trials`` must lie in
    ``[1, MAX_TRIALS]``. Returns the estimate and the trials as a
    :class:`TrialLog`.
    """
    import numpy as np
    _check_trials(n_trials)
    rng = np.random.default_rng(seed)
    a_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    b_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    a_out = 2 * rng.integers(0, 2, size=n_trials).astype(np.int8) - 1
    p_same = (1.0 + np.array([[e_table.e11, e_table.e12], [e_table.e21, e_table.e22]])) / 2.0
    same = rng.random(n_trials) < p_same[a_set - 1, b_set - 1]
    log = TrialLog(a_set, b_set, a_out, np.where(same, a_out, -a_out))
    return estimate_from_records(log), log


TRIAL_LOG_HEADER = ("trial", "a_setting", "b_setting", "a_outcome", "b_outcome")

_BLOCK = 10**4


def write_trial_log(log: TrialLog, stream: IO[str]) -> None:
    """Write trials as CSV: a header, then one row per trial numbered from 0.

    The rows are formatted in blocks of 10^4 trials as byte arrays with NUL
    padding, then the NULs are dropped. In the block starting at trial
    ``h * 10^4`` every index is ``str(h)`` followed by the four digits of the
    low part, zero-padded unless ``h`` is 0, where the leading zeros are
    blanked to NUL instead.
    """
    import numpy as np
    # Row tails ",j,k,x,y\n" as NUL-padded bytes, indexed by 8*(j-1) + 4*(k-1) + 2*(x<0) + (y<0).
    tails = [f",{j},{k},{x},{y}\n".encode() for j in (1, 2) for k in (1, 2) for x in (1, -1) for y in (1, -1)]
    row_tails = np.array(tails, dtype="S11").view(np.uint8).reshape(16, 11)
    low = np.arange(_BLOCK)[:, None]
    place = np.array([1000, 100, 10, 1])
    padded = (low // place % 10 + ord("0")).astype(np.uint8)
    unpadded = np.where((low < place) & (place > 1), 0, padded).astype(np.uint8)
    stream.write(",".join(TRIAL_LOG_HEADER) + "\n")
    for start in range(0, len(log), _BLOCK):
        a_set, b_set, a_out, b_out = (c[start:start + _BLOCK] for c in log._values())
        code = 8 * (a_set - 1) + 4 * (b_set - 1) + 2 * (a_out < 0) + (b_out < 0)
        high = np.frombuffer(str(start // _BLOCK).encode() if start else b"", np.uint8)
        rows = np.hstack([
            np.broadcast_to(high, (len(code), len(high))),
            (padded if start else unpadded)[:len(code)],
            row_tails[code],
        ])
        stream.write(rows[rows != 0].tobytes().decode("ascii"))
