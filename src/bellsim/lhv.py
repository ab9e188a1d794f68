"""Local hidden-variable side of the CHSH analysis.

A local model is 16 probability weights, one per deterministic response
pattern (A1, A2, B1, B2) of +1/-1 values. Fine (Phys. Rev. Lett. 48, 291,
1982) showed that every local model of the CHSH statistics is such a
mixture. A's outcome never references B's setting choice and vice versa, so
locality is structural.

The patterns, the models and their exact correlators are defined in
:mod:`bellsim.patterns` and re-exported here; this module adds the seeded
samplers, the estimate and the trial log, which only ``sample`` and
``lhv --trials`` load.
"""

from __future__ import annotations

import math

from .correlators import MAX_TRIALS, CorrelatorTable, chsh_value
from .patterns import (
    PATTERN_LABELS,
    RESPONSE_PATTERNS,
    LhvModel,
    classical_bound_exhaustive,
    deterministic_chsh_values,
    lhv_correlators_exact,
)
from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import IO

    import numpy as np


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


def _pair_index(a_setting, b_setting):
    """The setting pair (j, k) as 2*(j-1) + (k-1), its place in the (11, 12, 21, 22) order of a table."""
    return 2 * a_setting + b_setting - 3


def estimate_from_records(log: TrialLog) -> EstimatedTable:
    """Estimate the correlator table from a non-empty :class:`TrialLog`."""
    import numpy as np
    if not len(log):
        raise ValueError("cannot estimate correlators from an empty trial log")
    # One tally over 8 bins: the setting pair, plus 4 when the outcomes agree.
    same = (log.a_outcome == log.b_outcome).view(np.int8)
    tally = np.bincount(4 * same + _pair_index(log.a_setting, log.b_setting), minlength=8).reshape(2, 4)
    counts = tuple(tally.sum(axis=0).tolist())
    entries, errors = [], []
    for n, n_same in zip(counts, tally[1].tolist()):
        # Exact integers divided once (the mean of the +-1 products, so |e| <= 1); a pair with no trials gives 0 +- inf.
        e = (2 * n_same - n) / n if n else 0.0
        entries.append(e)
        errors.append(math.sqrt((1.0 - e * e) / n) if n else math.inf)
    return EstimatedTable(table=CorrelatorTable(*entries), counts=counts, std_errors=tuple(errors))


def _check_trials(n_trials: int) -> None:
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n_trials}")


def sample_lhv_experiment(m: LhvModel, n_trials: int, seed: int) -> tuple[EstimatedTable, TrialLog]:
    """Simulate ``n_trials`` runs of the hidden-variable model.

    Per trial a fresh pattern is drawn from the model's weights and the two
    setting indices are drawn uniformly, independently of it and of each
    other. The stream contract for a given seed is one PCG64 generator
    (numpy ``default_rng``) and three vectorized draws, in this order:

    - the pattern indices, ``rng.choice(16, size=n_trials, p=weights)``;
    - the A settings, ``rng.integers(1, 3, size=n_trials)``;
    - the B settings, likewise.

    The first is computed as numpy documents ``choice``: ``cdf =
    weights.cumsum(); cdf /= cdf[-1]``, and each index counts the ``cdf``
    entries at or below its ``rng.random()`` draw. In the generator's raw
    64-bit words ``w_0, w_1, ...`` (``rng.bit_generator.random_raw``), trial
    ``i`` draws ``u_i = (w_i >> 11) * 2**-53`` for its pattern, and the
    settings are ``1 + (h >> 31)`` for the 32-bit halves ``h`` of words ``n``
    to ``2n - 1``, low half first: the ``n`` A settings, then the ``n`` B
    settings. ``n_trials`` must lie in ``[1, MAX_TRIALS]``. Returns the
    estimate and the trials as a :class:`TrialLog`.
    """
    import numpy as np
    _check_trials(n_trials)
    rng = np.random.default_rng(seed)
    cdf = np.array(m.weights).cumsum()
    cdf /= cdf[-1]
    u = rng.random(n_trials)
    lam = np.zeros(n_trials, dtype=np.int8)
    for c in cdf:  # searchsorted(side="right") of a non-decreasing cdf, in 16 passes
        lam += c <= u
    del u  # 8 B per trial, freed before the settings are drawn
    a_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    b_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    # Bits 3..0 of a pattern index are the signs of A1, A2, B1, B2 (RESPONSE_PATTERNS).
    a_out = 1 - 2 * ((lam >> (4 - a_set)) & 1)
    b_out = 1 - 2 * ((lam >> (2 - b_set)) & 1)
    del lam  # 1 B per trial, which the estimate would hold on to
    log = TrialLog(a_set, b_set, a_out, b_out)
    return estimate_from_records(log), log


def sample_quantum_experiment(
    e_table: CorrelatorTable, n_trials: int, seed: int
) -> tuple[EstimatedTable, TrialLog]:
    """Simulate trials whose joint outcome law is P(a,b) = (1 + a*b*e_jk)/4.

    This is the unique pair law with the given correlators and unbiased
    single-party outcomes, so it applies to states whose one-party
    expectations vanish (singlet and Werner states qualify). The stream
    contract for a given seed is one PCG64 generator (numpy ``default_rng``)
    and four vectorized draws, in this order:

    - the A settings, ``rng.integers(1, 3, size=n_trials)``;
    - the B settings, likewise;
    - A's outcomes, ``2 * rng.integers(0, 2, size=n_trials) - 1``;
    - the correlation coin ``rng.random(n_trials) < (1 + e_jk)/2``; where
      it is true, B's outcome equals A's, otherwise it is the opposite.

    In the generator's raw 64-bit words ``w_0, w_1, ...``
    (``rng.bit_generator.random_raw``) with their 32-bit halves ``h_0, h_1,
    ...``, low half first, trial ``i`` of ``n`` has the A setting
    ``1 + (h_i >> 31)``, the B setting ``1 + (h_{n+i} >> 31)``, A's outcome
    ``2 * (h_{2n+i} >> 31) - 1`` and the coin ``(w_{m+i} >> 11) < (1 +
    e_jk) * 2**52`` with ``m = ceil(3n/2)``, the first whole word after the
    halves. ``n_trials`` must lie in ``[1, MAX_TRIALS]``. Returns the
    estimate and the trials as a :class:`TrialLog`.
    """
    import numpy as np
    _check_trials(n_trials)
    rng = np.random.default_rng(seed)
    a_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    b_set = rng.integers(1, 3, size=n_trials).astype(np.int8)
    a_out = 2 * rng.integers(0, 2, size=n_trials).astype(np.int8) - 1
    p_same = (1.0 + np.array([e_table.e11, e_table.e12, e_table.e21, e_table.e22])) / 2.0
    # Indexing, not take: take converts the int8 pair index to intp, 8 B more per trial.
    same = rng.random(n_trials) < p_same[_pair_index(a_set, b_set)]
    log = TrialLog(a_set, b_set, a_out, np.where(same, a_out, -a_out))
    return estimate_from_records(log), log


TRIAL_LOG_HEADER = ("trial", "a_setting", "b_setting", "a_outcome", "b_outcome")

_BLOCK = 10**4


def write_trial_log(log: TrialLog, stream: IO[bytes]) -> None:
    """Write trials as ASCII CSV to a binary stream: a header, then one row per trial numbered from 0.

    The rows are formatted in blocks of 10^4 trials as NUL-padded records of
    three byte-string fields, then the NULs are dropped. In the block
    starting at trial ``h * 10^4`` every index is ``str(h)`` followed by the
    four digits of the low part, zero-padded unless ``h`` is 0, where the
    leading zeros are blanked to NUL instead.
    """
    import numpy as np
    # Row tails ",j,k,x,y\n" as NUL-padded bytes, indexed by 4 * pair index + 2*(x<0) + (y<0).
    tails = [f",{j},{k},{x},{y}\n".encode() for j in (1, 2) for k in (1, 2) for x in (1, -1) for y in (1, -1)]
    row_tails = np.array(tails, dtype="S11")
    low = np.arange(_BLOCK)[:, None]
    place = np.array([1000, 100, 10, 1])
    padded = (low // place % 10 + ord("0")).astype(np.uint8)
    unpadded = np.where((low < place) & (place > 1), 0, padded).astype(np.uint8)
    padded, unpadded = padded.view("S4")[:, 0], unpadded.view("S4")[:, 0]
    stream.write(",".join(TRIAL_LOG_HEADER).encode() + b"\n")
    for start in range(0, len(log), _BLOCK):
        a_set, b_set, a_out, b_out = (c[start:start + _BLOCK] for c in log._values())
        code = 4 * _pair_index(a_set, b_set) + 2 * (a_out < 0) + (b_out < 0)
        high = str(start // _BLOCK).encode() if start else b""
        rows = np.empty(len(code), dtype=[("high", f"S{len(high) or 1}"), ("low", "S4"), ("tail", "S11")])
        rows["high"] = high
        rows["low"] = (padded if start else unpadded)[:len(code)]
        rows["tail"] = row_tails.take(code)
        stream.write(rows.tobytes().translate(None, b"\0"))
