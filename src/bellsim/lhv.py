"""Local hidden-variable side of the CHSH analysis.

A local model is 16 probability weights, one per deterministic response
pattern (A1, A2, B1, B2) of +1/-1 values. Fine (Phys. Rev. Lett. 48, 291,
1982) showed that every local model of the CHSH statistics is such a
mixture. A's outcome never references B's setting choice and vice versa, so
locality is structural.

The patterns, the models and their exact correlators are defined in
:mod:`bellsim.patterns`, from which ``bellsim`` names them, and re-exported
here. This module adds the seeded samplers, the estimate and the trial log,
which only ``sample`` and ``lhv --trials`` load; it imports numpy as it loads.
"""

from __future__ import annotations

import math

import numpy as np

from .patterns import (
    PATTERN_LABELS,
    RESPONSE_PATTERNS,
    LhvModel,
    classical_bound_exhaustive,
    deterministic_chsh_values,
    lhv_correlators_exact,
)
from .record import Record
from .states import MAX_TRIALS, CorrelatorTable, chsh_value

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import IO


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


def _codes(log: TrialLog) -> np.ndarray:
    """Each trial's row code ``4 * pair + 2 * (a < 0) + (b < 0)``, where the setting pair (j, k) is
    2*(j-1) + (k-1), its place in the (11, 12, 21, 22) order of a table."""
    return 8 * log.a_setting + 4 * log.b_setting - 12 + (1 - log.a_outcome) + (1 - log.b_outcome) // 2


def _estimate(tally: np.ndarray) -> EstimatedTable:
    """The estimate from the 16-bin tally of the row codes."""
    bins = tally.reshape(4, 4).tolist()
    counts = tuple(sum(row) for row in bins)
    entries, errors = [], []
    for n, (same_plus, _, _, same_minus) in zip(counts, bins):
        # Exact integers divided once (the mean of the +-1 products, so |e| <= 1); a pair with no trials gives 0 +- inf.
        e = (2 * (same_plus + same_minus) - n) / n if n else 0.0
        entries.append(e)
        errors.append(math.sqrt((1.0 - e * e) / n) if n else math.inf)
    return EstimatedTable(table=CorrelatorTable(*entries), counts=counts, std_errors=tuple(errors))


def estimate_from_records(log: TrialLog) -> EstimatedTable:
    """Estimate the correlator table from a non-empty :class:`TrialLog`."""
    if not len(log):
        raise ValueError("cannot estimate correlators from an empty trial log")
    # Tallied a block at a time: np.bincount casts its input to 8-byte indices.
    return _tally(_split(log))


#: Trials per block: the samplers draw, tally and write one block at a time, all but the last of exactly this size.
#: It is one formatting block of the trial log, whose indices share all digits above the last four; and a block's
#: largest array, 8 B per trial, stays under glibc's 128 KiB mmap threshold, so the blocks reuse the same heap
#: pages: at 6 * 10^4 a 3e5-trial draw took 1,860 fresh pages (about 2 ms) against 460 here.
_BLOCK = 10**4


def _split(log: TrialLog):
    """The row codes of ``log`` in blocks of ``_BLOCK`` trials."""
    codes = _codes(log)
    return (codes[i:i + _BLOCK] for i in range(0, len(codes), _BLOCK))


def _top_bits(words: np.ndarray) -> np.ndarray:
    """The top bit of each 32-bit half of ``words``, low half first, as uint8."""
    return (words.astype("<u8", copy=False).view("<u4") >> 31).astype(np.uint8)


def _blocks(seed: int, n: int, rule, words: list[int], halves: list[int]):
    """The int8 row codes of ``n`` trials, a block at a time, from the raw words of ``default_rng(seed)``.

    ``rule`` maps a block to its row codes, given the raw words from each word offset in ``words`` and then
    the top bits of the 32-bit halves from each half offset in ``halves``. The block starting at trial
    ``start`` reads each offset plus ``start`` from the generator reset to its seeded state, so a block is
    fixed by the seed, ``n`` and ``start`` alone.
    """
    if not 1 <= n <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n}")
    bit_gen = np.random.default_rng(seed).bit_generator
    seeded = bit_gen.state

    def read(word: int, count: int) -> np.ndarray:
        """``count`` raw words from word ``word`` of the seeded stream."""
        bit_gen.state = seeded
        return bit_gen.advance(word).random_raw(count)

    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        firsts = [h + start for h in halves]
        yield rule(*[read(w + start, size) for w in words],
                   *[_top_bits(read(h // 2, (h % 2 + size + 1) // 2))[h % 2:][:size] for h in firsts])


def _lhv_codes(m: LhvModel, n_trials: int, seed: int):
    """The row codes of :func:`sample_lhv_experiment`, a block at a time."""
    cdf = np.array(m.weights).cumsum()
    cdf /= cdf[-1]

    def rule(words, a_bit, b_bit):
        u = (words >> 11) * 2.0**-53
        lam = np.zeros(len(u), dtype=np.uint8)
        for c in cdf:  # searchsorted(side="right") of a non-decreasing cdf, in 16 passes
            lam += c <= u
        # Bits 3..0 of a pattern index are the signs of A1, A2, B1, B2 (RESPONSE_PATTERNS).
        a_neg, b_neg = (lam >> (3 - a_bit)) & 1, (lam >> (1 - b_bit)) & 1
        return (8 * a_bit + 4 * b_bit + 2 * a_neg + b_neg).view(np.int8)

    return _blocks(seed, n_trials, rule, [0], [2 * n_trials, 3 * n_trials])


def _quantum_codes(e_table: CorrelatorTable, n_trials: int, seed: int):
    """The row codes of :func:`sample_quantum_experiment`, a block at a time."""
    thresholds = (1.0 + np.array([e_table.e11, e_table.e12, e_table.e21, e_table.e22])) * 2.0**52

    def rule(coins, a_bit, b_bit, a_plus):
        pair = 2 * a_bit + b_bit
        a_neg, same = 1 - a_plus, (coins >> 11) < thresholds.take(pair)
        return (4 * pair + 2 * a_neg + (a_neg ^ ~same)).view(np.int8)

    n = n_trials
    return _blocks(seed, n, rule, [(3 * n + 1) // 2], [0, n, 2 * n])


def _tally(blocks) -> EstimatedTable:
    """The estimate of the trials whose row codes ``blocks`` yields, tallied a block at a time."""
    tally = np.zeros(16, dtype=np.int64)
    for codes in blocks:
        tally += np.bincount(codes, minlength=16)
    return _estimate(tally)


def _experiment(blocks) -> tuple[EstimatedTable, TrialLog]:
    kept = list(blocks)
    codes = np.concatenate(kept)
    return _tally(kept), TrialLog(1 + (codes >> 3), 1 + ((codes >> 2) & 1), 1 - (codes & 2), 1 - 2 * (codes & 1))


def sample_lhv_experiment(m: LhvModel, n_trials: int, seed: int) -> tuple[EstimatedTable, TrialLog]:
    """Simulate ``n_trials`` runs of the hidden-variable model.

    Per trial a fresh pattern is drawn from the model's weights and the two
    setting indices are drawn uniformly, independently of it and of each
    other. The stream contract for a given seed is one PCG64 generator
    (numpy ``default_rng``): the trials are those of three vectorized draws,
    in this order:

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
    settings. The trials are computed from these words a block at a time.
    ``n_trials`` must lie in ``[1, MAX_TRIALS]``. Returns the estimate and the
    trials as a :class:`TrialLog`.
    """
    return _experiment(_lhv_codes(m, n_trials, seed))


def sample_quantum_experiment(
    e_table: CorrelatorTable, n_trials: int, seed: int
) -> tuple[EstimatedTable, TrialLog]:
    """Simulate trials whose joint outcome law is P(a,b) = (1 + a*b*e_jk)/4.

    This is the unique pair law with the given correlators and unbiased
    single-party outcomes, so it applies to states whose one-party
    expectations vanish (singlet and Werner states qualify). The stream
    contract for a given seed is one PCG64 generator (numpy ``default_rng``):
    the trials are those of four vectorized draws, in this order:

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
    halves. The trials are computed from these words a block at a time.
    ``n_trials`` must lie in ``[1, MAX_TRIALS]``. Returns the estimate and the
    trials as a :class:`TrialLog`.
    """
    return _experiment(_quantum_codes(e_table, n_trials, seed))


TRIAL_LOG_HEADER = ("trial", "a_setting", "b_setting", "a_outcome", "b_outcome")


def _logged(blocks, stream: IO[bytes]):
    """The row-code blocks of ``blocks``, each written to ``stream`` as the rows of the next trials before it is
    passed on; the header is written before the first block is drawn. Every block but the last holds ``_BLOCK``
    trials, so block ``k`` is the formatting block of the trials from ``k * _BLOCK``."""
    # Row tails ",j,k,x,y\n" as NUL-padded bytes, indexed by the row code.
    tails = [f",{j},{k},{x},{y}\n".encode() for j in (1, 2) for k in (1, 2) for x in (1, -1) for y in (1, -1)]
    row_tails = np.array(tails, dtype="S11")
    low = np.arange(_BLOCK)[:, None]
    place = np.array([1000, 100, 10, 1])
    padded = (low // place % 10 + ord("0")).astype(np.uint8)
    unpadded = np.where((low < place) & (place > 1), 0, padded).astype(np.uint8)
    padded, unpadded = padded.view("S4")[:, 0], unpadded.view("S4")[:, 0]
    stream.write(",".join(TRIAL_LOG_HEADER).encode() + b"\n")
    for high, codes in enumerate(blocks):
        prefix = str(high).encode() if high else b""
        rows = np.empty(len(codes), dtype=[("high", f"S{len(prefix) or 1}"), ("low", "S4"), ("tail", "S11")])
        rows["high"] = prefix
        rows["low"] = (padded if high else unpadded)[:len(codes)]
        rows["tail"] = row_tails.take(codes)
        stream.write(rows.tobytes().translate(None, b"\0"))
        yield codes


def write_trial_log(log: TrialLog, stream: IO[bytes]) -> None:
    """Write trials as ASCII CSV to a binary stream: a header, then one row per trial numbered from 0.

    The rows are formatted in blocks of 10^4 trials as NUL-padded records of
    three byte-string fields, then the NULs are dropped. In the block
    starting at trial ``h * 10^4`` every index is ``str(h)`` followed by the
    four digits of the low part, zero-padded unless ``h`` is 0, where the
    leading zeros are blanked to NUL instead.
    """
    for _ in _logged(_split(log), stream):
        pass
