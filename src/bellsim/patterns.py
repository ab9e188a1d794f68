"""Exact local hidden-variable models: the 16 deterministic response patterns,
mixtures of them, their correlators and the exhaustive classical bound.

The exact ``lhv`` commands load this module and not the samplers;
:mod:`bellsim.lhv` re-exports each name here and adds the seeded samplers,
the estimate and the trial log.
"""

from __future__ import annotations

import math

from .record import Record
from .states import CorrelatorTable, chsh_value

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import Sequence

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
        # A tuple of floats of its own: hashable, equal however it was given, and out of the caller's reach.
        weights = tuple(float(w) for w in weights)
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
        return cls(weights)

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
