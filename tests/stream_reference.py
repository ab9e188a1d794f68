"""The samplers' stream contract as reference rebuilds of their trials.

Each sampler's docstring lists the draws it makes from its one
``default_rng(seed)`` generator, as numpy calls and as arithmetic on the
generator's raw 64-bit words. :func:`lhv_draws` and :func:`quantum_draws`
rebuild a run's :class:`~bellsim.lhv.TrialLog` from exactly those numpy calls;
:func:`lhv_words` and :func:`quantum_words` rebuild its four columns from the
words of :mod:`pcg64_reference`. numpy and the samplers' ``bellsim.lhv`` are
imported only inside the numpy-call rebuilds, so the word rebuilds run where
numpy is not installed.
"""

import math
from itertools import accumulate

from bellsim.patterns import RESPONSE_PATTERNS
from pcg64_reference import MASK32, PCG64

#: The pattern weights, as ``lhv --weights`` takes them, of the model the golden, block, entry-point and
#: import tests run: five patterns at dyadic weights, which sum to exactly 1.
WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]


def _generator(seed: int):
    """The generator ``default_rng(seed)`` builds, built directly so that the ``generators`` spy does not count it."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(seed))


def lhv_draws(weights: list[float], n: int, seed: int):
    """The LHV sampler's :class:`~bellsim.lhv.TrialLog` of ``n`` trials at pattern ``weights``, from its numpy calls."""
    import numpy as np
    from bellsim.lhv import TrialLog

    rng = _generator(seed)
    lam = rng.choice(16, size=n, p=np.array(weights))
    a_set, b_set = rng.integers(1, 3, size=n), rng.integers(1, 3, size=n)
    resp = np.array(RESPONSE_PATTERNS)
    return TrialLog(a_set, b_set, resp[lam, a_set - 1], resp[lam, b_set + 1])


def quantum_draws(table, n: int, seed: int):
    """The quantum sampler's :class:`~bellsim.lhv.TrialLog` of ``n`` trials at ``table``, from its numpy calls."""
    import numpy as np
    from bellsim.lhv import TrialLog

    rng = _generator(seed)
    a_set, b_set = rng.integers(1, 3, size=n), rng.integers(1, 3, size=n)
    a_out = 2 * rng.integers(0, 2, size=n) - 1
    e = np.array([[table.e11, table.e12], [table.e21, table.e22]])
    same = rng.random(n) < (1.0 + e[a_set - 1, b_set - 1]) / 2.0
    return TrialLog(a_set, b_set, a_out, np.where(same, a_out, -a_out))


def top_bits(words: list[int]) -> list[int]:
    """The top bit of each 32-bit half of ``words``, low half first: ``integers(0, 2)`` and
    ``integers(1, 3)`` less their offset."""
    return [half >> 31 for w in words for half in (w & MASK32, w >> 32)]


def lhv_words(weights, n: int, seed: int) -> tuple[list[int], ...]:
    """The LHV sampler's columns (A and B settings, A and B outcomes) of ``n`` trials at a model's
    pattern ``weights``, from the raw words as its docstring states them."""
    words = PCG64(seed).random_raw(2 * n)
    cdf = list(accumulate(weights))
    cdf = [c / cdf[-1] for c in cdf]
    lam = [sum(c <= (w >> 11) * 2.0**-53 for c in cdf) for w in words[:n]]
    bits = top_bits(words[n:])
    a_set, b_set = [1 + b for b in bits[:n]], [1 + b for b in bits[n:]]
    a_out = [RESPONSE_PATTERNS[i][j - 1] for i, j in zip(lam, a_set)]
    b_out = [RESPONSE_PATTERNS[i][k + 1] for i, k in zip(lam, b_set)]
    return a_set, b_set, a_out, b_out


def quantum_words(table, n: int, seed: int) -> tuple[list[int], ...]:
    """The quantum sampler's columns (A and B settings, A and B outcomes) of ``n`` trials at
    ``table``, from the raw words as its docstring states them."""
    first = math.ceil(3 * n / 2)  # the coins take whole words, after the halves of the first three draws
    words = PCG64(seed).random_raw(first + n)
    bits = top_bits(words[:first])
    a_set, b_set = [1 + b for b in bits[:n]], [1 + b for b in bits[n:2 * n]]
    a_out = [2 * b - 1 for b in bits[2 * n:3 * n]]
    e = [[table.e11, table.e12], [table.e21, table.e22]]
    same = [(w >> 11) < (1.0 + e[j - 1][k - 1]) * 2.0**52 for w, j, k in zip(words[first:], a_set, b_set)]
    b_out = [a if s else -a for a, s in zip(a_out, same)]
    return a_set, b_set, a_out, b_out
