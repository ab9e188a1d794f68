"""PCG64 and numpy's ``SeedSequence`` in the Python standard library only.

``PCG64(seed).random_raw(n)`` gives the first ``n`` raw 64-bit words of
``numpy.random.PCG64(seed)``, which ``numpy.random.default_rng(seed)`` wraps,
without numpy's code on the path. It is the reference against which the
seeded trial logs are rebuilt bit for bit.

- :class:`SeedSequence` is numpy's port of O'Neill's ``seed_seq_fe``: the
  seed's 32-bit words are hashed into a pool of 4 words, every pool word is
  mixed into every other, and the pool is hashed out to the words asked for.
- :class:`PCG64` is the 128-bit linear congruential generator with the
  XSL-RR output (O'Neill, *PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation*,
  HMC-CS-2014-0905, 2014), seeded from 4 words of the sequence as numpy
  seeds it: the first two the initial state, the last two the stream.
"""

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16

#: The multiplier of PCG64's 128-bit LCG.
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> list[int]:
    """A non-negative integer as 32-bit words, least significant first; 0 is one word."""
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


def _mix(x: int, y: int) -> int:
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ (result >> XSHIFT)


class SeedSequence:
    """The entropy pool that numpy's ``SeedSequence(seed)`` holds for an integer seed."""

    def __init__(self, seed: int) -> None:
        self._hash_const = INIT_A
        entropy = _words32(seed)
        pool = [self._hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
        for src in range(POOL_SIZE):
            for dst in range(POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], self._hashmix(pool[src]))
        for word in entropy[POOL_SIZE:]:
            for dst in range(POOL_SIZE):
                pool[dst] = _mix(pool[dst], self._hashmix(word))
        self.pool = pool

    def _hashmix(self, value: int) -> int:
        value ^= self._hash_const
        self._hash_const = self._hash_const * MULT_A & MASK32
        value = value * self._hash_const & MASK32
        return value ^ (value >> XSHIFT)

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` 64-bit words, each from two 32-bit outputs, low half first."""
        hash_const, out = INIT_B, []
        for i in range(2 * n_words):
            value = self.pool[i % POOL_SIZE] ^ hash_const
            hash_const = hash_const * MULT_B & MASK32
            value = value * hash_const & MASK32
            out.append(value ^ (value >> XSHIFT))
        return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class PCG64:
    """The generator of ``numpy.random.PCG64(seed)``: ``state`` and ``inc`` as numpy reports them."""

    def __init__(self, seed: int) -> None:
        s_hi, s_lo, i_hi, i_lo = SeedSequence(seed).generate_state(4)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        self.state = 0
        self._step()
        self.state = (self.state + (s_hi << 64 | s_lo)) & MASK128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * MULTIPLIER + self.inc) & MASK128

    def next64(self) -> int:
        """Advance once, then output the XOR of the state's halves rotated right by its top 6 bits."""
        self._step()
        rot, x = self.state >> 122, ((self.state >> 64) ^ self.state) & MASK64
        return (x >> rot | x << (64 - rot)) & MASK64

    def random_raw(self, n: int) -> list[int]:
        return [self.next64() for _ in range(n)]
