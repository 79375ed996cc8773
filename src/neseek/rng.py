"""The uniform draws of numpy's ``default_rng(seed)``, bit for bit, on Python
ints: ``SeedSequence(seed)``'s hash pool seeds a PCG64, a 128-bit LCG with
XSL-RR output (O'Neill 2014).  Importing numpy's ``random`` package would load
its extension modules and, through ``secrets`` and ``hmac``, OpenSSL.
"""

import operator

import numpy as np

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    # 32-bit words, least significant first; 0 is one word
    entropy = [seed >> k & M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        const, value = const * 0x931E8875 & M32, value ^ const
        value = value * const & M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, words = 0x8B51F9DD, []
    for i in range(8):
        const, value = const * 0x58F38DED & M32, pool[i % 4] ^ const
        value = value * const & M32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in (0, 2, 4, 6)]


class Generator:
    """numpy's ``default_rng(seed)`` stream; only ``uniform`` is drawn."""

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = (i0 << 64 | i1) << 1 & M128 | 1
        # PCG's srandom: one step from state 0, add the seed, one more step
        self._state = ((self._inc + (s0 << 64 | s1)) * PCG_MULT + self._inc) & M128

    def _next_uint64(self):
        self._state = state = (self._state * PCG_MULT + self._inc) & M128
        x, rot = (state >> 64 ^ state) & M64, state >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def uniform(self, low, high, size):
        """``low + (high - low) * u``, u on the 2**-53 grid of [0, 1)."""
        u = [self._next_uint64() >> 11 for _ in range(int(np.prod(size)))]
        return low + (high - low) * (np.array(u, dtype=np.float64).reshape(size) * 2.0**-53)
