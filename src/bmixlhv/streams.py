"""Counter-based random streams: one independent substream per event.

The generator is philox4x64-10 (Salmon et al.'s counter-based design),
implemented directly on numpy uint64 arrays.  The key holds the user seed;
the counter holds (block cursor, 0, event index, 0).  Because every event
owns its own counter lane, any contiguous partition of the event range
across workers reproduces the exact same draws, which is what makes batch
generation byte-identical regardless of worker count.

Each 256-bit block yields two double-precision uniforms (words 0 and 1,
top 53 bits each); the remaining words are discarded for simplicity.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox4x64", "uniform_pair_block"]

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)  # Weyl increments of the key schedule
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

# 32-bit halves of the round multipliers
_M0_LO, _M0_HI = _M0 & _MASK32, _M0 >> _SHIFT32
_M1_LO, _M1_HI = _M1 & _MASK32, _M1 >> _SHIFT32

_U53_SHIFT = np.uint64(11)
_U53_SCALE = 2.0**-53


def _mulhi(x, m_lo, m_hi, out, a, b, t):
    """High word of the 128-bit products x * m for the constant m = m_hi 2^32 + m_lo.

    Writes into ``out`` and uses ``a``, ``b``, ``t`` as scratch; ``x`` is
    only read.  Each partial sum below is at most (2^32-1)^2 + 2^32-1, so no
    add can wrap (Hacker's Delight, mulhu).
    """
    np.bitwise_and(x, _MASK32, out=a)  # x_lo
    np.multiply(a, m_lo, out=t)
    np.right_shift(t, _SHIFT32, out=t)
    np.right_shift(x, _SHIFT32, out=b)  # x_hi
    np.multiply(b, m_lo, out=out)
    np.add(out, t, out=out)  # mid = x_hi m_lo + (x_lo m_lo >> 32)
    np.bitwise_and(out, _MASK32, out=t)
    np.right_shift(out, _SHIFT32, out=out)
    np.multiply(a, m_hi, out=a)
    np.add(a, t, out=a)
    np.right_shift(a, _SHIFT32, out=a)
    np.multiply(b, m_hi, out=b)
    np.add(out, b, out=out)
    np.add(out, a, out=out)
    return out


def philox4x64(key0, key1, c0, c1, c2, c3):
    """Run the ten philox4x64 rounds; returns the four output words.

    All operands are promoted to uint64 (wrapping arithmetic on arrays is
    silent, unlike numpy scalars) and broadcast against each other, so
    callers can pass a mix of scalars and arrays.  The rounds run in place
    on buffers of the broadcast shape; the caller's arrays are never
    written.
    """
    k0 = np.array(key0, dtype=np.uint64, ndmin=1)
    k1 = np.array(key1, dtype=np.uint64, ndmin=1)
    words = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(k0.shape, k1.shape, *(w.shape for w in words))
    x0, x1, x2, x3 = (np.broadcast_to(w, shape).copy() for w in words)
    spare, a, b, t = (np.empty(shape, dtype=np.uint64) for _ in range(4))
    for _ in range(_ROUNDS):
        # (x0, x1, x2, x3) <- (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0))
        h0 = _mulhi(x0, _M0_LO, _M0_HI, spare, a, b, t)
        np.bitwise_xor(h0, x3, out=h0)
        np.bitwise_xor(h0, k1, out=h0)
        np.multiply(x0, _M0, out=x3)
        h1 = _mulhi(x2, _M1_LO, _M1_HI, x0, a, b, t)  # lo(M0 x0) is in x3: x0 is free
        np.bitwise_xor(h1, x1, out=h1)
        np.bitwise_xor(h1, k0, out=h1)
        np.multiply(x2, _M1, out=x1)
        x0, x2, spare = h1, h0, x2
        np.add(k0, _W0, out=k0)
        np.add(k1, _W1, out=k1)
    return x0, x1, x2, x3


def _to_uniform(word):
    # top 53 bits -> [0, 1); consumes ``word``
    np.right_shift(word, _U53_SHIFT, out=word)
    u = word.astype(np.float64)
    u *= _U53_SCALE
    return u


def uniform_pair_block(seed, event_indices, cursors):
    """One (u_a, u_b) uniform pair per event at the given cursor positions."""
    w0, w1, _, _ = philox4x64(seed, 0, cursors, 0, event_indices, 0)
    return _to_uniform(w0), _to_uniform(w1)
