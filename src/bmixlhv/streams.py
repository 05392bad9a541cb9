"""Counter-based random streams: one independent substream per event.

The generator is Philox4x32-10 (Salmon et al., SC'11) on numpy arrays.  The
key is the 64-bit seed and the counter the block cursor and the event index,
each split into 32-bit words low word first: key (seed lo, seed hi), counter
(cursor lo, cursor hi, index lo, index hi).  Because every event owns its
own counter lane, any contiguous partition of the event range across
workers reproduces the exact same draws, which is what makes batch
generation byte-identical regardless of worker count.

Each block yields two double-precision uniforms, ``u_a`` from words w0:w1
and ``u_b`` from w2:w3, each pair read as one 64-bit integer, high word
first, and cut to its top 53 bits.  No word is discarded.

The kernel holds the state as two 64-bit words, A = x0:x1 and B = x2:x3,
each starting as its input word with the halves swapped.  The 32-bit round
(x0, x1, x2, x3) <- (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1,
lo(M0 x0)) is then A' = M1 (B >> 32) ^ ((A ^ k0) << 32) and B' = M0 (A >> 32)
^ ((B ^ k1) << 32), since a 64-bit product of 32-bit words is exactly hi:lo
and the shifted term is (x1 ^ k0):0.  The last round's A and B are the
output words.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox4x32", "uniform_pair_block"]

_M0, _M1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)  # round multipliers
_W0, _W1 = 0x9E3779B9, 0xBB67AE85  # Weyl increments of the key schedule
_MASK32 = 0xFFFFFFFF
_32 = np.uint64(32)


def philox4x32(seed, event_indices, cursors):
    """The Philox4x32-10 block of each lane, as fresh uint64 arrays of its
    words w0:w1 and w2:w3 in the shape of ``cursors``.  ``event_indices`` has
    that shape too, or one element for every lane; neither array is written.
    """
    shape = np.shape(cursors)
    cursors = np.asarray(cursors, dtype=np.uint64).reshape(-1)
    index = np.asarray(event_indices, dtype=np.uint64).reshape(-1)
    a, b, s, t = (np.empty(cursors.size, dtype=np.uint64) for _ in range(4))
    for word, out in ((cursors, a), (index, b)):  # swap the halves
        np.left_shift(word, _32, out=out)
        np.right_shift(word, _32, out=s)
        out |= s
    k0, k1 = int(seed) & _MASK32, int(seed) >> 32
    for _ in range(10):
        np.right_shift(b, _32, out=s)
        s *= _M1
        np.bitwise_xor(a, np.uint64(k0), out=t)
        t <<= _32
        s ^= t  # A'
        np.right_shift(a, _32, out=t)
        t *= _M0
        np.bitwise_xor(b, np.uint64(k1), out=a)
        a <<= _32
        t ^= a  # B'
        a, b, s, t = s, t, a, b
        k0, k1 = (k0 + _W0) & _MASK32, (k1 + _W1) & _MASK32
    return a.reshape(shape), b.reshape(shape)


def _to_uniform(word):
    # top 53 bits -> [0, 1); consumes ``word``
    np.right_shift(word, np.uint64(11), out=word)
    u = word.astype(np.float64)
    u *= 2.0**-53
    return u


def uniform_pair_block(seed, event_indices, cursors):
    """One (u_a, u_b) uniform pair per event at the given cursor positions."""
    w01, w23 = philox4x32(seed, event_indices, cursors)
    return _to_uniform(w01), _to_uniform(w23)
