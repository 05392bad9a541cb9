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
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox4x32", "uniform_pair_block"]

_M0, _M1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)  # round multipliers
_W0, _W1 = 0x9E3779B9, 0xBB67AE85  # Weyl increments of the key schedule
_MASK32 = 0xFFFFFFFF


def _halves(words):
    """Views of the (high, low) 32-bit halves of a contiguous '<u8' array."""
    pairs = words.view("<u4")
    return pairs[1::2], pairs[::2]


def philox4x32(seed, event_indices, cursors):
    """The Philox4x32-10 block of each lane, as uint64 arrays of its words
    w0:w1 and w2:w3 in the shape of ``cursors``.  ``event_indices`` has that
    shape too, or one element for every lane; neither array is written.

    Each round writes the products M1 x2 and M0 x0 into fresh 64-bit
    buffers: a product's low half is the round's new x1 (or x3), and its
    high half, xored in place, the new x0 (or x2).  So the last round's
    buffers are the output words, high word first.
    """
    shape = np.shape(cursors)
    x1, x0 = _halves(np.ascontiguousarray(cursors, dtype="<u8").reshape(-1))
    x3, x2 = _halves(np.ascontiguousarray(event_indices, dtype="<u8").reshape(-1))
    k0, k1 = int(seed) & _MASK32, int(seed) >> 32
    buffers = [[np.empty(x0.size, dtype="<u8") for _ in range(2)] for _ in range(2)]
    for r in range(10):
        # (x0, x1, x2, x3) <- (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0))
        w01, w23 = buffers[r % 2]
        np.multiply(x2, _M1, out=w01)
        np.multiply(x0, _M0, out=w23)
        (y0, y1), (y2, y3) = _halves(w01), _halves(w23)
        for y, x, k in ((y0, x1, k0), (y2, x3, k1)):
            np.bitwise_xor(y, x, out=y)
            np.bitwise_xor(y, np.uint32(k), out=y)
        x0, x1, x2, x3 = y0, y1, y2, y3
        k0, k1 = (k0 + _W0) & _MASK32, (k1 + _W1) & _MASK32
    return w01.reshape(shape), w23.reshape(shape)


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
