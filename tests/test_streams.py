"""Counter-based stream tests, anchored to Random123's known-answer vectors
and to the Python-int Philox4x32-10 reference in ``tests/oracles.py``."""

import numpy as np
import pytest

from bmixlhv.streams import philox4x32, uniform_pair_block
from oracles import EventStream, philox4x32_reference

_MASK32 = 0xFFFFFFFF
_TOP = 2**64 - 1


def _kernel_words(key, counter):
    """The four 32-bit words the package kernel emits for a (k0, k1) key and
    a (c0, c1, c2, c3) counter: the seed is k1:k0, the cursor c1:c0 and the
    event index c3:c2."""
    seed = key[1] << 32 | key[0]
    cursor = counter[1] << 32 | counter[0]
    index = counter[3] << 32 | counter[2]
    w01, w23 = (int(w) for w in philox4x32(seed, np.uint64(index), np.uint64(cursor)))
    return w01 >> 32, w01 & _MASK32, w23 >> 32, w23 & _MASK32


# Random123's kat_vectors for philox4x32_10: (key, counter, output words)
@pytest.mark.parametrize("key,counter,words", [
    ((0, 0), (0, 0, 0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((_MASK32, _MASK32), (_MASK32,) * 4, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0xA4093822, 0x299F31D0), (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
])
def test_known_answer_vectors(key, counter, words):
    assert philox4x32_reference(key, counter) == words
    assert _kernel_words(key, counter) == words


@pytest.mark.parametrize(
    "key,counter",
    [
        ((0, 0), (1, 0, 0, 0)),
        ((0, 0), (2, 0, 0, 0)),
        ((1, 0), (1, 0, 0, 0)),
        ((0xDEADBEEF, 0xFACE), (1, 0, 42, 0)),
        # an event index of 2^32 and more, and a cursor of 2^32
        ((20260814, 0), (17, 0, 999_983, 1)),
        ((_MASK32, 2**31), (0, 1, _MASK32 - 1, _MASK32)),
        # a seed, cursor or event index of 2^64 - 1 on its own
        ((_MASK32, _MASK32), (0, 0, 0, 0)),
        ((0, 0), (_MASK32, _MASK32, 0, 0)),
        ((0, 0), (0, 0, _MASK32, _MASK32)),
    ],
)
def test_block_matches_the_reference(key, counter):
    assert _kernel_words(key, counter) == philox4x32_reference(key, counter)


def test_vector_counters_match_scalar_blocks():
    # one call with an array counter lane == many scalar calls
    cursors = np.arange(1, 33, dtype=np.uint64)
    words = philox4x32(7, 5, cursors)
    for i, c in enumerate(cursors):
        single = philox4x32(7, 5, c)
        assert [int(w[i]) for w in words] == [int(w) for w in single]


@pytest.mark.parametrize("lanes", [1, 7, 70_000])
def test_array_lanes_match_the_reference(lanes):
    # every lane has its own random event index and cursor, all 64 bits
    rng = np.random.default_rng(lanes)
    seed = int(rng.integers(0, 2**64, dtype=np.uint64))
    index, cursor = rng.integers(0, 2**64, size=(2, lanes), dtype=np.uint64)
    w01, w23 = philox4x32(seed, index, cursor)
    assert w01.shape == w23.shape == (lanes,)
    key = (seed & _MASK32, seed >> 32)
    for lane in range(lanes):
        i, c = int(index[lane]), int(cursor[lane])
        want = philox4x32_reference(key, (c & _MASK32, c >> 32, i & _MASK32, i >> 32))
        got = (int(w01[lane]) >> 32, int(w01[lane]) & _MASK32,
               int(w23[lane]) >> 32, int(w23[lane]) & _MASK32)
        assert got == want, f"lane {lane}"


def test_uniforms_are_the_top_53_bits_of_the_words():
    rng = np.random.default_rng(8)
    index, cursor = rng.integers(0, 2**64, size=(2, 1000), dtype=np.uint64)
    w01, w23 = philox4x32(2**64 - 3, index, cursor)
    u_a, u_b = uniform_pair_block(2**64 - 3, index, cursor)
    assert np.array_equal(u_a * 2.0**53, (w01 >> np.uint64(11)).astype(np.float64))
    assert np.array_equal(u_b * 2.0**53, (w23 >> np.uint64(11)).astype(np.float64))


def _reference_words(seed, index, cursor):
    key = (seed & _MASK32, seed >> 32)
    return philox4x32_reference(key, (cursor & _MASK32, cursor >> 32, index & _MASK32, index >> 32))


@pytest.mark.parametrize("index", [np.uint64(_TOP), np.array([_TOP], dtype=np.uint64)])
def test_a_2d_cursor_array_with_one_event_index(index):
    rng = np.random.default_rng(6)
    cursor = rng.integers(0, 2**64, size=(3, 5), dtype=np.uint64)
    cursor[0, 0] = _TOP
    w01, w23 = philox4x32(_TOP, index, cursor)
    assert w01.shape == w23.shape == (3, 5)
    for (j, m), c in np.ndenumerate(cursor):
        got = (int(w01[j, m]) >> 32, int(w01[j, m]) & _MASK32,
               int(w23[j, m]) >> 32, int(w23[j, m]) & _MASK32)
        assert got == _reference_words(_TOP, _TOP, int(c)), (j, m)


def test_kernel_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(5)
    index, cursor = rng.integers(0, 2**64, size=(2, 100), dtype=np.uint64)
    index_before, cursor_before = index.copy(), cursor.copy()
    philox4x32(3, index, cursor)
    uniform_pair_block(9, index, cursor)
    assert np.array_equal(index, index_before) and np.array_equal(cursor, cursor_before)


@pytest.mark.parametrize("shape", [(100,), (4, 25)])
def test_kernel_returns_fresh_arrays(shape):
    rng = np.random.default_rng(5)
    index, cursor = rng.integers(0, 2**64, size=(2, *shape), dtype=np.uint64)
    before = index.copy(), cursor.copy()
    for lane_index in (index, index.reshape(-1)[:1]):
        w01, w23 = philox4x32(3, lane_index, cursor)
        arrays = (w01, w23, index, cursor)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])
        w01[...] = w23[...] = 0
    assert np.array_equal(index, before[0]) and np.array_equal(cursor, before[1])


def test_uniform_pair_block_range_and_determinism():
    idx = np.arange(10_000, dtype=np.uint64)
    cur = np.zeros_like(idx)
    u_a, u_b = uniform_pair_block(3, idx, cur)
    for u in (u_a, u_b):
        assert u.shape == idx.shape
        assert np.all(u >= 0.0) and np.all(u < 1.0)
    again = uniform_pair_block(3, idx, cur)
    assert np.array_equal(u_a, again[0]) and np.array_equal(u_b, again[1])
    # a healthy generator should fill the unit interval roughly uniformly
    assert abs(u_a.mean() - 0.5) < 0.02
    assert abs(u_b.mean() - 0.5) < 0.02


def test_uniforms_resolve_53_bits():
    idx = np.arange(4096, dtype=np.uint64)
    u_a, _ = uniform_pair_block(11, idx, np.zeros_like(idx))
    back = u_a * 2.0**53
    assert np.array_equal(back, np.floor(back))  # exact multiples of 2^-53
    assert np.unique(u_a).size == idx.size


def test_distinct_lanes_are_distinct():
    idx = np.arange(256, dtype=np.uint64)
    u_seed3, _ = uniform_pair_block(3, idx, np.zeros_like(idx))
    u_seed4, _ = uniform_pair_block(4, idx, np.zeros_like(idx))
    assert not np.array_equal(u_seed3, u_seed4)
    u_cur0, _ = uniform_pair_block(3, idx, np.zeros_like(idx))
    u_cur1, _ = uniform_pair_block(3, idx, np.ones_like(idx))
    assert not np.array_equal(u_cur0, u_cur1)


def test_event_stream_walks_its_lane():
    # the scalar stream draws from the reference, the batch from the kernel
    for seed, event in ((3, 5), (2**64 - 1, 2**32 + 7)):
        stream = EventStream(seed=seed, event_index=event)
        pairs = [stream.next_pair() for _ in range(4)]
        assert stream.cursor == 4
        idx = np.full(4, event, dtype=np.uint64)
        cur = np.arange(4, dtype=np.uint64)
        u_a, u_b = uniform_pair_block(seed, idx, cur)
        assert [p[0] for p in pairs] == list(u_a)
        assert [p[1] for p in pairs] == list(u_b)


def test_event_stream_next_uniform_consumes_a_block():
    a = EventStream(seed=9, event_index=0)
    b = EventStream(seed=9, event_index=0)
    u = a.next_uniform()
    assert u == b.next_pair()[0]
    assert a.cursor == b.cursor == 1


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_event_stream_rejects_out_of_range_ids(bad):
    with pytest.raises(ValueError):
        EventStream(seed=bad, event_index=0)
    with pytest.raises(ValueError):
        EventStream(seed=0, event_index=bad)
