"""Counter-based stream tests, anchored to numpy's Philox as the reference."""

import numpy as np
import pytest
from numpy.random import Philox

from bmixlhv.streams import philox4x64, uniform_pair_block
from oracles import EventStream


def _reference_block(key, counter):
    """The four raw words numpy's philox4x64-10 emits for this key/counter.

    numpy increments its 256-bit counter before producing a block, so the
    block labelled `counter` here comes out of numpy at counter - 1.
    """
    k = np.array([int(w) for w in key], dtype=np.uint64)
    value = (sum(int(w) << (64 * i) for i, w in enumerate(counter)) - 1) % 2**256
    c = np.array([(value >> (64 * i)) & (2**64 - 1) for i in range(4)], dtype=np.uint64)
    return Philox(key=k, counter=c).random_raw(4)


@pytest.mark.parametrize(
    "key,counter",
    [
        ((0, 0), (1, 0, 0, 0)),
        ((0, 0), (2, 0, 0, 0)),
        ((1, 0), (1, 0, 0, 0)),
        ((0xDEADBEEF, 0xFACE), (1, 0, 42, 0)),
        ((20260814, 0), (17, 0, 999_983, 0)),
        ((2**64 - 1, 2**63), (123456789, 0, 2**64 - 2, 0)),
    ],
)
def test_block_matches_numpy_philox(key, counter):
    ours = philox4x64(key[0], key[1], *counter)
    theirs = _reference_block(key, counter)
    assert [int(w[0]) for w in ours] == list(theirs)


def test_vector_counters_match_scalar_blocks():
    # one call with an array counter lane == many scalar calls
    c0 = np.arange(1, 33, dtype=np.uint64)
    words = philox4x64(7, 0, c0, 0, 5, 0)
    for i, c in enumerate(c0):
        single = philox4x64(7, 0, c, 0, 5, 0)
        assert [int(w[i]) for w in words] == [int(w[0]) for w in single]


@pytest.mark.parametrize("lanes", [1, 7, 70_000])
def test_array_lanes_match_numpy_philox(lanes):
    # every lane has its own random key and counter
    rng = np.random.default_rng(lanes)
    key = rng.integers(0, 2**64, size=(2, lanes), dtype=np.uint64)
    counter = rng.integers(0, 2**64, size=(4, lanes), dtype=np.uint64)
    ours = np.stack(philox4x64(*key, *counter))
    assert ours.shape == (4, lanes)
    for lane in range(lanes):
        theirs = _reference_block(key[:, lane], counter[:, lane])
        assert np.array_equal(ours[:, lane], theirs), f"lane {lane}"


def test_kernel_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(5)
    key = rng.integers(0, 2**64, size=(2, 100), dtype=np.uint64)
    counter = rng.integers(0, 2**64, size=(4, 100), dtype=np.uint64)
    key_before, counter_before = key.copy(), counter.copy()
    philox4x64(*key, *counter)
    assert np.array_equal(key, key_before) and np.array_equal(counter, counter_before)

    idx = np.arange(100, dtype=np.uint64)
    cursor = np.full(100, 3, dtype=np.uint64)
    uniform_pair_block(9, idx, cursor)
    assert np.array_equal(idx, np.arange(100)) and np.array_equal(cursor, np.full(100, 3))


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
    stream = EventStream(seed=3, event_index=5)
    pairs = [stream.next_pair() for _ in range(4)]
    assert stream.cursor == 4
    idx = np.full(4, 5, dtype=np.uint64)
    cur = np.arange(4, dtype=np.uint64)
    u_a, u_b = uniform_pair_block(3, idx, cur)
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
