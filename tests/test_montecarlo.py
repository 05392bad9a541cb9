"""Generator tests: bit-exact reproducibility, stream partitioning, and
agreement of the sampled distributions with quadrature of the model laws."""

import contextlib
import dataclasses
import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bmixlhv import model, montecarlo, streams
from bmixlhv.model import Flavour, ModelParams
from bmixlhv.montecarlo import (
    GENERATE_BLOCK_EVENTS,
    WRITE_CHUNK_ROWS,
    EventBatch,
    EventFileError,
    RejectionOverflowError,
    RngStats,
    SimConfig,
    config_fingerprint,
    generate,
    generate_events,
    read_events,
    write_event_columns,
    write_events,
)
from bmixlhv.streams import uniform_pair_block
from oracles import (
    EventStream,
    event_file_rows,
    inverse_n_exact,
    sample_lambda,
    sample_side1,
    sample_side2,
    side2_bin_probability,
    side2_particle_probability,
)

TWO_PI = 2.0 * math.pi
EVENT_BATCH_COLUMNS = ("index", "lam", "t1", "flavour1", "t2", "flavour2", "swapped")


def _config(n=1000, seed=77, symmetrized=False, tau=1.0, dm=0.776):
    return SimConfig(
        params=ModelParams(tau=tau, delta_m=dm),
        n_events=n,
        seed=seed,
        symmetrized=symmetrized,
    )


# ---------------------------------------------------------------------------
# determinism and stream partitioning

def test_generation_is_deterministic():
    cfg = _config(n=500)
    assert generate(cfg) == generate(cfg)


def test_contiguous_ranges_partition_the_stream():
    cfg = _config(n=400)
    whole = generate_events(cfg, 0, 400)
    for start, stop in ((0, 137), (137, 400)):
        part = generate_events(cfg, start, stop)
        for name in EVENT_BATCH_COLUMNS:
            assert np.array_equal(getattr(part, name), getattr(whole, name)[start:stop])


def test_worker_count_does_not_change_the_batch():
    cfg = _config(n=997)  # prime, so the split bounds are ragged
    ref = generate(cfg, workers=1)
    for workers in (2, 3, 8):
        assert generate(cfg, workers=workers) == ref


@pytest.mark.parametrize("tau", [1.5, 1e300])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_physical_tau_scales_the_lifetime_unit_stream(tau, symmetrized):
    # generate samples at (1, x) and multiplies the decay times by tau, so a
    # physical tau moves no other column, flag or count
    physical = _config(n=3001, seed=19, symmetrized=symmetrized, tau=tau, dm=0.776 / tau)
    batch = generate(physical, workers=2)
    lifetimes = generate(_config(n=3001, seed=19, symmetrized=symmetrized,
                                 dm=physical.params.x))
    assert batch.config == physical
    assert batch.rng_stats == lifetimes.rng_stats
    for name in EVENT_BATCH_COLUMNS:
        expected = getattr(lifetimes, name)
        if name in ("t1", "t2"):
            expected = expected * tau
        assert np.array_equal(getattr(batch, name), expected)
    assert np.isfinite(batch.t1).all() and np.isfinite(batch.t2).all()


def test_blocks_reassemble_the_whole_range():
    # two full generation blocks and a partial third
    cfg = _config(n=2 * GENERATE_BLOCK_EVENTS + 7, seed=11, symmetrized=True)
    whole = generate_events(cfg, 0, cfg.n_events)
    for workers in (1, 2, 3):
        batch = generate(cfg, workers=workers)
        assert batch == whole
        assert batch.rng_stats == whole.rng_stats
        for name in EVENT_BATCH_COLUMNS:
            assert getattr(batch, name).dtype == getattr(whole, name).dtype


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_memory_does_not_grow_with_n(workers):
    """Peak traced memory beyond the result's own columns stays flat from
    4 to 16 generation blocks; it once grew by about 167 bytes per event.
    Two workers' temporaries peak together in some runs of 2 blocks and
    apart in others, a 2 MiB swing; from 4 blocks on they always overlap."""
    excess = {}
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            batch = generate(_config(n=blocks * GENERATE_BLOCK_EVENTS), workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        excess[blocks] = peak - sum(getattr(batch, name).nbytes for name in EVENT_BATCH_COLUMNS)
    growth_per_event = (excess[16] - excess[4]) / (12 * GENERATE_BLOCK_EVENTS)
    assert growth_per_event < 8.0, excess


@pytest.mark.parametrize("x", [1e-2, 1e3])
def test_extreme_x_runs_in_bounded_memory(x):
    """The ends of the supported x range generate with a few MiB of
    temporaries (a tabulated phase density once needed gigabytes at
    x = 1e3) and accept phases at the envelope rate 2/pi."""
    n = 20_000
    tracemalloc.start()
    try:
        batch = generate(_config(n=n, seed=41, dm=x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    excess = peak - sum(getattr(batch, name).nbytes for name in EVENT_BATCH_COLUMNS)
    assert excess < 6 * 2**20, excess
    p = 2.0 / math.pi
    sigma = p * math.sqrt((1.0 - p) / n)
    assert abs(batch.rng_stats.lambda_acceptance_rate - p) < 5.0 * sigma


def test_scalar_samplers_reproduce_the_batch_columns():
    for symmetrized in (False, True):
        cfg = _config(n=5, seed=2024, symmetrized=symmetrized)
        batch = generate(cfg)
        for i in range(5):
            stream = EventStream(seed=cfg.seed, event_index=i)
            lam = sample_lambda(stream, cfg.params)
            t1, f1, coin = sample_side1(stream, lam, cfg.params)
            t2, f2 = sample_side2(stream, lam, cfg.params)
            # the coin is u_b of the t1 pair; below 1/2 the sides swap
            swapped = symmetrized and coin < 0.5
            if swapped:
                t1, f1, t2, f2 = t2, f2, t1, f1
            assert lam == batch.lam[i]
            assert t1 == batch.t1[i] and int(f1) == batch.flavour1[i]
            assert t2 == batch.t2[i] and int(f2) == batch.flavour2[i]
            assert swapped == batch.swapped[i]
    # the symmetrized batch has swapped and unswapped events
    assert 0 < batch.swapped.sum() < len(batch)


def test_generate_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        generate(_config(n=10), workers=0)


# ---------------------------------------------------------------------------
# sampled distributions vs quadrature

def test_column_invariants(big_batch):
    assert np.all((big_batch.lam >= 0.0) & (big_batch.lam < TWO_PI))
    assert np.all(big_batch.t1 >= 0.0) and np.all(big_batch.t2 >= 0.0)
    assert set(np.unique(big_batch.flavour1)) == {1, 2}
    assert set(np.unique(big_batch.flavour2)) == {1, 2}
    assert not big_batch.swapped.any()
    assert np.array_equal(big_batch.index, np.arange(len(big_batch)))


def test_acceptance_rates_match_envelope_geometry(big_batch):
    """Both rejection stages accept at rate 2/pi: the phase stage by the
    envelope area, the time stage because the mean number of proposals is
    tau/N-bar with the harmonic mean fixed by the phase density."""
    stats = big_batch.rng_stats
    assert stats is not None
    assert abs(stats.lambda_acceptance_rate - 2.0 / math.pi) < 0.002
    assert abs(stats.t2_acceptance_rate - 2.0 / math.pi) < 0.002
    assert stats.lambda_proposals > len(big_batch)
    assert stats.t2_proposals > len(big_batch)


def test_phase_histogram_matches_density(big_batch, params):
    edges = np.linspace(0.0, TWO_PI, 33)
    counts, _ = np.histogram(big_batch.lam, bins=edges)
    n = len(big_batch)
    chi2 = 0.0
    for j in range(32):
        p, err = integrate.quad(
            lambda l: inverse_n_exact(l, params.delta_m) / 4.0,
            edges[j],
            edges[j + 1],
            epsabs=1e-12,
            epsrel=1e-10,
        )
        expected = n * p
        chi2 += (counts[j] - expected) ** 2 / expected
    assert chi2 / 31.0 < 1.8


def test_first_side_time_is_exponential(big_batch):
    n = len(big_batch)
    assert abs(big_batch.t1.mean() - 1.0) < 4.0 / math.sqrt(n)
    # time-integrated first-side flavour is an even split
    p_b0 = np.mean(big_batch.flavour1 == int(Flavour.B0))
    assert abs(p_b0 - 0.5) < 4.0 * 0.5 / math.sqrt(n)


def _side2_draws(lam, params, n, seed=555):
    """The first n (time, flavour code) draws of :func:`sample_side2` on the
    stream of event 0, vectorized.  The scalar rejection loop consumes
    consecutive blocks of that stream, so thinning one long run of blocks
    and keeping the first n accepted draws gives the same draws."""
    k = 2 * n  # the acceptance at fixed phase is well above 1/2
    u_a, u_b = uniform_pair_block(seed, np.zeros(k, dtype=np.uint64), np.arange(k, dtype=np.uint64))
    t = -params.tau * np.log1p(-u_a)
    c = np.cos(lam - params.delta_m * t)
    accept = u_b < np.abs(c)
    assert accept.sum() >= n
    codes = np.where(c > 0.0, int(Flavour.B0), int(Flavour.B0BAR))
    return t[accept][:n], codes[accept][:n]


def test_vectorized_side2_draws_match_the_scalar_loop(params):
    lam = 1.0
    times, codes = _side2_draws(lam, params, 200)
    stream = EventStream(seed=555, event_index=0)
    for i in range(200):
        t, fl = sample_side2(stream, lam, params)
        assert t == times[i] and int(fl) == codes[i]


def test_second_side_time_density_at_fixed_phase(params):
    """Hold the hidden phase at lam=1 and check the thinned-cosine time law
    against bin probabilities computed from exact antiderivatives."""
    lam = 1.0
    n = 20_000
    times, codes = _side2_draws(lam, params, n)
    pick_b0 = int(np.count_nonzero(codes == int(Flavour.B0)))

    edges = np.linspace(0.0, 4.0, 17)
    counts, _ = np.histogram(times, bins=edges)
    probs = [
        side2_bin_probability(lam, float(lo), float(hi), params.delta_m)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    tail = 1.0 - sum(probs)
    counts = np.append(counts, n - counts.sum())
    probs.append(tail)
    expected = n * np.asarray(probs)
    assert expected.min() > 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 / 16.0 < 1.8

    p_b0 = side2_particle_probability(lam, params.delta_m)
    se = math.sqrt(p_b0 * (1.0 - p_b0) / n)
    assert abs(pick_b0 / n - p_b0) < 4.0 * se


def test_second_side_flavour_tracks_cosine_sign(big_batch, params):
    # reconstruct the sign of cos(lam - dm t2) and compare with the tag
    c = np.cos(big_batch.lam - params.delta_m * big_batch.t2)
    want = np.where(c > 0.0, int(Flavour.B0), int(Flavour.B0BAR))
    assert np.array_equal(big_batch.flavour2, want)


def test_first_side_flavour_is_the_window(big_batch, params):
    from bmixlhv.model import flavour_window_codes

    codes = flavour_window_codes(big_batch.lam, big_batch.t1, params)
    assert np.array_equal(big_batch.flavour1, codes)


# ---------------------------------------------------------------------------
# symmetrized mode

def test_symmetrized_swaps_are_bookkept():
    std = generate(_config(n=100_000, seed=3141))
    sym = generate(_config(n=100_000, seed=3141, symmetrized=True))
    frac = sym.swapped.mean()
    assert abs(frac - 0.5) < 4.0 * 0.5 / math.sqrt(len(sym))
    keep = ~sym.swapped
    assert np.array_equal(sym.lam, std.lam)  # the coin is drawn after the phase
    assert np.array_equal(sym.t1[keep], std.t1[keep])
    assert np.array_equal(sym.flavour2[keep], std.flavour2[keep])
    sw = sym.swapped
    assert np.array_equal(sym.t1[sw], std.t2[sw])
    assert np.array_equal(sym.t2[sw], std.t1[sw])
    assert np.array_equal(sym.flavour1[sw], std.flavour2[sw])
    assert np.array_equal(sym.flavour2[sw], std.flavour1[sw])


@settings(max_examples=25)
@given(seed=st.integers(0, 2**64 - 1), x=st.sampled_from([0.01, 0.776, 5.0, 1000.0]))
def test_symmetrizing_only_swaps_the_sides(seed, x):
    # the coin is the spare u_b of the t1 pair, so it costs no draw: the
    # phase, both proposal counts and the unordered times stay as they are
    plain = generate(_config(n=200, seed=seed, dm=x))
    sym = generate(_config(n=200, seed=seed, dm=x, symmetrized=True))
    assert np.array_equal(sym.lam, plain.lam)
    assert sym.rng_stats == plain.rng_stats
    sw = sym.swapped
    assert np.array_equal(np.where(sw, sym.t2, sym.t1), plain.t1)
    assert np.array_equal(np.where(sw, sym.t1, sym.t2), plain.t2)
    assert np.array_equal(np.where(sw, sym.flavour2, sym.flavour1), plain.flavour1)
    assert np.array_equal(np.where(sw, sym.flavour1, sym.flavour2), plain.flavour2)


def test_symmetrizing_preserves_lag_histograms():
    """Swapping sides changes neither |t1-t2| nor the same/opposite class, so
    a same-seed symmetrized run has the identical lag histogram — which is
    why two-sample comparisons must use independent seeds."""
    from bmixlhv.analysis import bin_events

    std = generate(_config(n=50_000, seed=99))
    sym = generate(_config(n=50_000, seed=99, symmetrized=True))
    edges = np.linspace(0.0, 5.0, 26)
    a = bin_events(std, edges)
    b = bin_events(sym, edges)
    assert np.array_equal(a.counts_same, b.counts_same)
    assert np.array_equal(a.counts_opposite, b.counts_opposite)


# ---------------------------------------------------------------------------
# event file round trip

# sha256 of events.csv for n=2000, seed=20260814, keyed by (x, symmetrized).
# Any change to the event bytes must be deliberate: bump the generator
# version and update these digests together.
GOLDEN_EVENT_FILE_SHA256 = {
    (0.776, False): "00c26cee3300d807daf7a87419f9d06465575473604574ef2f839b930ffe9ea3",
    (0.776, True): "5970a257b36eaf269e03f72119fa850491664a7e3a65fd144c27fb5c138a33e9",
    (5.0, False): "ea4ddc8480ab0f739602c3faf7105569c440ecdaedd92aaeaf27dbe1bb374728",
    (5.0, True): "d2e2368f159b0dc2d560cdcdac9de77a50e5281e0e0f55f8c0cbefc15992d64a",
    # both ends of the supported x range
    (0.01, False): "d5a77b549252fce1d99ceb12314381eff7e0b3c1a894b7892354c07bdd65b5b3",
    (0.01, True): "9d3d196226f4f38c548d6dbf6ed93c0eb488bc85ab09813fcf4bd7c672fb5786",
    (1000.0, False): "413951507d19980339a5c011db60b5ad88a391fa5c7b73a56c758c4242b8624c",
    (1000.0, True): "0767b2ceb07136273ffbdd7009822369c93c38fdb510faa28db01f585e1bf246",
}


@pytest.mark.parametrize("x, symmetrized", sorted(GOLDEN_EVENT_FILE_SHA256))
def test_event_file_golden_digest(tmp_path, x, symmetrized):
    cfg = _config(n=2000, seed=20260814, symmetrized=symmetrized, dm=x)
    path = tmp_path / "events.csv"
    write_events(generate(cfg), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_EVENT_FILE_SHA256[(x, symmetrized)]


def test_event_file_round_trip(tmp_path):
    # two full write blocks and a partial third
    cfg = _config(n=2 * WRITE_CHUNK_ROWS + 7, seed=5, symmetrized=True)
    batch = generate(cfg, workers=2)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    body = "".join(
        line for line in path.read_text().splitlines(keepends=True)
        if not line.startswith("#")
    )
    assert body == event_file_rows(batch)
    loaded = read_events(path)
    assert loaded == batch
    assert loaded.config == cfg
    # a rewrite of what was read is byte-identical
    path2 = tmp_path / "again.csv"
    write_events(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # the last row without its newline
    path2.write_bytes(path.read_bytes().rstrip(b"\n"))
    loaded = read_events(path2)
    assert loaded == batch
    assert loaded.swapped.dtype == np.bool_ and loaded.flavour1.dtype == np.int8


def test_physical_tau_rows_match_the_row_oracle(tmp_path):
    # at tau = 1.5e-12 every decay time prints in scientific form
    cfg = _config(n=WRITE_CHUNK_ROWS + 5, seed=8, symmetrized=True, tau=1.5e-12,
                  dm=0.776 / 1.5e-12)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path, workers=2)
    body = b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"#"))
    assert body == event_file_rows(batch).encode("ascii")
    times = [field for row in body.splitlines() for field in row.split(b",")[2:5:2]]
    assert all(b"e-" in field for field in times)


# sha256 of the binary event file for n=2000, seed=20260814, keyed by
# (x, symmetrized): the header of events.csv with its body_version and
# body_sha256 lines, then the columns.  It moves with the event bytes and
# with BODY_VERSION, and only deliberately.
GOLDEN_EVENT_COLUMNS_SHA256 = {
    (0.776, False): "05798c0484c3ae0e9fd81298ca84603ade5e1135de53940855d165a6d0c967e4",
    (0.776, True): "946b3cce74c6f22ca5428ad1f306d96f57d7b1b65ded85c27e3f01daa6c07705",
    (5.0, False): "fe330dd93f51c11fcb9a006b9dd52dbc0c373ce347ef07ebb397276d467672f6",
    (5.0, True): "4c0e3fae93780c25f2e5ba012252f223bb1b7de54661ccfe4c29e4955bb2e19d",
    (0.01, False): "47599a0f7ff2bf3ce599016086a052418a946892fdc70cf8ca4b72ee4a94b57e",
    (0.01, True): "56ba9f14bcb8f68aabb62f35c444d3d362072e4d12aea6e06528022883b565ed",
    (1000.0, False): "2c897feca18cb868e893c0748d34f6ec5f46e59b3a65ff7e2dc8d078e9250953",
    (1000.0, True): "de107b241140e35abb9cbcf33cb90970fd52f41765349bb890b3faec877d7f80",
}


@pytest.mark.parametrize("x, symmetrized", sorted(GOLDEN_EVENT_COLUMNS_SHA256))
def test_event_columns_golden_digest(tmp_path, x, symmetrized):
    cfg = _config(n=2000, seed=20260814, symmetrized=symmetrized, dm=x)
    path = tmp_path / "events.bin"
    write_event_columns(generate(cfg), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_EVENT_COLUMNS_SHA256[(x, symmetrized)]


def _split_columns_file(data: bytes) -> tuple[bytes, bytes]:
    """(header, body) of a binary event file: the header ends with the
    newline of its body_sha256 line."""
    end = data.index(b"\n", data.index(b"\n# body_sha256=") + 1) + 1
    return data[:end], data[end:]


def test_event_columns_layout(tmp_path):
    batch = generate(_config(n=1001, seed=5, symmetrized=True))
    write_events(batch, tmp_path / "events.csv")
    write_event_columns(batch, tmp_path / "events.bin")
    header, body = _split_columns_file((tmp_path / "events.bin").read_bytes())
    csv_header = b"".join(line for line in (tmp_path / "events.csv").read_bytes()
                          .splitlines(keepends=True) if line.startswith(b"#"))
    digest = hashlib.sha256(body).hexdigest()
    assert header == csv_header + f"# body_version=1\n# body_sha256={digest}\n".encode()
    layout = ("<u8", "<f8", "<f8", "i1", "<f8", "i1", "u1")
    assert body == b"".join(getattr(batch, name).astype(dtype).tobytes()
                            for name, dtype in zip(EVENT_BATCH_COLUMNS, layout))
    assert len(body) == 35 * 1001


@pytest.mark.parametrize("n", [1, GENERATE_BLOCK_EVENTS + 1])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_event_columns_read_back_as_the_delimited_file(tmp_path, n, symmetrized):
    cfg = _config(n=n, seed=31, symmetrized=symmetrized, tau=2.0, dm=0.388)
    batch = generate(cfg, workers=2)
    write_events(batch, tmp_path / "events.csv")
    write_event_columns(batch, tmp_path / "events.bin")
    loaded = read_events(tmp_path / "events.bin")
    assert loaded == read_events(tmp_path / "events.csv") == batch
    assert loaded.swapped.dtype == np.bool_
    # a rewrite of what was read is byte-identical
    write_event_columns(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "events.bin").read_bytes()


def test_event_columns_keep_the_row_rules_under_a_matching_digest(tmp_path):
    path = tmp_path / "events.bin"
    write_event_columns(generate(_config(n=20, seed=4)), path)
    header, body = _split_columns_file(path.read_bytes())

    def signed(body):
        digest = re.sub(rb"body_sha256=\w+", b"body_sha256=" + hashlib.sha256(body)
                        .hexdigest().encode(), header)
        path.write_bytes(digest + body)

    # a body that opens with "#" is body all the same: its first index is wrong
    signed(b"#" + body[1:])
    with pytest.raises(EventFileError, match="^row 0 is out of order"):
        read_events(path)
    lam = np.frombuffer(body, "<f8", 20, 8 * 20).copy()
    lam[3] = np.nan
    signed(body[:160] + lam.tobytes() + body[320:])
    with pytest.raises(EventFileError, match="^row 3 has an impossible value"):
        read_events(path)
    # a flag byte of 2 is no bool
    signed(body[:-1] + b"\x02")
    with pytest.raises(EventFileError, match="^row 19 has a swapped flag other than 0 or 1"):
        read_events(path)


def test_row_order_is_checked_past_the_first_block(tmp_path):
    batch = generate(_config(n=GENERATE_BLOCK_EVENTS + 2, seed=4))
    index = batch.index.copy()
    index[-2:] = index[-2:][::-1]
    for write in (write_events, write_event_columns):
        with pytest.raises(ValueError, match=f"^row {GENERATE_BLOCK_EVENTS} is out of order"):
            write(dataclasses.replace(batch, index=index), tmp_path / "events")
    assert list(tmp_path.iterdir()) == []


def test_huge_n_events_over_a_binary_body_allocates_little(tmp_path):
    cfg = _config(n=3)
    path = tmp_path / "events.bin"
    write_event_columns(generate(cfg), path)
    huge = dataclasses.replace(cfg, n_events=10**12)
    data = path.read_bytes()
    for key, value in (("fingerprint", config_fingerprint(huge)), ("n_events", 10**12),
                       ("lambda_proposals", 10**12), ("t2_proposals", 10**12),
                       ("lambda_acceptance_rate", 1.0), ("t2_acceptance_rate", 1.0)):
        data = re.sub(rb"(?m)^# %s=.*$" % key.encode(), b"# %s=%s" % (
            key.encode(), str(value).encode()), data, count=1)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(EventFileError, match=r"body holds 105 bytes, its header says "
                           r"n_events=10{12}, which take 35000000000000$"):
            read_events(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_rng_stats_rates_follow_the_counts(tmp_path):
    # the rates are the counts' own, so any stats that can be built are
    # stats that read_events accepts
    stats = RngStats(3, 4, 6)
    assert (stats.lambda_acceptance_rate, stats.t2_acceptance_rate) == (0.75, 0.5)
    assert list(stats.as_dict()) == ["lambda_acceptance_rate", "t2_acceptance_rate",
                                     "lambda_proposals", "t2_proposals"]
    for counts in ((2, 6), (4, 2)):
        with pytest.raises(ValueError, match="proposal counts must be at least the 3 events"):
            RngStats(3, *counts)
    batch = dataclasses.replace(generate(_config(n=3)), rng_stats=stats)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    assert read_events(path) == batch


def test_interrupted_event_write_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = _config(n=5)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    before = path.read_bytes()

    format_rows = montecarlo._format_rows
    calls = []

    def killed_after_first_block(*columns):
        calls.append(columns)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return format_rows(*columns)

    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 2)
    monkeypatch.setattr(montecarlo, "_format_rows", killed_after_first_block)
    with pytest.raises(KeyboardInterrupt):
        write_events(batch, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


def _spy_on_pool_sizes(monkeypatch) -> list:
    """The thread count of every pool blocks are mapped on."""
    from concurrent.futures import ThreadPoolExecutor

    sizes = []
    real_init = ThreadPoolExecutor.__init__

    def spied(pool, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        real_init(pool, max_workers, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", spied)
    return sizes


def test_worker_count_changes_no_event_file_byte(tmp_path, monkeypatch):
    # two full write blocks and a partial third, formatted on one, two and
    # three threads: no pool has more threads than blocks
    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 1000)
    pool_sizes = _spy_on_pool_sizes(monkeypatch)
    cfg = _config(n=2 * 1000 + 7, seed=5, symmetrized=True)
    batch = generate(cfg, workers=4)  # one generate block
    written = {}
    for workers in (1, 2, 4):
        path = tmp_path / f"events{workers}.csv"
        write_events(batch, path, workers=workers)
        written[workers] = path.read_bytes()
    assert pool_sizes == [1, 1, 2, 3]
    assert written[2] == written[1] and written[4] == written[1]
    loaded = read_events(tmp_path / "events4.csv")
    assert loaded == batch
    assert loaded.config == cfg
    # a single block is formatted on one thread, whatever the worker count
    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 1 << 20)
    write_events(batch, tmp_path / "one_block.csv", workers=4)
    assert pool_sizes == [1, 1, 2, 3, 1]
    assert (tmp_path / "one_block.csv").read_bytes() == written[1]
    with pytest.raises(ValueError, match="workers"):
        write_events(batch, tmp_path / "none.csv", workers=0)


_STOP_BLOCKS = 50
_STOP_BLOCK_ROWS = 100


def _slow_blocks_over_a_previous_file(tmp_path, monkeypatch, fail_second_block=False):
    """A batch of 50 write blocks of 100 rows, the bytes of its file already
    at ``path``, and the first rows of the blocks formatted since.  Each
    block takes at least 5 ms, so a write on 2 threads that stops at its
    second block leaves most blocks unstarted, unless it waits for them."""
    batch = generate(_config(n=_STOP_BLOCKS * _STOP_BLOCK_ROWS))
    path = tmp_path / "events.csv"
    write_events(batch, path)
    format_rows = montecarlo._format_rows
    started = []

    def slow_rows(index, *columns):
        started.append(int(index[0]))
        if fail_second_block and index[0] == _STOP_BLOCK_ROWS:
            raise ArithmeticError(f"block at row {_STOP_BLOCK_ROWS} cannot be formatted")
        time.sleep(0.005)
        return format_rows(index, *columns)

    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", _STOP_BLOCK_ROWS)
    monkeypatch.setattr(montecarlo, "_format_rows", slow_rows)
    return batch, path, path.read_bytes(), started


def test_failing_worker_block_reaches_the_caller(tmp_path, monkeypatch):
    batch, path, before, started = _slow_blocks_over_a_previous_file(
        tmp_path, monkeypatch, fail_second_block=True)
    with pytest.raises(ArithmeticError, match="block at row 100"):
        write_events(batch, path, workers=2)
    assert _STOP_BLOCK_ROWS in started
    assert len(started) < _STOP_BLOCKS
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


def test_interrupted_parallel_write_cancels_the_unstarted_blocks(tmp_path, monkeypatch):
    # Ctrl-C while the caller writes the first block, outside the map
    # iterator: the pool itself must cancel what has not started
    batch, path, before, started = _slow_blocks_over_a_previous_file(tmp_path, monkeypatch)
    open_atomic = montecarlo.open_atomic

    class InterruptedWrites:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 2:  # the header, then block 0
                raise KeyboardInterrupt
            return self.fh.write(data)

    @contextlib.contextmanager
    def interrupted(*args, **kwargs):
        with open_atomic(*args, **kwargs) as fh:
            yield InterruptedWrites(fh)

    monkeypatch.setattr(montecarlo, "open_atomic", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_events(batch, path, workers=2)
    assert len(started) < _STOP_BLOCKS
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


# loadtxt's warnings of a blank line, which does not count towards max_rows,
# and of an empty body must not escape read_events
@pytest.mark.filterwarnings("error")
def test_bad_rows_in_a_late_block_name_their_file_row(tmp_path):
    path = tmp_path / "events.csv"
    write_events(generate(_config(n=2007, seed=5, symmetrized=True)), path)
    lines = path.read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = 1990
    at = rows[row]

    def edited(column, value):
        fields = lines[at].split(",")
        fields[column] = value
        return lines[:at] + [",".join(fields)] + lines[at + 1:]

    cases = {
        "label": (edited(3, "B1"), f"row {row} has an unknown flavour1 label"),
        "order": (lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2:],
                  f"row {row} is out of order"),
        "value": (edited(1, "99.0"), f"row {row} has an impossible value"),
        "number": (edited(2, "1.2.3"), f"'1.2.3' to float64 at row {row}, column 3"),
        "columns": (edited(6, "0,1\n"), f"8 were found at row {row + 1};"),
        # loadtxt, like the checks, counts rows, not lines
        "blank": (lines[:rows[5]] + ["\n"] + edited(2, "1.2.3")[rows[5]:],
                  f"'1.2.3' to float64 at row {row}, column 3"),
        # loadtxt reads no row past the (n+1)-th of an overlong file
        "overlong": (lines + lines[-3:-2] + ["x\n"], "has more than 2007 rows"),
        # loadtxt warns of a body with no row at all
        "empty": (lines[:rows[0]] + ["\n"], "has 0 rows"),
    }
    for content, problem in cases.values():
        path.write_text("".join(content))
        with pytest.raises(EventFileError, match=re.escape(problem)):
            read_events(path)


def test_huge_n_events_over_a_few_rows_allocates_little(tmp_path):
    cfg = _config(n=3)
    path = tmp_path / "events.csv"
    write_events(generate(cfg), path)
    huge = dataclasses.replace(cfg, n_events=10**12)
    replaced = {"# fingerprint=": config_fingerprint(huge), "# n_events=": str(10**12)}
    # one proposal per stage and event, so that only the rows disagree
    for stage in ("lambda", "t2"):
        replaced |= {f"# {stage}_proposals=": str(10**12), f"# {stage}_acceptance_rate=": "1.0"}
    lines = []
    for line in path.read_text().splitlines(keepends=True):
        for prefix, value in replaced.items():
            if line.startswith(prefix):
                line = f"{prefix}{value}\n"
        lines.append(line)
    cases = {
        "short": (lines, r"has 3 rows, its header says n_events=10{12}"),
        # the bad row is named without allocating by n_events
        "bad_row": (lines[:-2] + ["x" + lines[-2], lines[-1]],
                    r"malformed event row: could not convert string 'x1' .* at row 1,"),
    }
    for content, problem in cases.values():
        path.write_text("".join(content))
        tracemalloc.start()
        try:
            with pytest.raises(EventFileError, match=problem):
                read_events(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


def test_a_bad_late_row_costs_no_more_memory_than_a_clean_read(tmp_path):
    cfg = _config(n=100_000, seed=3)
    path = tmp_path / "events.csv"
    write_events(generate(cfg), path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.csv"
    at = raw.index(b"\n99990,") + len(b"\n99990,")
    bad.write_bytes(raw[:at] + b"x" + raw[at:])

    def traced_peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def read_bad():
        with pytest.raises(EventFileError, match=r"'x.* at row 99990, column 2\."):
            read_events(bad)

    clean = traced_peak(lambda: read_events(path))
    peak = traced_peak(read_bad)
    # the 7.5 MB body is parsed as a stream, not read in whole
    assert peak < clean + 2**20, (clean, peak)


def test_event_file_rejects_fingerprint_tampering(tmp_path):
    cfg = _config(n=5)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    text = path.read_text()
    assert "\n# seed=77\n" in text
    # change a header field out from under the digest; every other line stays
    (tmp_path / "bad.csv").write_text(text.replace("\n# seed=77\n", "\n# seed=12345\n"))
    with pytest.raises(EventFileError, match="fingerprint"):
        read_events(tmp_path / "bad.csv")


def test_event_file_rejects_malformed_rows(tmp_path):
    cfg = _config(n=3)
    batch = generate(cfg)
    good = tmp_path / "events.csv"
    write_events(batch, good)
    text = good.read_text()
    lines = text.splitlines(keepends=True)
    header = "".join(line for line in lines if line.startswith("#"))
    rows = [line for line in lines if not line.startswith("#")]

    def with_field(row, column, value):
        fields = row.rstrip("\n").split(",")
        fields[column] = value
        return ",".join(fields) + "\n"

    cases = {
        "short": (text.rstrip("\n").rsplit(",", 1)[0] + "\n", "columns"),
        "label": (text.replace("B0bar", "B9", 1), "label"),
        "numeric_label": (header + with_field(rows[0], 3, "1") + "".join(rows[1:]), "label"),
        "long_label": (header + "".join(rows[:2]) + with_field(rows[2], 5, "B0barXY"), "label"),
        "swapped": (header + "".join(rows[:2]) + with_field(rows[2], 6, "7"), "swapped"),
        "truncated": (header + "".join(rows[:2]), "n_events"),
        "extra_row": (header + "".join(rows) + rows[-1], "n_events"),
        "empty": (header, "n_events"),
        "reversed": (header + "".join(reversed(rows)), "out of order"),
        "hdr": ("".join(line for line in lines if not line.startswith("# seed=")), "missing"),
        # the acceptance stats lie outside the fingerprint, but are checked too
        "stats": (text.replace("# t2_acceptance_rate=", "# t2_acceptance_rate=x"), "invalid"),
        "part_stats": ("".join(line for line in lines
                               if not line.startswith("# lambda_acceptance_rate=")), "missing"),
        "no_stats": ("".join(line for line in lines if not re.match(
            r"# (lambda|t2)_(acceptance_rate|proposals)=", line)), "missing"),
        # the rates must be those the proposal counts give
        "rate": (re.sub(r"# lambda_acceptance_rate=.*", "# lambda_acceptance_rate=0.99", text),
                 "acceptance rates do not match its proposal counts"),
        # every event takes one proposal per stage at least
        "no_proposals": (re.sub(r"# t2_proposals=.*", "# t2_proposals=0", text),
                         "proposal counts must be at least the 3 events"),
        "few_proposals": (re.sub(r"# lambda_proposals=.*", "# lambda_proposals=2", text),
                          "proposal counts must be at least the 3 events"),
    }
    # impossible values, each in the second row, which the message must name
    for column, values in ((1, ("99.0", "-0.5", "6.283185307179586", "nan", "inf")),
                           (2, ("nan", "-3.0", "inf", "-inf")),
                           (4, ("nan", "-1e-300", "inf"))):
        for value in values:
            bad_row = with_field(rows[1], column, value)
            cases[f"value_{column}_{value}"] = (header + rows[0] + bad_row + rows[2],
                                               r"row 1 has an impossible value")
    # bytes that are not UTF-8: in a header line, and in a label of the first row
    raw = good.read_bytes()
    cases["header_byte"] = (raw.replace(b"# tau=1.0\n", b"# tau=1.0\xff\n"), "UTF-8")
    first_label = raw.index(b",B0", raw.index(b"\n0,")) + 3
    cases["row_byte"] = (raw[:first_label] + b"\xff" + raw[first_label:], "label")
    for name, (content, problem) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(EventFileError, match=problem):
            read_events(path)


def test_write_events_refuses_what_read_events_would(tmp_path):
    # each edit breaks one rule that read_events checks: no file appears
    batch = generate(_config(n=4, seed=8))

    def edited(name, row, value):
        column = getattr(batch, name).copy()
        column[row] = value
        return dataclasses.replace(batch, **{name: column})

    cases = {
        "nan_t1": (edited("t1", 1, np.nan), "row 1 has an impossible value"),
        "lambda_7": (edited("lam", 2, 7.0), "row 2 has an impossible value"),
        "negative_t2": (edited("t2", 0, -1.0), "row 0 has an impossible value"),
        "swapped_indices": (dataclasses.replace(batch, index=batch.index[[0, 2, 1, 3]]),
                            "row 1 is out of order"),
        "n_events": (dataclasses.replace(batch, config=_config(n=5, seed=8)), "n_events=5"),
        "ragged": (dataclasses.replace(batch, config=_config(n=2, seed=8),
                                       index=batch.index[:2]), "n_events=2"),
    }
    path = tmp_path / "x.csv"
    for bad, problem in cases.values():
        with pytest.raises(ValueError, match=problem):
            write_events(bad, path)
        assert list(tmp_path.iterdir()) == []


def test_event_file_of_another_generator_is_refused(tmp_path, monkeypatch):
    message = (r"event file is from generator {}; this version reads generator 2 files "
               r"only \(generator 1 wrote no generator line\)")
    # a file as generator 1 wrote it, with no generator line
    v1 = tmp_path / "v1.csv"
    v1.write_text(GENERATOR_1_EVENT_FILE)
    with pytest.raises(EventFileError, match=message.format(1)):
        read_events(v1)
    # a generator 3 file whose fingerprint covers its generator line
    monkeypatch.setattr(montecarlo, "GENERATOR_VERSION", 3)
    v3 = tmp_path / "v3.csv"
    write_events(generate(_config(n=3)), v3)
    monkeypatch.undo()
    assert "# generator=3\n" in v3.read_text()
    with pytest.raises(EventFileError, match=message.format(3)):
        read_events(v3)


# simulate --x 0.776 --events 2 --seed 1, as generator 1 wrote it
GENERATOR_1_EVENT_FILE = """\
# fingerprint=a220d83419362f172505952c2da3f821fb0015b77ce4c134fcb99eb4f1e4d499
# tau=1.0
# delta_m=0.776
# n_events=2
# seed=1
# symmetrized=0
# max_rejection_iters=10000
# lambda_acceptance_rate=0.5
# t2_acceptance_rate=0.3333333333333333
# lambda_proposals=4
# t2_proposals=6
# columns=index,lambda,t1,flavour1,t2,flavour2,swapped
0,5.656553517113243,0.5246910155570642,B0bar,3.572725424103266,B0bar,0
1,0.14152584025729661,0.37842675702727535,B0bar,0.9440637656121446,B0,0
"""


def test_write_events_rejects_unknown_flavour_codes(tmp_path):
    cfg = _config(n=4, seed=8)
    batch = generate(cfg)
    for code in (0, -1, 3):
        flavour2 = batch.flavour2.copy()
        flavour2[1] = code
        bad = dataclasses.replace(batch, flavour2=flavour2)
        with pytest.raises(ValueError, match="flavour codes"):
            write_events(bad, tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# config and batch plumbing

def test_config_fingerprint_separates_configs():
    base = _config(n=10, seed=1)
    assert config_fingerprint(base) == config_fingerprint(_config(n=10, seed=1))
    variants = [
        _config(n=11, seed=1),
        _config(n=10, seed=2),
        _config(n=10, seed=1, symmetrized=True),
        _config(n=10, seed=1, dm=0.775),
        _config(n=10, seed=1, tau=2.0),
    ]
    digests = {config_fingerprint(c) for c in variants}
    assert config_fingerprint(base) not in digests
    assert len(digests) == len(variants)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_events": 0},
        {"n_events": -5},
        {"seed": -1},
        {"seed": 2**64},
        {"max_rejection_iters": 0},
        # the longest decay time drawn, 53 ln 2 tau, is inf at this tau
        {"params": ModelParams(1e308, 1e-308)},
    ],
)
def test_sim_config_validation(kwargs):
    base = dict(params=ModelParams(1.0, 0.776), n_events=10, seed=1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimConfig(**base)


def test_rejection_overflow_raises():
    cfg = SimConfig(
        params=ModelParams(1.0, 0.776),
        n_events=64,
        seed=0,
        max_rejection_iters=1,
    )
    with pytest.raises(RejectionOverflowError):
        generate(cfg)


@pytest.mark.parametrize("max_iters", [1, 5, 13, 40, 200, 10_000])
def test_multi_cursor_rounds_change_no_draw(monkeypatch, max_iters):
    # a floor of one pair per round is the plain loop, one proposal per lane
    # per round; the default draws several per lane once few are pending;
    # a floor of 14 pairs per lane draws 14 proposals per lane from the
    # first round, cut to the budget at 1, 5 and 13.  Events, stats and the
    # depth at which the per-lane budget runs out must not depend on it
    cfg = SimConfig(params=ModelParams(1.0, 0.01), n_events=5000, seed=4,
                    max_rejection_iters=max_iters)

    def outcome():
        try:
            batch = generate_events(cfg, 0, cfg.n_events)
        except RejectionOverflowError as exc:
            return str(exc)
        return batch

    default = outcome()
    drawn = []

    def counted(seed, event_indices, cursors):
        drawn.append(event_indices.size)
        return uniform_pair_block(seed, event_indices, cursors)

    monkeypatch.setattr(montecarlo, "uniform_pair_block", counted)
    for per_lane in (1, 14):
        monkeypatch.setattr(montecarlo, "_draw_floor", lambda lanes: per_lane * lanes)
        drawn.clear()
        assert outcome() == default
        # the first round is the lambda loop's, with every lane pending
        assert drawn[0] == min(per_lane, max_iters) * cfg.n_events
    if max_iters <= 40:
        assert "exceeded its iteration budget" in default
    else:
        assert default.rng_stats.t2_proposals > cfg.n_events


def test_long_rejection_chains_take_few_rounds(monkeypatch):
    # at x = 0.01 phases near pi/2 thin t2 by |cos lam| ~ 0 for hundreds of
    # proposals; one proposal per lane per round took over 400 rounds per
    # block, each a full Philox call
    calls = []

    def counted(seed, event_indices, cursors):
        calls.append(event_indices.size)
        return uniform_pair_block(seed, event_indices, cursors)

    monkeypatch.setattr(montecarlo, "uniform_pair_block", counted)
    cfg = _config(n=GENERATE_BLOCK_EVENTS, seed=11, dm=0.01)
    batch = generate_events(cfg, 0, cfg.n_events)
    assert len(calls) <= 20
    # each call carries at least an eighth of a block
    assert min(calls) >= GENERATE_BLOCK_EVENTS // 8
    stats = batch.rng_stats
    assert sum(calls) >= stats.lambda_proposals + stats.t2_proposals + cfg.n_events


@pytest.mark.parametrize("n_events, start", [(1, 0), (300, 0), (1_000_000, 983_040)])
def test_short_ranges_draw_few_pairs_beyond_those_used(monkeypatch, n_events, start):
    # a range shorter than a block (one event, a small run, the last
    # 16 960 events of 10^6) caps each round's floor at an eighth of the
    # range; a fixed floor of 8192 pairs drew 16 386 pairs for one event
    drawn = []

    def counted(seed, event_indices, cursors):
        drawn.append(event_indices.size)
        return uniform_pair_block(seed, event_indices, cursors)

    monkeypatch.setattr(montecarlo, "uniform_pair_block", counted)
    cfg = _config(n=n_events, seed=3, symmetrized=True)
    batch = generate_events(cfg, start, cfg.n_events)
    stats = batch.rng_stats
    # each event also draws one pair for t1, whose u_b is the swap coin
    used = stats.lambda_proposals + stats.t2_proposals + len(batch)
    assert sum(drawn) <= 1.2 * used


def _squeeze_probes(bounds, four_rho):
    """Uniform pairs where a squeeze would go wrong first: u_a at both ends
    of every bin and at the kinks lam = pi/2 and 3pi/2, each with u_b just
    below, at and just above the computed 4 rho and each bound."""
    bins = montecarlo._SQUEEZE_BINS
    j = np.arange(bins)
    kinks = np.array([0.25, 0.75])
    u_a = np.concatenate([j / bins, np.nextafter((j + 1) / bins, 0.0),
                          kinks, np.nextafter(kinks, 0.0), np.nextafter(kinks, 1.0)])
    lo, hi = bounds
    k = (u_a * bins).astype(int)
    levels = [four_rho(TWO_PI * u_a), lo[k], hi[k]]
    u_b = np.stack([np.nextafter(v, d) for v in levels for d in (-1.0, v, 1.0)])
    u_a = np.broadcast_to(u_a, u_b.shape)
    keep = (u_b >= 0.0) & (u_b < 1.0)
    return u_a[keep], u_b[keep]


@settings(max_examples=60, deadline=None)
@given(log_x=st.floats(-2.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_squeeze_decides_as_the_exact_test(log_x, seed):
    # accept below lo, reject from hi on: both must be the decision of
    # u_b < 4 rho(2 pi u_a) as the sampler computes it, which decides the rest
    table = model.rho_table(ModelParams(1.0, 10.0**log_x))

    def four_rho(lam):
        return montecarlo._ENVELOPE_SCALE * table(lam)

    bounds = montecarlo._squeeze_bounds(table)
    rng = np.random.default_rng(seed)
    probes = _squeeze_probes(bounds, four_rho)
    u_a = np.concatenate([rng.random(20_000), probes[0]])
    u_b = np.concatenate([rng.random(20_000), probes[1]])
    accept, undecided = montecarlo._squeeze(bounds, u_a, u_b)
    exact = u_b < four_rho(TWO_PI * u_a)
    assert np.array_equal(accept[~undecided], exact[~undecided])
    assert not np.any(accept & undecided)
    # the bounds themselves, 64 points per bin and the last uniform of each
    bins = montecarlo._SQUEEZE_BINS
    dense = np.concatenate([np.arange(64 * bins) / (64 * bins),
                            np.nextafter(np.arange(1, bins + 1) / bins, 0.0)])
    k = (dense * bins).astype(int)
    value = four_rho(TWO_PI * dense)
    lo, hi = bounds
    assert np.all(lo[k] <= value) and np.all(value <= hi[k])


@pytest.mark.parametrize("x", [0.01, 0.776, 5.0, 1000.0])
def test_squeeze_changes_no_draw(monkeypatch, x):
    # bounds (0, inf) leave every lane to the exact test on the whole array,
    # the accept test without a squeeze: events and stats must not move
    bins = montecarlo._SQUEEZE_BINS
    for seed in (5, 2**64 - 3):
        for symmetrized in (False, True):
            cfg = _config(n=2 * GENERATE_BLOCK_EVENTS + 7, seed=seed, dm=x,
                          symmetrized=symmetrized)
            default = generate(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "_squeeze_bounds",
                              lambda table: (np.zeros(bins), np.full(bins, np.inf)))
                assert generate(cfg) == default


def test_squeeze_leaves_few_phases_to_the_density(monkeypatch):
    points = []

    def counting_table(params):
        table = model.rho_table(params)

        def counted(lam):
            points.append(np.size(lam))
            return table(lam)

        return counted

    monkeypatch.setattr(montecarlo, "rho_table", counting_table)
    batch = generate(_config(n=100_000, seed=8))
    blocks = -(-len(batch) // GENERATE_BLOCK_EVENTS)
    # each block evaluates the density at its bin edges, then only between bounds
    near = sum(points) - blocks * (montecarlo._SQUEEZE_BINS + 1)
    assert 0 < near < 0.02 * batch.rng_stats.lambda_proposals


def test_largest_uniform_keeps_the_phase_below_two_pi():
    # the reader rejects lambda >= 2pi, so the generator must never emit it:
    # the largest 53-bit uniform is 1 - 2^-53, and 2pi times it rounds below 2pi
    (top,) = streams._to_uniform(np.array([2**64 - 1], dtype=np.uint64))
    assert top == 1.0 - 2.0**-53
    assert model.TWO_PI * top < model.TWO_PI


def test_batch_length_and_equality():
    cfg = _config(n=7)
    batch = generate(cfg)
    assert len(batch) == 7
    assert batch == generate(cfg)
    assert batch != generate(_config(n=7, seed=78))
    assert (batch == object()) is False
