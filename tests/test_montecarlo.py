"""Generator tests: bit-exact reproducibility, stream partitioning, and
agreement of the sampled distributions with quadrature of the model laws."""

import dataclasses
import hashlib
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from bmixlhv import model, montecarlo, streams
from bmixlhv.model import Flavour, ModelParams
from bmixlhv.montecarlo import (
    GENERATE_BLOCK_EVENTS,
    READ_BLOCK_BYTES,
    WRITE_CHUNK_ROWS,
    EventBatch,
    EventFileError,
    RejectionOverflowError,
    SimConfig,
    config_fingerprint,
    generate,
    generate_events,
    read_events,
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
    cfg = _config(n=5, seed=2024)
    batch = generate(cfg)
    for i in range(5):
        stream = EventStream(seed=cfg.seed, event_index=i)
        lam = sample_lambda(stream, cfg.params)
        t1, f1 = sample_side1(stream, lam, cfg.params)
        t2, f2 = sample_side2(stream, lam, cfg.params)
        assert lam == batch.lam[i]
        assert t1 == batch.t1[i] and int(f1) == batch.flavour1[i]
        assert t2 == batch.t2[i] and int(f2) == batch.flavour2[i]


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
    (0.776, False): "5a58b3e284443db65182bba1d85ed16c53623ae2abc36df0454b2a2f0d4c580b",
    (0.776, True): "2f81f4a57fd0925e4cb0619bc832d89f37078415519132e60329b0e71c9a2dc9",
    (5.0, False): "8a3c0dda9adf4b63a11b76f8a900f9568e01f0f1cc561bbf3e4343a5c377c7fd",
    (5.0, True): "d87a3a45d6fcb41b88168d626c6b3cbc80d74d3be0fa9731676410304814f15c",
    # both ends of the supported x range
    (0.01, False): "91c83546be95c6e158593126818862a807e435193d359329899db707e03a72fc",
    (0.01, True): "e23b2128a89844c7f2d7880218001af69de20665a547e03b6daf714eed2a7443",
    (1000.0, False): "4da0e77a6d85da18136ffa8514eb657526e9eb467209f854a6579c66694aebf3",
    (1000.0, True): "e6a3a1e3d426c1b8012dee9573b85caf6601bdb330c0d3e3ed8d504dc97b3211",
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


def test_interrupted_event_write_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = _config(n=5)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    before = path.read_bytes()

    labels = montecarlo._LABEL_BY_CODE

    class KilledAfterFirstBlock:
        lookups = 0

        def __getitem__(self, codes):
            self.lookups += 1  # two lookups per block
            if self.lookups > 2:
                raise KeyboardInterrupt
            return labels[codes]

    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 2)
    monkeypatch.setattr(montecarlo, "_LABEL_BY_CODE", KilledAfterFirstBlock())
    with pytest.raises(KeyboardInterrupt):
        write_events(batch, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


def _spy_on_pool_sizes(monkeypatch) -> list:
    """The worker count of every process pool blocks are mapped on."""
    from concurrent.futures.process import ProcessPoolExecutor

    sizes = []
    real_init = ProcessPoolExecutor.__init__

    def spied(pool, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        real_init(pool, max_workers, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", spied)
    return sizes


def test_worker_count_changes_no_event_file_byte(tmp_path, monkeypatch):
    # two full write blocks and a partial third, formatted inline and on
    # two and three worker processes
    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 1000)
    pool_sizes = _spy_on_pool_sizes(monkeypatch)
    cfg = _config(n=2 * 1000 + 7, seed=5, symmetrized=True)
    batch = generate(cfg)
    written = {}
    for workers in (1, 2, 4):
        path = tmp_path / f"events{workers}.csv"
        write_events(batch, path, workers=workers)
        written[workers] = path.read_bytes()
    assert pool_sizes == [2, 3]
    assert written[2] == written[1] and written[4] == written[1]
    loaded = read_events(tmp_path / "events4.csv")
    assert loaded == batch
    assert loaded.config == cfg
    # a single block is formatted inline, whatever the worker count
    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 1 << 20)
    write_events(batch, tmp_path / "one_block.csv", workers=4)
    assert pool_sizes == [2, 3]
    assert (tmp_path / "one_block.csv").read_bytes() == written[1]
    with pytest.raises(ValueError, match="workers"):
        write_events(batch, tmp_path / "none.csv", workers=0)


def test_workers_fork_before_the_pool_starts_a_thread(tmp_path, monkeypatch):
    # a child forked while another thread of the parent holds a lock can
    # deadlock; every worker must fork while only the caller's threads run
    threads_at_fork = []
    real_fork = os.fork

    def fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", 1000)
    cfg = _config(n=4 * 1000)
    batch = generate(cfg)
    before = threading.active_count()
    write_events(batch, tmp_path / "events.csv", workers=3)
    assert threads_at_fork == [before] * 3
    monkeypatch.setattr(montecarlo, "READ_BLOCK_BYTES", 50_000)
    assert read_events(tmp_path / "events.csv", workers=3) == batch
    assert threads_at_fork == [before] * 6


_FORMAT_ROWS = montecarlo._format_rows
_FAILING_BLOCK_START = 1000


def _format_rows_failing_on_one_block(index, *columns):
    """Picklable by name, so a forked worker runs it in place of the real one."""
    if index[0] == _FAILING_BLOCK_START:
        raise ArithmeticError(f"block at row {_FAILING_BLOCK_START} cannot be formatted")
    return _FORMAT_ROWS(index, *columns)


def test_failing_worker_block_reaches_the_caller(tmp_path, monkeypatch):
    import multiprocessing

    cfg = _config(n=5 * _FAILING_BLOCK_START)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    before = path.read_bytes()

    monkeypatch.setattr(montecarlo, "WRITE_CHUNK_ROWS", _FAILING_BLOCK_START)
    monkeypatch.setattr(montecarlo, "_format_rows", _format_rows_failing_on_one_block)
    with pytest.raises(ArithmeticError, match="block at row 1000"):
        write_events(batch, path, workers=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]
    assert multiprocessing.active_children() == []


# a 2007-event file in read blocks of 60 000 bytes: the third and last
# block starts near row 1620
_READ_TEST_BLOCK_BYTES = 60_000
_THIRD_BLOCK_ROW = 1990


def _event_file_in_read_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "READ_BLOCK_BYTES", _READ_TEST_BLOCK_BYTES)
    cfg = _config(n=2007, seed=5, symmetrized=True)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                body = fh.tell() - len(line)
                break
        cuts = montecarlo._block_cuts(fh, body, path.stat().st_size)
    assert len(cuts) == 4 and cuts[2] < path.read_bytes().index(f"\n{_THIRD_BLOCK_ROW},".encode())
    return batch, cfg, path


def test_worker_count_changes_no_parsed_row(tmp_path, monkeypatch):
    batch, cfg, path = _event_file_in_read_blocks(tmp_path, monkeypatch)
    # the last row without its newline
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    pool_sizes = _spy_on_pool_sizes(monkeypatch)
    for workers in (1, 2, 4):
        loaded = read_events(path, workers=workers)
        assert loaded == batch
        assert loaded.config == cfg
        assert loaded.swapped.dtype == np.bool_ and loaded.flavour1.dtype == np.int8
    assert pool_sizes == [2, 3]
    # a single block is parsed inline, whatever the worker count
    monkeypatch.setattr(montecarlo, "READ_BLOCK_BYTES", READ_BLOCK_BYTES)
    assert read_events(path, workers=4) == batch
    assert pool_sizes == [2, 3]
    with pytest.raises(ValueError, match="workers"):
        read_events(path, workers=0)


# loadtxt's warning that a blank line does not count towards max_rows
# must not escape read_events
@pytest.mark.filterwarnings("error")
def test_bad_rows_in_a_late_block_name_their_file_row(tmp_path, monkeypatch):
    import multiprocessing

    _, _, path = _event_file_in_read_blocks(tmp_path, monkeypatch)
    lines = path.read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    at = rows[_THIRD_BLOCK_ROW]
    row = _THIRD_BLOCK_ROW

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
    }
    for name, (content, problem) in cases.items():
        path.write_text("".join(content))
        messages = set()
        for workers in (1, 2):
            with pytest.raises(EventFileError, match=re.escape(problem)) as exc:
                read_events(path, workers=workers)
            messages.add(str(exc.value))
            assert multiprocessing.active_children() == []
        assert len(messages) == 1, messages


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
        # the bad row is parsed again, without allocating by n_events
        "bad_row": (lines[:-2] + ["x" + lines[-2], lines[-1]],
                    r"malformed event row: could not convert string 'x1' .* at row 1,"),
    }
    for content, problem in cases.values():
        path.write_text("".join(content))
        tracemalloc.start()
        try:
            with pytest.raises(EventFileError, match=problem):
                read_events(path, workers=2)
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
    # the 7.5 MB body is parsed again as a stream, not read in whole
    assert peak < clean + 2**20, (clean, peak)


def test_event_file_rejects_fingerprint_tampering(tmp_path):
    cfg = _config(n=5)
    batch = generate(cfg)
    path = tmp_path / "events.csv"
    write_events(batch, path)
    lines = path.read_text().splitlines()
    lines[3] = "# seed=12345"  # change a header field out from under the digest
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(EventFileError):
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
    # each event also draws one pair for t1 and one for the swap
    used = stats.lambda_proposals + stats.t2_proposals + 2 * len(batch)
    assert sum(drawn) <= 1.2 * used


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
