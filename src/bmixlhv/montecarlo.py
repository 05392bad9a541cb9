"""Event generation for the shared-phase pair-decay model.

Sampling scheme, per event: the hidden phase comes from envelope rejection
under the constant bound 1/4 (the phase density never exceeds it); the
first decay time is exact inverse-CDF exponential with the window fixing
its flavour; the second decay is an exponential proposal thinned by
|cos(lam - delta_m t)|, the sign of the surviving cosine fixing the
flavour.  Every event consumes its own counter-based substream, so event j
is a pure function of (seed, j): generation partitions freely across
workers with byte-identical output.

Draw order of generator 2 (:data:`GENERATOR_VERSION`), one uniform pair
(u_a, u_b) per cursor: phase proposals (u_a the phase, u_b the test); one
pair whose u_a gives t1 and whose u_b is the symmetrization coin (the sides
swap below 1/2); t2 proposals (u_a the time, u_b the test).  Event files
of any other generator version are refused.

:func:`generate` runs in fixed blocks of :data:`GENERATE_BLOCK_EVENTS`
events, each writing its own slice of the preallocated result columns, so
peak temporary memory does not depend on ``n_events``.  Blocks sample in
lifetime units (tau = 1, delta_m = x) and then multiply t1 and t2 by tau.

The phase accept test u_b < 4 rho(2pi u_a) reads proven bounds on 4 rho in
the proposal's bin of :data:`_SQUEEZE_BINS` over [0, 2pi) first, and
evaluates the closed-form density (:func:`bmixlhv.model.rho_table`) only
where u_b lies between them, about 0.6 % of proposals.  4 rho is
1-Lipschitz in lam, so the mean of a bin's edge values +- half its width
(and a rounding margin) bounds it: every decision is the exact test's, and
no byte changes.
Both rejection loops run in :func:`_first_accepted`.  While many lanes are
pending, a round draws one proposal per lane and keeps the accepted ones by
integer index, with no proposal axis to reduce over.  Once few are pending
it draws several consecutive proposals per lane, so the few long t2 chains
near lam = pi/2 at small x cost a few rounds, not hundreds.

Event files, text (:func:`write_events`) or binary
(:func:`write_event_columns`), hold the seven columns of :data:`_COLUMNS`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    TWO_PI,
    Flavour,
    ModelParams,
    flavour_window_codes,
    rho_table,
)
from .reporting import (TEXT_BLOCK_ROWS, comment_header, float_text, format_value, open_atomic,
                        text_rows, uint_text)
from .streams import uniform_pair_block

__all__ = [
    "EventBatch",
    "EventFileError",
    "RejectionOverflowError",
    "RngStats",
    "SimConfig",
    "config_fingerprint",
    "generate",
    "generate_events",
    "read_events",
    "write_event_columns",
    "write_events",
]

_ENVELOPE_SCALE = 4.0  # acceptance prob = rho / (1/4) = 4 * rho

# equal phase bins of the squeeze on the phase accept test; a power of 2,
# so the bin of u_a is exact.  No output byte depends on it.
_SQUEEZE_BINS = 1024

# slack of the squeeze bounds for the rounding of 4 rho, its knots and
# 2 pi u_a, each some 1e-15
_SQUEEZE_MARGIN = 1e-9

# version of the Philox kernel and draw order; in the fingerprint and the
# event-file header, and read_events refuses any other
GENERATOR_VERSION = 2

# layout of the binary event body (_COLUMNS); in the header of every binary
# event file, and read_events refuses any other
BODY_VERSION = 1

# rows formatted per block and write, as reporting formats any table;
# bounds the text each thread holds, a few MB.  No output byte depends on it.
WRITE_CHUNK_ROWS = TEXT_BLOCK_ROWS

# events generated per block; keeps the sampler's temporaries (Philox
# buffers included) cache-sized.  No output byte depends on it.
GENERATE_BLOCK_EVENTS = 65_536

# uniform pairs a rejection round draws at least, an eighth of a block (an
# eighth of the range for a shorter range): once few lanes are pending, each
# draws several proposals per round
_MIN_DRAWS_PER_CALL = GENERATE_BLOCK_EVENTS // 8

# proposals a rejection loop makes per event before it raises
# RejectionOverflowError; the configuration text and event-file header carry it
MAX_REJECTION_ITERS = 10_000

# bound on every decay time drawn, in lifetimes: -log1p(-u) at the largest
# uniform, 1 - 2**-53, is 53 ln 2 = 36.7368...
MAX_DECAY_LIFETIMES = 36.74

# the event columns in file order: the EventBatch field, its name on the
# header's columns= line, and its dtype in the binary body.  The swapped
# flags are one byte of 0 or 1, viewed as bool once filled or checked
_COLUMNS = tuple((field, label, np.dtype(dtype)) for field, label, dtype in (
    ("index", "index", "<u8"),
    ("lam", "lambda", "<f8"),
    ("t1", "t1", "<f8"),
    ("flavour1", "flavour1", "i1"),
    ("t2", "t2", "<f8"),
    ("flavour2", "flavour2", "i1"),
    ("swapped", "swapped", "u1"),
))

# bytes of one event in a generated batch and in the binary body: 35
EVENT_BYTES = sum(dtype.itemsize for _, _, dtype in _COLUMNS)

# label bytes by flavour code, right-aligned text matrix rows; code 0 is unused
_LABEL_TEXT = np.array([b"", Flavour.B0.label.encode().rjust(5, b"\0"),
                        Flavour.B0BAR.label.encode()], "S5").view(np.uint8).reshape(3, 5)

# one parsed event row, each flavour label one byte longer than the longest,
# so a longer field, which loadtxt truncates, still fails the label check
_ROW_DTYPE = np.dtype([(field, "S6" if field.startswith("flavour") else dtype)
                       for field, _, dtype in _COLUMNS])


class RejectionOverflowError(RuntimeError):
    """A rejection loop ran out of iterations; the envelope bound is broken."""

    def __init__(self, stage: str, lam: float | None = None):
        detail = f" at lam={lam!r}" if lam is not None else ""
        super().__init__(f"rejection sampling for {stage} exceeded its iteration budget{detail}")
        self.stage = stage
        self.lam = lam


class EventFileError(ValueError):
    """An event file is malformed or inconsistent with its own header."""


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    n_events: int
    seed: int
    symmetrized: bool = False

    def __post_init__(self) -> None:
        if self.n_events < 1:
            raise ValueError(f"n_events must be at least 1, got {self.n_events}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        max_tau = sys.float_info.max / MAX_DECAY_LIFETIMES
        if self.params.tau > max_tau:
            raise ValueError(f"tau must be at most {max_tau!r}, since decay times reach "
                             f"{MAX_DECAY_LIFETIMES} tau; got {self.params.tau!r}")


def _config_fields(config: SimConfig) -> dict:
    """The configuration as the ordered fields of its canonical text form,
    which the fingerprint hashes and the event-file header repeats."""
    return {
        "tau": config.params.tau,
        "delta_m": config.params.delta_m,
        "n_events": config.n_events,
        "seed": config.seed,
        "symmetrized": config.symmetrized,
        "max_rejection_iters": MAX_REJECTION_ITERS,
        "generator": GENERATOR_VERSION,
    }


def config_fingerprint(config: SimConfig) -> str:
    """sha256 over the canonical text form of the configuration."""
    text = "".join(f"{key}={format_value(val)}\n" for key, val in _config_fields(config).items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RngStats:
    """Proposal counts of ``n_events`` accepted events, and the acceptance
    rates they give; each event takes at least one proposal per stage."""

    n_events: int
    lambda_proposals: int
    t2_proposals: int

    def __post_init__(self) -> None:
        if min(self.lambda_proposals, self.t2_proposals) < self.n_events:
            raise ValueError(f"proposal counts must be at least the {self.n_events} events")

    @property
    def lambda_acceptance_rate(self) -> float:
        return self.n_events / self.lambda_proposals

    @property
    def t2_acceptance_rate(self) -> float:
        return self.n_events / self.t2_proposals

    def as_dict(self) -> dict:
        """The rates and counts as the event-file header and the manifest list them."""
        keys = ("lambda_acceptance_rate", "t2_acceptance_rate", "lambda_proposals", "t2_proposals")
        return {key: getattr(self, key) for key in keys}


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Columnar storage of generated events, one array per field, and their config."""

    index: np.ndarray
    lam: np.ndarray
    t1: np.ndarray
    flavour1: np.ndarray
    t2: np.ndarray
    flavour2: np.ndarray
    swapped: np.ndarray
    config: SimConfig
    rng_stats: RngStats

    def __len__(self) -> int:
        return self.index.size

    @property
    def config_fingerprint(self) -> str:
        return config_fingerprint(self.config)

    def columns(self) -> dict:
        """The event columns by field name, in file order."""
        return {field: getattr(self, field) for field, _, _ in _COLUMNS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            self.config == other.config
            and self.rng_stats == other.rng_stats
            and all(map(np.array_equal, self.columns().values(), other.columns().values()))
        )


# ---------------------------------------------------------------------------
# vectorized generation

def _draw_floor(lanes: int) -> int:
    """Uniform pairs a rejection round over ``lanes`` lanes draws at least:
    :data:`_MIN_DRAWS_PER_CALL`, or an eighth of the lanes if that is less."""
    return min(_MIN_DRAWS_PER_CALL, -(-lanes // 8))


def _first_accepted(config: SimConfig, idx: np.ndarray, cursor: np.ndarray, test):
    """Envelope rejection on every lane: the value of each lane's first
    accepted proposal, the number of proposals made, and the lanes still
    pending when the per-lane budget :data:`MAX_REJECTION_ITERS` ran out.

    ``test(lanes, u_a, u_b)`` maps the uniform pairs drawn for ``lanes`` to
    (accepted, value) arrays.  Each call draws at least
    :func:`_draw_floor` pairs, so once few lanes are pending it draws k
    consecutive cursors per pending lane.  A lane keeps its first accepted
    proposal, and its cursor and the proposal count advance only up to it,
    so no result depends on k; every pending lane has always used the same
    number of proposals.
    Advances each lane's ``cursor`` in place by the proposals it used.
    """
    values = np.empty(idx.size)
    spent = np.zeros(idx.size, dtype=np.uint64)  # proposals each lane used
    pending = np.arange(idx.size)
    used = 0
    floor = _draw_floor(idx.size)
    while pending.size and used < MAX_REJECTION_ITERS:
        k = min(-(-floor // pending.size), MAX_REJECTION_ITERS - used)
        if k == 1:  # one proposal per lane: nothing to reduce over
            u_a, u_b = uniform_pair_block(config.seed, idx[pending], cursor[pending] + np.uint64(used))
            hit, value = test(pending, u_a, u_b)
            first = 0
        else:
            # row j holds every pending lane's (used + j)-th proposal
            lanes = np.tile(pending, k)
            steps = np.arange(used, used + k, dtype=np.uint64)[:, None]
            u_a, u_b = uniform_pair_block(config.seed, idx[lanes], (cursor[pending] + steps).ravel())
            accept, value = test(lanes, u_a, u_b)
            seen = np.logical_or.accumulate(accept.reshape(k, -1), axis=0)
            hit = seen[-1]
            # a lane's rows before its first acceptance are the unseen ones
            first = (k - seen.sum(axis=0))[hit]
        # integer gathers and compress: a boolean index costs several times more
        at = np.flatnonzero(hit)
        done = pending[at]
        values[done] = value.reshape(k, -1)[first, at]
        spent[done] = used + first + 1
        pending = np.compress(~hit, pending)
        used += k
    spent[pending] = used
    cursor += spent
    return values, int(spent.sum()), pending


def _squeeze_bounds(table):
    """Bounds lo[j] <= 4 rho(lam) <= hi[j] for lam in the j-th of
    :data:`_SQUEEZE_BINS` equal bins over [0, 2pi), from the closed form at
    the bin edges (``table`` is the phase density).

    4 rho = inverse_n / tau is 1-Lipschitz in lam, since
    ||cos u| - |cos v|| <= |u - v| and the exponential weight integrates to
    tau.  So on a bin [a, b] it lies within (b - a) / 2 = pi / M of the
    mean of its edge values, kinks included; the margin
    :data:`_SQUEEZE_MARGIN` covers rounding.
    """
    knots = _ENVELOPE_SCALE * table(np.linspace(0.0, TWO_PI, _SQUEEZE_BINS + 1))
    mid = 0.5 * (knots[:-1] + knots[1:])
    half = math.pi / _SQUEEZE_BINS + _SQUEEZE_MARGIN
    return mid - half, mid + half


def _squeeze(bounds, u_a, u_b):
    """The phase accept test ``u_b < 4 rho(2 pi u_a)`` as far as the bin
    bounds decide it: (accepted, undecided), where the undecided lanes lie
    between their bin's bounds and need the density itself."""
    lo, hi = bounds
    j = (u_a * _SQUEEZE_BINS).astype(np.intp)
    accept = u_b < lo[j]
    return accept, ~accept & (u_b < hi[j])


def generate_events(config: SimConfig, start: int, stop: int) -> EventBatch:
    """Generate the events with indices in [start, stop), drawn at tau = 1
    and delta_m = x, with t1 and t2 then scaled by tau; stats cover the range."""
    if not 0 <= start <= stop <= config.n_events:
        raise ValueError(f"invalid event range [{start}, {stop})")
    if start == stop:
        raise ValueError("empty event range")
    params = ModelParams(1.0, config.params.x)
    dm = params.delta_m
    table = rho_table(params)
    bounds = _squeeze_bounds(table)
    n = stop - start
    idx = np.arange(start, stop, dtype=np.uint64)
    cursor = np.zeros(n, dtype=np.uint64)

    def lambda_test(lanes, u_a, u_b):
        prop = TWO_PI * u_a
        accept, undecided = _squeeze(bounds, u_a, u_b)
        near = np.flatnonzero(undecided)
        accept[near] = u_b[near] < _ENVELOPE_SCALE * table(prop[near])
        return accept, prop

    lam, lambda_proposals, left = _first_accepted(config, idx, cursor, lambda_test)
    if left.size:
        raise RejectionOverflowError("lambda")

    # t1 takes u_a of one pair; u_b is the symmetrization coin
    u_a, coin = uniform_pair_block(config.seed, idx, cursor)
    cursor += 1
    t1 = -np.log1p(-u_a)
    flavour1 = flavour_window_codes(lam, t1, params)

    def t2_test(lanes, u_a, u_b):
        t_prop = -np.log1p(-u_a)
        return u_b < np.abs(np.cos(lam[lanes] - dm * t_prop)), t_prop

    t2, t2_proposals, left = _first_accepted(config, idx, cursor, t2_test)
    if left.size:
        raise RejectionOverflowError("t2", lam=float(lam[left[0]]))
    # the sign of the cosine that accepted each t2 fixes its flavour
    flavour2 = np.where(np.cos(lam - dm * t2) > 0.0, np.int8(Flavour.B0), np.int8(Flavour.B0BAR))

    swapped = np.zeros(n, dtype=bool)
    if config.symmetrized:
        swapped = coin < 0.5
        t1, t2 = np.where(swapped, t2, t1), np.where(swapped, t1, t2)
        flavour1, flavour2 = (
            np.where(swapped, flavour2, flavour1),
            np.where(swapped, flavour1, flavour2),
        )
    if config.params.tau != 1.0:
        t1 *= config.params.tau
        t2 *= config.params.tau

    return EventBatch(
        index=idx,
        lam=lam,
        t1=t1,
        flavour1=flavour1,
        t2=t2,
        flavour2=flavour2,
        swapped=swapped,
        config=config,
        rng_stats=RngStats(n, lambda_proposals, t2_proposals),
    )


@contextlib.contextmanager
def _thread_pool(workers: int):
    """A pool of ``workers`` threads.

    On exit, by an error or an interrupt too, items not yet started are
    cancelled, and the threads end once their current item does.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def generate(config: SimConfig, workers=1) -> EventBatch:
    """Generate the full batch in blocks of :data:`GENERATE_BLOCK_EVENTS`
    events on at most ``workers`` threads (:func:`_thread_pool`), or on the
    threads of ``workers`` if it is an executor, shared with other work.

    Each block runs :func:`generate_events` and fills its own slice of the
    result columns, so peak temporary memory is set by the block size and
    the worker count, not by ``n_events``.  The result is byte-identical
    for any worker count because every event owns its own substream.
    """
    n = config.n_events
    blocks = [(start, min(start + GENERATE_BLOCK_EVENTS, n))
              for start in range(0, n, GENERATE_BLOCK_EVENTS)]
    columns = {field: np.empty(n, dtype) for field, _, dtype in _COLUMNS}

    def fill(block):
        start, stop = block
        part = generate_events(config, start, stop)
        for column, values in zip(columns.values(), part.columns().values()):
            column[start:stop] = values
        return part.rng_stats

    with (contextlib.nullcontext(workers) if isinstance(workers, concurrent.futures.Executor)
          else _thread_pool(min(workers, len(blocks)))) as pool:
        stats = list(pool.map(fill, blocks))
    columns["swapped"] = columns["swapped"].view(np.bool_)
    return EventBatch(
        **columns,
        config=config,
        rng_stats=RngStats(n, sum(s.lambda_proposals for s in stats),
                           sum(s.t2_proposals for s in stats)),
    )


# ---------------------------------------------------------------------------
# event file round trip

def _format_rows(index, lam, t1, flavour1, t2, flavour2, swapped) -> bytes:
    """The event-file rows of one block of columns, one line per event, as
    ASCII bytes formatted column by column (:mod:`bmixlhv.reporting`): the
    floats as ``repr``, the flavours as their labels, the flag as 0 or 1."""
    return text_rows([
        uint_text(index),
        float_text(lam),
        float_text(t1),
        _LABEL_TEXT.take(flavour1, axis=0),
        float_text(t2),
        _LABEL_TEXT.take(flavour2, axis=0),
        (swapped.astype(np.uint8) + np.uint8(ord("0")))[:, None],
    ])


def write_events(batch: EventBatch, path, workers: int = 1) -> None:
    """Write the delimited event file: a comment header of the batch's
    configuration, its fingerprint and acceptance stats, then one row per
    event.

    Rows are formatted column-wise, as bytes, by :func:`_format_rows` in
    blocks of :data:`WRITE_CHUNK_ROWS` on ``min(workers, blocks)`` threads
    (:func:`_thread_pool`, as :func:`generate` samples), and written in order
    as they return.  The bytes are those of one ``repr`` per float; they
    depend neither on ``workers`` nor on the block size, and the file
    appears under ``path`` only once it is complete.  An error or an
    interrupt cancels the blocks not yet started and leaves any previous
    file under ``path`` as it was.

    Raises ``ValueError``, and writes nothing, for a batch whose file
    ``read_events`` would refuse by :func:`_check_rows`.
    """
    _check_rows(batch.columns(), batch.config.n_events, ValueError)
    starts = range(0, len(batch), WRITE_CHUNK_ROWS)
    # one list of block slices per column, in _format_rows' argument order
    columns = [[column[start:start + WRITE_CHUNK_ROWS] for start in starts]
               for column in batch.columns().values()]
    with _thread_pool(min(workers, len(starts))) as pool, open_atomic(path, binary=True) as fh:
        texts = pool.map(_format_rows, *columns)
        fh.write(_header_text(batch).encode("utf-8"))
        for text in texts:
            fh.write(text)


def _header_text(batch: EventBatch, **fields) -> str:
    """The comment header of an event file of ``batch``: its fingerprint,
    configuration, acceptance stats and column list, then ``fields``."""
    header = comment_header(batch.config_fingerprint, **_config_fields(batch.config),
                            **batch.rng_stats.as_dict(),
                            columns=",".join(label for _, label, _ in _COLUMNS),
                            **fields)
    return "".join(line + "\n" for line in header)


def write_event_columns(batch: EventBatch, path) -> None:
    """Write the binary event file: the header of :func:`write_events` with
    a ``body_version=`` (:data:`BODY_VERSION`) and a ``body_sha256=`` line
    more, then each column in turn as its :data:`_COLUMNS` dtype.

    The columns are hashed and written one by one, with no copy of the body.
    Raises ``ValueError``, and writes nothing, for a batch that
    :func:`_check_rows` refuses; the file appears under ``path`` only once
    it is complete.
    """
    _check_rows(batch.columns(), batch.config.n_events, ValueError)
    columns = [np.ascontiguousarray(column, dtype)
               for column, (_, _, dtype) in zip(batch.columns().values(), _COLUMNS)]
    digest = hashlib.sha256()
    for column in columns:
        digest.update(column)
    header = _header_text(batch, body_version=BODY_VERSION, body_sha256=digest.hexdigest())
    with open_atomic(path, binary=True) as fh:
        fh.write(header.encode("utf-8"))
        for column in columns:
            fh.write(column)


def _check_rows(columns: dict, n: int, error: type[Exception]) -> None:
    """The row rules of an event file, run by ``write_events`` on a batch and
    by ``read_events`` on what it parsed: ``n`` rows in each column, indices
    0..n-1 in order, 0/1 swap flags, phases in [0, 2pi), finite nonnegative
    times and B0/B0bar flavour codes.  Raises ``error`` naming the first
    row, counted from 0, of the first rule broken."""
    if any(column.shape != (n,) for column in columns.values()):
        raise error(f"every column must hold the n_events={n} rows")
    lam, t1, t2 = columns["lam"], columns["t1"], columns["t2"]
    # block by block: an n-long arange would raise every writer's and the
    # reader's peak memory by 8 bytes per event
    misplaced = np.empty(n, dtype=bool)
    for start in range(0, n, GENERATE_BLOCK_EVENTS):
        stop = min(start + GENERATE_BLOCK_EVENTS, n)
        misplaced[start:stop] = columns["index"][start:stop] != np.arange(start, stop,
                                                                          dtype=np.uint64)
    rules = [
        (misplaced, "is out of order: its index is not its position"),
        (columns["swapped"] > 1, "has a swapped flag other than 0 or 1"),
        # NaN fails every comparison, so this rule also rejects it
        (~((lam >= 0.0) & (lam < TWO_PI)) | ~((t1 >= 0.0) & (t1 < np.inf))
         | ~((t2 >= 0.0) & (t2 < np.inf)), "has an impossible value: lambda must lie "
         "in [0, 2pi), t1 and t2 must be finite and nonnegative"),
        *(((columns[name] != Flavour.B0) & (columns[name] != Flavour.B0BAR),
           f"has an unknown {name} label (flavour codes must be those of B0 and B0bar)")
          for name in ("flavour1", "flavour2")),
    ]
    for bad, problem in rules:
        rows = np.flatnonzero(bad)
        if rows.size:
            raise error(f"row {rows[0]} {problem}")


def _flavour_codes(labels: np.ndarray) -> np.ndarray:
    """The flavour code of each label; 0 for an unknown label."""
    codes = np.zeros(labels.shape, dtype=np.int8)
    for flavour in Flavour:
        codes[labels == flavour.label.encode()] = flavour
    return codes


def _read_columns(path, start: int, end: int, header: dict, n: int) -> dict:
    """The columns of the binary body in bytes [start, end) of the event
    file ``path``, as :func:`write_event_columns` lays them out.

    Checks the body's version and its length against ``n`` before it
    allocates, then its sha256 against the header's ``body_sha256``.
    """
    version = header.get("body_version", "missing")
    if version != str(BODY_VERSION):
        raise EventFileError(f"event file body version is {version}; "
                             f"this version reads body version {BODY_VERSION} only")
    expected = n * EVENT_BYTES
    if end - start != expected:
        raise EventFileError(f"event file body holds {end - start} bytes, its header says "
                             f"n_events={n}, which take {expected}")
    body = bytearray(expected)
    with open(path, "rb") as fh:
        fh.seek(start)
        complete = fh.readinto(body) == expected
    if not complete or hashlib.sha256(body).hexdigest() != header["body_sha256"]:
        raise EventFileError("event file body does not match its body_sha256 digest")
    columns, offset = {}, 0
    for field, _, dtype in _COLUMNS:
        columns[field] = np.frombuffer(body, dtype, n, offset)
        offset += n * dtype.itemsize
    return columns


def _parse_rows(path, start: int, end: int, n: int) -> dict:
    """The columns of the delimited body in bytes [start, end) of the event
    file ``path``, with flavour codes (0 for an unknown label) and swapped
    flags as parsed, in one streaming ``numpy.loadtxt`` pass; raises
    :class:`EventFileError` unless they hold exactly ``n`` rows that parse."""
    # a row that parses holds 11 bytes at least ("0,0,0,,0,,0") and all but
    # the last a newline, so no more fit in the body, whatever n_events says.
    # loadtxt allocates max_rows rows up front and parses none past them: if
    # size + 1 rows parse (so size is n), the file is overlong
    size = min(n, (end - start + 1) // 12)
    with open(path, "rb") as fh, warnings.catch_warnings():
        # loadtxt warns of an empty body and of each blank line; neither is a row
        warnings.filterwarnings("ignore", "(loadtxt: input|Input line .*) contained no data",
                                UserWarning)
        fh.seek(start)
        try:
            rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                              max_rows=size + 1, ndmin=1)
        except ValueError as exc:
            raise EventFileError(f"malformed event row: {exc}") from None
    if rows.size != n:
        found = f"more than {n}" if rows.size > n else rows.size
        raise EventFileError(f"event file has {found} rows, its header says n_events={n}")
    return {field: _flavour_codes(rows[field]) if field.startswith("flavour") else rows[field]
            for field in _ROW_DTYPE.names}


def read_events(path) -> EventBatch:
    """Read an event file, delimited or binary, into the batch it was written
    from; validates the header against its own fingerprint and proposal
    counts, and the rows against the header.

    The header ends at the first line that does not start with ``#``, or
    just after a ``body_sha256`` line, whatever follows it.  With that line,
    the body is binary (:func:`write_event_columns`): its version, length
    and digest are checked by :func:`_read_columns` before any row rule.
    Otherwise the rows are parsed in one pass by :func:`_parse_rows`.

    Raises :class:`EventFileError` unless the file holds exactly
    ``n_events`` well-formed rows that keep the row rules of
    :func:`_check_rows`, under a UTF-8 header of generator
    :data:`GENERATOR_VERSION` that holds every configuration field and
    acceptance statistic, with :data:`MAX_REJECTION_ITERS` as its budget and
    acceptance rates equal to those the :class:`RngStats` of its proposal
    counts gives.
    Rows are counted from the first row of the file, blank lines not
    included.  A row that does not parse is named in ``numpy.loadtxt``'s
    words, which count a bad value from 0 and a wrong column count from 1;
    the checks here count from 0.
    """
    header: dict[str, str] = {}
    with open(path, "rb") as fh:
        for line in fh:
            if line.startswith(b"#"):
                try:
                    key, _, value = line[1:].decode("utf-8").strip().partition("=")
                except UnicodeDecodeError:
                    raise EventFileError("event file header is not UTF-8 text") from None
                header[key] = value
                if key == "body_sha256":
                    break
            elif line.rstrip(b"\n"):
                fh.seek(-len(line), os.SEEK_CUR)
                break
        body = (fh.tell(), os.fstat(fh.fileno()).st_size)

    try:
        fingerprint = header["fingerprint"]
        config = SimConfig(
            params=ModelParams(float(header["tau"]), float(header["delta_m"])),
            n_events=int(header["n_events"]),
            seed=int(header["seed"]),
            symmetrized=bool(int(header["symmetrized"])),
        )
        budget = int(header["max_rejection_iters"])
        stats = RngStats(config.n_events, int(header["lambda_proposals"]),
                         int(header["t2_proposals"]))
        rates = (float(header["lambda_acceptance_rate"]), float(header["t2_acceptance_rate"]))
    except KeyError as exc:
        raise EventFileError(f"event file header is missing {exc}") from None
    except ValueError as exc:
        raise EventFileError(f"invalid event file header: {exc}") from None
    if header.get("generator") != str(GENERATOR_VERSION):
        raise EventFileError(f"event file is from generator {header.get('generator', '1')}; "
                             f"this version reads generator {GENERATOR_VERSION} files only "
                             "(generator 1 wrote no generator line)")
    if budget != MAX_REJECTION_ITERS:
        raise EventFileError(f"event file was drawn with max_rejection_iters={budget}; "
                             f"this version draws with {MAX_REJECTION_ITERS} only")
    if config_fingerprint(config) != fingerprint:
        raise EventFileError("event file fingerprint does not match its header fields")
    if rates != (stats.lambda_acceptance_rate, stats.t2_acceptance_rate):
        raise EventFileError("event file acceptance rates do not match its proposal counts")

    n = config.n_events
    if "body_sha256" in header:
        columns = _read_columns(path, *body, header, n)
    else:
        columns = _parse_rows(path, *body, n)
    _check_rows(columns, n, EventFileError)
    columns["swapped"] = columns["swapped"].view(np.bool_)
    return EventBatch(**columns, config=config, rng_stats=stats)
