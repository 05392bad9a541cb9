"""Event generation for the shared-phase pair-decay model.

Sampling scheme, per event: the hidden phase comes from envelope rejection
under the constant bound 1/4 (the phase density never exceeds it); the
first decay time is exact inverse-CDF exponential with the window fixing
its flavour; the second decay is an exponential proposal thinned by
|cos(lam - delta_m t)|, the sign of the surviving cosine fixing the
flavour.  Every event consumes its own counter-based substream, so event j
is a pure function of (seed, j): generation partitions freely across
workers with byte-identical output.

:func:`generate` runs in fixed blocks of :data:`GENERATE_BLOCK_EVENTS`
events, each writing its own slice of the preallocated result columns, so
peak temporary memory does not depend on ``n_events``.

The phase accept test evaluates the closed-form phase density
(:func:`bmixlhv.model.rho_table`) on each round's whole array of proposals.
Both rejection loops run in :func:`_first_accepted`, which draws several
consecutive proposals per lane once few lanes are pending, so the few long
t2 chains near lam = pi/2 at small x cost a few rounds, not hundreds.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import os
import signal
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    TWO_PI,
    Flavour,
    ModelParams,
    flavour_window_codes,
    rho_table,
)
from .reporting import comment_header, format_value, open_atomic
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
    "write_events",
]

_ENVELOPE_SCALE = 4.0  # acceptance prob = rho / (1/4) = 4 * rho

EVENT_COLUMNS = ("index", "lambda", "t1", "flavour1", "t2", "flavour2", "swapped")

# rows formatted per block and write; bounds the text each process holds,
# a few MB.  No output byte depends on it.
WRITE_CHUNK_ROWS = 32_768

# event-file body bytes parsed per block, each block extended to end at a
# newline; bounds the text and rows each process holds, a few MB.  No
# result or message depends on it.
READ_BLOCK_BYTES = 2 << 20

# events generated per block; keeps the sampler's temporaries (Philox
# buffers included) cache-sized.  No output byte depends on it.
GENERATE_BLOCK_EVENTS = 65_536

# uniform pairs a rejection round draws at least, an eighth of a block (an
# eighth of the range for a shorter range): once few lanes are pending, each
# draws several proposals per round
_MIN_DRAWS_PER_CALL = GENERATE_BLOCK_EVENTS // 8

# dtype of each EventBatch column as generated
_COLUMN_DTYPES = {
    "index": np.uint64,
    "lam": np.float64,
    "t1": np.float64,
    "flavour1": np.int8,
    "t2": np.float64,
    "flavour2": np.int8,
    "swapped": np.bool_,
}

# label text by flavour code; code 0 is unused
_LABEL_BY_CODE = np.array([None, Flavour.B0.label, Flavour.B0BAR.label], dtype=object)

# one parsed event row.  The labels get one byte more than the longest
# label, so a longer field, which loadtxt truncates, still fails the exact
# label comparison
_ROW_DTYPE = np.dtype(list(zip(EVENT_COLUMNS, ("u8", "f8", "f8", "S6", "f8", "S6", "u1"))))


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
    max_rejection_iters: int = 10_000

    def __post_init__(self) -> None:
        if self.n_events < 1:
            raise ValueError(f"n_events must be at least 1, got {self.n_events}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.max_rejection_iters < 1:
            raise ValueError("max_rejection_iters must be at least 1")


def _config_fields(config: SimConfig) -> dict:
    """The configuration as the ordered fields of its canonical text form,
    which the fingerprint hashes and the event-file header repeats."""
    return {
        "tau": config.params.tau,
        "delta_m": config.params.delta_m,
        "n_events": config.n_events,
        "seed": config.seed,
        "symmetrized": config.symmetrized,
        "max_rejection_iters": config.max_rejection_iters,
    }


def config_fingerprint(config: SimConfig) -> str:
    """sha256 over the canonical text form of the configuration."""
    text = "".join(f"{key}={format_value(val)}\n" for key, val in _config_fields(config).items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RngStats:
    lambda_acceptance_rate: float
    t2_acceptance_rate: float
    lambda_proposals: int
    t2_proposals: int

    @classmethod
    def from_proposals(cls, n: int, lambda_proposals: int, t2_proposals: int) -> "RngStats":
        """Stats of ``n`` accepted events drawn from the given proposal counts;
        each event takes at least one proposal per stage."""
        if min(lambda_proposals, t2_proposals) < n:
            raise ValueError(f"proposal counts must be at least the {n} events")
        return cls(n / lambda_proposals, n / t2_proposals, lambda_proposals, t2_proposals)


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            self.config == other.config
            and self.rng_stats == other.rng_stats
            and all(
                np.array_equal(getattr(self, f), getattr(other, f)) for f in _COLUMN_DTYPES
            )
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
    pending when the per-lane budget ``max_rejection_iters`` ran out.

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
    while pending.size and used < config.max_rejection_iters:
        k = min(-(-floor // pending.size), config.max_rejection_iters - used)
        # row j holds every pending lane's (used + j)-th proposal
        lanes = np.tile(pending, k)
        steps = np.arange(used, used + k, dtype=np.uint64)[:, None]
        u_a, u_b = uniform_pair_block(config.seed, idx[lanes], (cursor[pending] + steps).ravel())
        accept, value = test(lanes, u_a, u_b)
        seen = np.logical_or.accumulate(accept.reshape(k, -1), axis=0)
        hit = seen[-1]
        # a lane's rows before its first acceptance are the unseen ones
        first = (k - seen.sum(axis=0))[hit]
        done = pending[hit]
        values[done] = value.reshape(k, -1)[first, np.flatnonzero(hit)]
        spent[done] = used + first + 1
        pending = pending[~hit]
        used += k
    spent[pending] = used
    cursor += spent
    return values, int(spent.sum()), pending


def generate_events(config: SimConfig, start: int, stop: int) -> EventBatch:
    """Generate the events with indices in [start, stop); stats cover the range."""
    if not 0 <= start <= stop <= config.n_events:
        raise ValueError(f"invalid event range [{start}, {stop})")
    if start == stop:
        raise ValueError("empty event range")
    params = config.params
    tau, dm = params.tau, params.delta_m
    table = rho_table(params)
    n = stop - start
    idx = np.arange(start, stop, dtype=np.uint64)
    cursor = np.zeros(n, dtype=np.uint64)

    def lambda_test(lanes, u_a, u_b):
        prop = TWO_PI * u_a
        return u_b < _ENVELOPE_SCALE * table(prop), prop

    lam, lambda_proposals, left = _first_accepted(config, idx, cursor, lambda_test)
    if left.size:
        raise RejectionOverflowError("lambda")

    u_a, _ = uniform_pair_block(config.seed, idx, cursor)
    cursor += 1
    t1 = -tau * np.log1p(-u_a)
    flavour1 = flavour_window_codes(lam, t1, params)

    def t2_test(lanes, u_a, u_b):
        t_prop = -tau * np.log1p(-u_a)
        return u_b < np.abs(np.cos(lam[lanes] - dm * t_prop)), t_prop

    t2, t2_proposals, left = _first_accepted(config, idx, cursor, t2_test)
    if left.size:
        raise RejectionOverflowError("t2", lam=float(lam[left[0]]))
    # the sign of the cosine that accepted each t2 fixes its flavour
    flavour2 = np.where(np.cos(lam - dm * t2) > 0.0, np.int8(Flavour.B0), np.int8(Flavour.B0BAR))

    swapped = np.zeros(n, dtype=bool)
    if config.symmetrized:
        u_a, _ = uniform_pair_block(config.seed, idx, cursor)
        swapped = u_a < 0.5
        t1, t2 = np.where(swapped, t2, t1), np.where(swapped, t1, t2)
        flavour1, flavour2 = (
            np.where(swapped, flavour2, flavour1),
            np.where(swapped, flavour1, flavour2),
        )

    return EventBatch(
        index=idx,
        lam=lam,
        t1=t1,
        flavour1=flavour1,
        t2=t2,
        flavour2=flavour2,
        swapped=swapped,
        config=config,
        rng_stats=RngStats.from_proposals(n, lambda_proposals, t2_proposals),
    )


def generate(config: SimConfig, workers: int = 1) -> EventBatch:
    """Generate the full batch in blocks of :data:`GENERATE_BLOCK_EVENTS`
    events on a pool of at most ``workers`` threads.

    Each block runs :func:`generate_events` and fills its own slice of the
    result columns, so peak temporary memory is set by the block size and
    the worker count, not by ``n_events``.  The result is byte-identical
    for any worker count because every event owns its own substream.
    """
    n = config.n_events
    if workers < 1:
        raise ValueError("workers must be at least 1")
    blocks = [(start, min(start + GENERATE_BLOCK_EVENTS, n))
              for start in range(0, n, GENERATE_BLOCK_EVENTS)]
    columns = {name: np.empty(n, dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()}

    def fill(block):
        start, stop = block
        part = generate_events(config, start, stop)
        for name, column in columns.items():
            column[start:stop] = getattr(part, name)
        return part.rng_stats

    with concurrent.futures.ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        stats = list(pool.map(fill, blocks))
    return EventBatch(
        **columns,
        config=config,
        rng_stats=RngStats.from_proposals(n, sum(s.lambda_proposals for s in stats),
                                          sum(s.t2_proposals for s in stats)),
    )


# ---------------------------------------------------------------------------
# event file round trip

@contextlib.contextmanager
def _fork_map(fn, workers: int, *sequences):
    """``map(fn, *sequences)``, results in order, on a pool of
    ``min(workers, len(sequences[0]))`` forked processes when that is above
    1, else in this process.

    Every item is submitted, forking every worker, on entry; on exit the
    pool is shut down, and items not yet started are cancelled.
    """
    workers = min(workers, len(sequences[0]))
    pool = None
    if workers > 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # fork, not spawn (each worker would re-import numpy and the package)
        # nor forkserver (its server outlives the pool).  With fork, the
        # executor of Python >= 3.11 forks every worker before it starts its
        # manager thread (CPython issue 90622), so no fork sees a thread of
        # its own.  Workers ignore SIGINT, so an interrupt reaches only this
        # process, which shuts the pool down.  Without fork the items are
        # mapped here.
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=multiprocessing.get_context("fork"),
                                       initializer=signal.signal,
                                       initargs=(signal.SIGINT, signal.SIG_IGN))
    if pool is None:
        yield map(fn, *sequences)
        return
    try:
        yield pool.map(fn, *sequences)
    finally:
        pool.shutdown(cancel_futures=True)


def _format_rows(index, lam, t1, flavour1, t2, flavour2, swapped) -> str:
    """The event-file rows of one block of columns, one line per event."""
    rows = zip(
        index.tolist(),
        lam.tolist(),
        t1.tolist(),
        _LABEL_BY_CODE[flavour1].tolist(),
        t2.tolist(),
        _LABEL_BY_CODE[flavour2].tolist(),
        swapped.astype(np.uint8).tolist(),
    )
    return "".join([
        f"{i},{lam!r},{t1!r},{f1},{t2!r},{f2},{sw}\n"
        for i, lam, t1, f1, t2, f2, sw in rows
    ])


def write_events(batch: EventBatch, path, workers: int = 1) -> None:
    """Write the delimited event file: a comment header of the batch's
    configuration, its fingerprint and acceptance stats, then one row per
    event.

    Rows are formatted column-wise by :func:`_format_rows` in blocks of
    :data:`WRITE_CHUNK_ROWS`, by :func:`_fork_map`: with ``workers`` above 1
    and more than one block, on ``min(workers, blocks)`` forked processes,
    which end before the call returns.  The blocks are written in order as
    they return.  The bytes depend neither on ``workers`` nor on the block
    size, and the file appears under ``path`` only once it is complete.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    for codes in (batch.flavour1, batch.flavour2):
        if not np.isin(codes, (Flavour.B0, Flavour.B0BAR)).all():
            raise ValueError("flavour codes must be those of B0 and B0bar")
    starts = range(0, len(batch), WRITE_CHUNK_ROWS)
    # one list of block slices per column, in _format_rows' argument order
    columns = [[getattr(batch, name)[start:start + WRITE_CHUNK_ROWS] for start in starts]
               for name in _COLUMN_DTYPES]
    header = comment_header(batch.config_fingerprint, **_config_fields(batch.config),
                            **asdict(batch.rng_stats), columns=",".join(EVENT_COLUMNS))
    # _fork_map submits every block, forking the workers, before the file is
    # opened, so no worker inherits an unflushed buffer of it
    with _fork_map(_format_rows, workers, *columns) as texts, open_atomic(path) as fh:
        fh.write("".join(line + "\n" for line in header))
        for text in texts:
            fh.write(text)


def _reject_rows(bad: np.ndarray, problem: str) -> None:
    rows = np.flatnonzero(bad)
    if rows.size:
        raise EventFileError(f"row {rows[0]} {problem}")


def _flavour_codes(labels: np.ndarray) -> np.ndarray:
    """The flavour code of each label; 0 for an unknown label."""
    codes = np.zeros(labels.shape, dtype=np.int8)
    for flavour in Flavour:
        codes[labels == flavour.label.encode()] = flavour
    return codes


def _block_cuts(fh, start: int, end: int) -> list[int]:
    """Offsets that cut bytes [start, end) of ``fh`` into blocks of about
    :data:`READ_BLOCK_BYTES`, each but the last ending just after a newline."""
    cuts = [start]
    for nominal in range(start + READ_BLOCK_BYTES, end, READ_BLOCK_BYTES):
        if nominal > cuts[-1]:  # else a line longer than a block covers it
            fh.seek(nominal - 1)
            fh.readline()
            cuts.append(fh.tell())
    if cuts[-1] < end:
        cuts.append(end)
    return cuts


def _parse_block(path, start: int, stop: int) -> list:
    """The rows in bytes [start, stop) of the event file ``path`` as
    EventBatch columns, with flavour codes (0 for an unknown label) and
    swapped flags as parsed.  Raises loadtxt's ValueError."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    rows = np.empty(0, dtype=_ROW_DTYPE)
    if data.strip(b"\n"):  # loadtxt warns of a block of blank lines
        rows = np.loadtxt(io.BytesIO(data), dtype=_ROW_DTYPE, delimiter=",", comments=None,
                          ndmin=1)
    return [rows["index"], rows["lambda"], rows["t1"], _flavour_codes(rows["flavour1"]),
            rows["t2"], _flavour_codes(rows["flavour2"]), rows["swapped"]]


def read_events(path, workers: int = 1) -> EventBatch:
    """Parse an event file into the batch it was written from; validates the
    header against its own fingerprint and proposal counts, and the rows
    against the header.

    The body is parsed by :func:`_parse_block` in blocks of about
    :data:`READ_BLOCK_BYTES`, each ending at a newline, by
    :func:`_fork_map`: with ``workers`` above 1 and more than one block, on
    ``min(workers, blocks)`` forked processes, which end before the call
    returns.  The blocks fill preallocated columns in file order.  Neither
    the batch nor any message depends on ``workers`` or on the block size.

    Raises :class:`EventFileError` unless the file holds exactly
    ``n_events`` well-formed rows with indices ``0..n_events-1`` in order,
    ``B0``/``B0bar`` labels, 0/1 swap flags, phases in [0, 2pi) and finite
    nonnegative decay times, under a UTF-8 header that holds every
    configuration field and acceptance statistic, with acceptance rates
    equal to those :meth:`RngStats.from_proposals` gives for its proposal
    counts.  Rows are counted from
    the first row of the file, blank lines not included.  A row that does
    not parse is named in ``numpy.loadtxt``'s words, which count a bad value
    from 0 and a wrong column count from 1; the checks here count from 0.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    header: dict[str, str] = {}
    with open(path, "rb") as fh:
        for line in fh:
            if line.startswith(b"#"):
                try:
                    key, _, value = line[1:].decode("utf-8").strip().partition("=")
                except UnicodeDecodeError:
                    raise EventFileError("event file header is not UTF-8 text") from None
                header[key] = value
            elif line.rstrip(b"\n"):
                fh.seek(-len(line), os.SEEK_CUR)
                break
        cuts = _block_cuts(fh, fh.tell(), os.fstat(fh.fileno()).st_size)

    try:
        fingerprint = header["fingerprint"]
        config = SimConfig(
            params=ModelParams(float(header["tau"]), float(header["delta_m"])),
            n_events=int(header["n_events"]),
            seed=int(header["seed"]),
            symmetrized=bool(int(header["symmetrized"])),
            max_rejection_iters=int(header["max_rejection_iters"]),
        )
        stats = RngStats.from_proposals(config.n_events, int(header["lambda_proposals"]),
                                        int(header["t2_proposals"]))
        rates = (float(header["lambda_acceptance_rate"]), float(header["t2_acceptance_rate"]))
    except KeyError as exc:
        raise EventFileError(f"event file header is missing {exc}") from None
    except ValueError as exc:
        raise EventFileError(f"invalid event file header: {exc}") from None
    if config_fingerprint(config) != fingerprint:
        raise EventFileError("event file fingerprint does not match its header fields")
    if rates != (stats.lambda_acceptance_rate, stats.t2_acceptance_rate):
        raise EventFileError("event file acceptance rates do not match its proposal counts")

    n = config.n_events
    # a row that parses holds 11 bytes at least ("0,0,0,,0,,0") and all but
    # the last a newline, so the columns never outgrow the body, whatever
    # n_events says.  The swapped flags stay uint8 until they are checked
    size = min(n, (cuts[-1] - cuts[0] + 1) // 12)
    columns = {name: np.empty(size, dtype=dtype)
               for name, dtype in {**_COLUMN_DTYPES, "swapped": np.uint8}.items()}
    filled = 0  # rows parsed so far
    try:
        with _fork_map(_parse_block, workers, [path] * (len(cuts) - 1),
                       cuts[:-1], cuts[1:]) as parts:
            for part in parts:
                count = part[0].size
                filled += count
                if filled > size:  # then size is n: the file is overlong
                    break
                for column, values in zip(columns.values(), part):
                    column[filled - count:filled] = values
    except ValueError:
        # a row does not parse, and leaving the pool cancelled the other
        # blocks.  One streaming parse of the body names the row in
        # loadtxt's words, counted from the file's first row.  loadtxt
        # allocates max_rows rows up front; if size + 1 rows parse (so size
        # is n), the file is overlong, whatever follows
        del columns
        with open(path, "rb") as fh, warnings.catch_warnings():
            # a blank line does not count towards max_rows, nor is it a row
            warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
            fh.seek(cuts[0])
            try:
                np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                           max_rows=size + 1)
            except ValueError as exc:
                raise EventFileError(f"malformed event row: {exc}") from None
        filled = n + 1

    if filled != n:
        found = f"more than {n}" if filled > n else filled
        raise EventFileError(f"event file has {found} rows, its header says n_events={n}")
    _reject_rows(columns["index"] != np.arange(n, dtype=np.uint64),
                 "is out of order: its index is not its position")
    _reject_rows(columns["swapped"] > 1, "has a swapped flag other than 0 or 1")
    # NaN fails every comparison, so each test below also rejects it
    _reject_rows(~((columns["lam"] >= 0.0) & (columns["lam"] < TWO_PI))
                 | ~((columns["t1"] >= 0.0) & (columns["t1"] < np.inf))
                 | ~((columns["t2"] >= 0.0) & (columns["t2"] < np.inf)),
                 "has an impossible value: lambda must lie in [0, 2pi), "
                 "t1 and t2 must be finite and nonnegative")
    for name in ("flavour1", "flavour2"):
        _reject_rows(columns[name] == 0, f"has an unknown {name} label")
    columns["swapped"] = columns["swapped"].view(np.bool_)
    return EventBatch(**columns, config=config, rng_stats=stats)
