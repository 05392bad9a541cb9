"""Byte-deterministic emission of reports as text.

Reports are aligned text (``.txt``), YAML (``.yaml`` — chosen over JSON
because every artifact must open with a ``# fingerprint=`` comment line,
which YAML tolerates and JSON cannot) and CSV (``.csv``).  No timestamps,
no environment-dependent values; floats are serialized with ``repr``
(shortest round-trip form), so identical inputs give identical bytes.

Whole float columns take the same text from :func:`float_text`, which runs
Dragonbox (Junekey Jeon, 2020, https://github.com/jk-jeon/dragonbox) on
numpy ``uint64`` lanes and calls ``repr`` only for rare values outside it;
:func:`text_rows` joins such columns into delimited rows.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import os
import secrets
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "comment_header",
    "csv_columns",
    "fingerprint_of_mapping",
    "float_text",
    "format_value",
    "open_atomic",
    "table_text",
    "text_rows",
    "uint_text",
    "write_float_columns",
    "write_text",
    "yaml_tree",
]

TEXT_BLOCK_ROWS = 16_384  # rows formatted at a time; 8192 is as fast, 4096 40 % slower


def fingerprint_of_mapping(mapping: dict) -> str:
    """sha256 of the sorted canonical key=value text of a flat mapping."""
    text = "".join(f"{k}={format_value(mapping[k])}\n" for k in sorted(mapping))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        # float() strips numpy scalar wrappers, whose repr is not the bare
        # number; np.float64 subclasses float so it lands here too
        return repr(float(value))
    return str(value)


def comment_header(fingerprint: str, **fields) -> list[str]:
    """Leading comment lines; the fingerprint always comes first."""
    lines = [f"# fingerprint={fingerprint}"]
    lines.extend(f"# {key}={format_value(val)}" for key, val in fields.items())
    return lines


def table_text(headers, rows, fingerprint: str, **header_fields) -> str:
    """Aligned text table with the standard comment header."""
    formatted = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in formatted)) if formatted else len(h)
        for i, h in enumerate(headers)
    ]
    out = comment_header(fingerprint, **header_fields)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in formatted:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def yaml_tree(data, fingerprint: str, **header_fields) -> str:
    """YAML document with the standard comment header."""
    head = "\n".join(comment_header(fingerprint, **header_fields))
    body = yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
    return head + "\n" + body


def csv_columns(headers, rows, fingerprint: str, **header_fields) -> str:
    """CSV document with the standard comment header."""
    buf = io.StringIO()
    for line in comment_header(fingerprint, **header_fields):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# column-wise text of numbers
#
# A text matrix holds one value per row, its ASCII bytes in order among NUL
# bytes, which text_rows drops.  Every operand of the integer kernel is
# np.uint64: numpy 1.24 makes uint64 combined with int64 float64.

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# the biased exponents of _shortest's exact lanes: doubles in [2**-328, 2**50),
# which repr writes with at most two exponent digits, positionally from 1e-4 up
_E_MIN, _E_MAX = 695, 1072
_WIDTH = 32  # float_text's columns: eight 4-byte groups, for 32-byte mask rows
_ZERO, _NUL, _EXPONENT = 10_000, 10_001, 10_002  # group numbers after "9999"


@functools.cache
def _text_tables():
    """Built on first use: per biased exponent, Dragonbox's 128-bit cache as
    32-bit limbs, high first, beta, delta and k - 2; the 4-byte groups "0000"
    to "9999", "0" after three NULs, NULs and "e-00" to "e-99"; the masks."""
    constants = np.zeros((7, 2048), np.uint64)
    for e in range(_E_MIN, _E_MAX + 1):
        # the double is m * 2**(e - 1075); Dragonbox scales it by 10**k
        k = 2 + len(str(2 ** (1075 - e)))  # 2 - floor(log10 2**(e - 1075))
        shift = (10**k).bit_length() - 128
        cache = -(-10**k >> shift) if shift > 0 else 10**k << -shift  # in [2**127, 2**128)
        beta = e - 948 + shift  # e - 1075 + floor(log2 10**k)
        constants[:, e] = [*(cache >> s & 0xFFFFFFFF for s in (96, 64, 32, 0)),
                           beta, cache >> (127 - beta), k - 2]
    groups = np.array([b"%04d" % g for g in range(10_000)] + [b"\0\0\0" b"0", b""]
                      + [b"e-%02d" % g for g in range(100)], "S4").view(np.uint32)
    col = np.arange(_WIDTH)
    q, lead = (a.reshape(-1, 1) for a in np.divmod(np.arange(_WIDTH**2), _WIDTH))
    layout = [(lead <= col) & (col < q), col > q - (lead >= q),
              np.where((col == q) & (lead < q), ord("."), 0)]
    return constants, groups, [mask.astype(np.uint8) for mask in layout]


def _hi64(a, b1, b0):
    """floor(a * b / 2**64), exact, for a < 2**63 and b = b1 * 2**32 + b0."""
    a1, a0 = a >> _U(32), a & _LOW32
    mid = ((a0 * b0) >> _U(32)) + a1 * b0
    return a1 * b1 + (mid >> _U(32)) + (((mid & _LOW32) + a0 * b1) >> _U(32))


def _parity(f, c3, c2, c1, c0, beta):
    """Parity and integrality of floor(f * c / 2**(128 - beta)), for a
    128-bit c as 32-bit limbs: Dragonbox's compute_mul_parity."""
    low = f * ((c1 << _U(32)) | c0)  # bits 0 to 63 of the product, then 64 to 127
    high = f * ((c3 << _U(32)) | c2) + _hi64(f, c1, c0)
    return (high >> (_U(64) - beta)) & _U(1), ((high << beta) | (low >> (_U(64) - beta))) == _U(0)


def _shortest(bits: np.ndarray):
    """Dragonbox's shortest round-trip digits of each double, nearest to it,
    as (digits, exponent, length, exact): the double is nearest digits *
    10**exponent, and digits has length decimal digits.  One 64-by-128-bit
    product per lane, a second for the lanes near a tie (under 1 %).  Exact
    lanes have a biased exponent in [_E_MIN, _E_MAX], a nonzero mantissa
    (not a power of two's shorter interval) and a negative exponent; others
    are junk.  There the interval's ends times 10**k are odd multiples of
    5**k / 2**j, never integers, so Dragonbox's checks for that are left out.
    """
    e = bits >> _U(52)  # a set sign bit puts e above 2047
    mant = bits & _U(2**52 - 1)
    exact = ((e - _U(_E_MIN)) <= _U(_E_MAX - _E_MIN)) & (mant != _U(0))
    constants = _text_tables()[0].take(e.view(np.int64), axis=1, mode="clip")
    c3, c2, c1, c0, beta, delta, k2 = constants
    fc2 = (mant | _U(2**52)) << _U(1)
    # z: the interval's upper end times 10**k, floored.  s = z // 1000 has two
    # digits fewer than the candidates below, and lies inside the interval
    # if z's remainder r is below delta (the interval's width times 10**k)
    x = (fc2 | _U(1)) << beta
    high = x * ((c3 << _U(32)) | c2)
    z = _hi64(x, c3, c2) + ((high + _hi64(x, c1, c0)) < high)
    s = z // _U(1000)
    r = z - s * _U(1000)
    big = r < delta
    lanes = np.flatnonzero(r == delta)
    if lanes.size:  # then s is inside iff the lower end's floor is odd
        big[lanes] = _parity(fc2[lanes] - _U(1), *constants[:5, lanes])[0]
    # else the digit nearest the double, one place below s
    dist = r - (delta >> _U(1)) + _U(50)
    low = dist // _U(100)
    digits = np.where(big, s, s * _U(10) + low)
    lanes = np.flatnonzero(~big & (dist == low * _U(100)))
    if lanes.size:  # round down past a half, or on a tie to even
        odd, tie = _parity(fc2[lanes], *constants[:5, lanes])
        near = digits[lanes]
        near -= (odd != (dist[lanes] & _U(1))) | (tie & (near & _U(1)).astype(bool))
        digits[lanes] = near
    length = np.add(digits >= _POW10[15], digits >= _POW10[16], dtype=np.int64) + 15
    exponent = big - k2.view(np.int64)
    lanes = np.flatnonzero(big & (s == (s // _U(10)) * _U(10)))
    while lanes.size:  # s's trailing zeros
        digits[lanes] //= _U(10)
        exponent[lanes] += 1
        length[lanes] -= 1
        lanes = lanes[digits[lanes] == (digits[lanes] // _U(10)) * _U(10)]
    return digits, exponent, length, exact & (exponent < 0)


def _groups(values: np.ndarray, out: np.ndarray) -> None:
    """The last 4-digit groups of each uint64, high first, one per column
    of ``out``: eight digits at a time in uint64, split in uint32."""
    for col in range(out.shape[1] - 1, -1, -2):
        high = values // _U(10**8)
        eight = (values - high * _U(10**8)).astype(np.uint32)
        top = eight // np.uint32(10_000)
        np.subtract(eight, top * np.uint32(10_000), out=out[:, col], casting="unsafe")
        if col:
            out[:, col - 1] = top
        values = high


def uint_text(values) -> np.ndarray:
    """Text matrix of ``str(int(v))`` for each v of a uint64 column."""
    values = np.asarray(values, dtype=np.uint64)
    # the width from the bit length, which rounding can only raise; 0's is 1
    odd = values | _U(1)
    guess = (((odd.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1022)) * _U(1233)) >> _U(12)
    width = np.add(guess, odd >= _POW10.take(guess.view(np.int64)), dtype=np.int64)
    widest = int(width.max(initial=1))
    columns = 4 * ((widest + 3) // 4)
    groups = np.empty((values.size, columns // 4), np.intp)
    _groups(values, groups)
    text = _text_tables()[1].take(groups).view(np.uint8)
    # NUL the leading zeros: row w of keep holds the last w columns
    keep = (np.arange(columns) >= columns - np.arange(columns + 1)[:, None]).astype(np.uint8)
    text *= keep.take(width, axis=0)
    return text[:, columns - widest:]


def float_text(values) -> np.ndarray:
    """Text matrix of ``repr(float(v))`` for each v of a float column.

    :func:`_shortest` gives the digits, laid out as repr does (positional
    from 1e-4 up, else scientific) and ending in the last column, where a
    separator adjoins them.  Other lanes, such as zero, negative, integral
    and very small ones, take ``repr``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    _, groups, layout = _text_tables()
    digits, exponent, length, exact = _shortest(values.view(np.uint64))
    decpt = length + exponent  # digits before the point (repr's rule)
    sci = decpt < -3
    n = values.size
    # each row: two NUL groups, "0" after three NULs and the digits
    # zero-padded to 20, or for scientific rows those one group left and "e-XX"
    rows = np.full(8 * n + 1, _NUL, np.intp)  # and the last byte's successor
    cols = rows[:-1].reshape(n, 8)
    cols[:, 2] = _ZERO
    _groups(digits, cols[:, 3:])
    lanes = np.flatnonzero(sci)
    cols[lanes, :-1] = cols[lanes, 1:]
    cols[lanes, -1] = _EXPONENT + 1 - decpt[lanes]
    source = groups.take(rows, mode="clip").view(np.uint8)
    # the point at column q; digits before it shift left one place, from
    # column lead (no point when lead == q: a one-digit scientific body)
    q = np.where(sci, 28 - length, 31 + exponent)
    lead = q - np.where(sci, np.minimum(length - 1, 1), np.maximum(decpt, 1))
    shifted, kept, point = (mask.take(q * _WIDTH + lead, axis=0, mode="clip").reshape(-1)
                            for mask in layout)
    text = source[1:_WIDTH * n + 1] * shifted
    text += source[:_WIDTH * n] * kept
    text += point
    # every text fits the last 24 columns: 22 bytes at most, 24 from repr
    text = text.reshape(n, _WIDTH)[:, -24:]
    other = np.flatnonzero(~exact)
    if other.size:
        text[other] = np.array(list(map(repr, values[other].tolist())),
                               "S24").view(np.uint8).reshape(-1, 24)
    return text


def text_rows(fields) -> bytes:
    """Comma-separated rows, one line each, of text matrices' rows."""
    comma = np.full((fields[0].shape[0], 1), ord(","), np.uint8)
    rows = np.hstack([part for field in fields for part in (field, comma)])
    rows[:, -1] = ord("\n")
    flat = rows.reshape(-1)
    return flat[flat != 0].tobytes()


def write_float_columns(path, columns: dict, fingerprint: str, **header_fields) -> None:
    """Write float columns, keyed by header, as the CSV document
    :func:`csv_columns` makes of them, formatted :data:`TEXT_BLOCK_ROWS` rows
    at a time by :func:`float_text` and :func:`text_rows`."""
    with open_atomic(path, binary=True) as fh:
        fh.write(csv_columns(columns, (), fingerprint, **header_fields).encode("utf-8"))
        for start in range(0, len(next(iter(columns.values()))), TEXT_BLOCK_ROWS):
            fh.write(text_rows([float_text(column[start:start + TEXT_BLOCK_ROWS])
                                for column in columns.values()]))


@contextlib.contextmanager
def open_atomic(path, binary: bool = False):
    """Text handle (a byte handle if ``binary``) onto a temporary file beside
    ``path`` that replaces ``path`` only once the block completes.

    A writer that fails or is interrupted never leaves a partial artifact
    under the final name.  The data is not fsynced: this guards against an
    interrupted process, not against a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    with open_atomic(path) as fh:
        fh.write(text)
