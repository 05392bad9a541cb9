"""Byte-deterministic emission of reports in the three output formats.

Formats: ``table-text`` (aligned, human-readable), ``machine-tree`` (YAML —
chosen over JSON because every artifact must open with a ``# fingerprint=``
comment line, which YAML tolerates and JSON cannot), and
``delimited-columns`` (CSV).  No timestamps, no environment-dependent
values; floats are serialized with ``repr`` (shortest round-trip form), so
identical inputs give identical bytes.

Whole float columns take the same text from :func:`float_text`, which
runs the common case of Ryu (Adams, PLDI 2018) on numpy ``uint64`` lanes
and calls ``repr`` only for the rare values outside it; :func:`text_rows`
joins such columns into delimited rows.
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
    "FORMATS",
    "comment_header",
    "csv_columns",
    "fingerprint_of_mapping",
    "float_text",
    "format_value",
    "open_atomic",
    "table_text",
    "text_rows",
    "uint_text",
    "write_text",
    "yaml_tree",
]

FORMATS = ("table-text", "machine-tree", "delimited-columns")

FORMAT_SUFFIX = {
    "table-text": ".txt",
    "machine-tree": ".yaml",
    "delimited-columns": ".csv",
}


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
_BODY = 22  # a float's digits and point; "e-XXX" follows


@functools.cache
def _text_tables():
    """Built on first use: Ryu's 5**i (i < 326) to 125 bits as 32-bit limbs,
    low first; "0000".."9999" as uint32; float_text's layout and exponents."""
    pow5 = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    limbs = np.array([[(p >> s) & 0xFFFFFFFF for p in pow5] for s in (0, 32, 64, 96)], np.uint64)
    groups = np.array([b"%04d" % g for g in range(10_000)], "S4").view(np.uint32)
    k = np.arange(_BODY)
    q, lead = (a.reshape(-1, 1) for a in np.divmod(np.arange(_BODY**2), _BODY))
    point = np.where((k == q) & (q < _BODY - 1), ord("."), 0)
    layout = np.hstack([(lead <= k) & (k < q), k > q, point]).astype(np.uint8)
    exponent = np.array([b""] + [b"e-%02d" % e for e in range(1, 330)], "S5")
    return limbs, groups, layout, exponent.view(np.uint8).reshape(-1, 5)


def _decimal_digits(values: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of each uint64, zero-padded: an (n, 20) matrix."""
    groups = np.empty((values.size, 5), np.intp)
    for col in range(4, -1, -1):
        high = values // _U(10_000)
        groups[:, col] = values - high * _U(10_000)
        values = high
    return _text_tables()[1].take(groups).view(np.uint8)


def uint_text(values) -> np.ndarray:
    """Text matrix of ``str(int(v))`` for each v of a uint64 column."""
    values = np.asarray(values, dtype=np.uint64)
    width = np.searchsorted(_POW10, values, side="right").clip(1)
    text = _decimal_digits(values) * (np.arange(20) >= 20 - width[:, None])
    return text[:, 20 - width.max(initial=1):]


def _mul_shift(m: np.ndarray, limbs: list, j: np.ndarray) -> np.ndarray:
    """floor(m * p / 2**j), exact, for m < 2**55, a 125-bit p as 32-bit
    limbs, and 118 <= j <= 121: the product's columns carry in 64 bits."""
    a0, a1 = m & _LOW32, m >> _U(32)
    b0, b1, b2, b3 = limbs
    carry = (a0 * b0) >> _U(32)
    for low, high in ((b1, b0), (b2, b1)):
        x = a0 * low
        s = (x & _LOW32) + a1 * high + carry
        carry = (x >> _U(32)) + (s >> _U(32))
    s = a0 * b3 + a1 * b2 + carry  # bits 96 and up of the product
    return ((a1 * b3 + (s >> _U(32))) << (_U(128) - j)) + ((s & _LOW32) >> (j - _U(96)))


def _drop_digit(vr, vp, vm, last, removed) -> np.ndarray:
    """One step of Ryu's digit-removal loop, in place, on the lanes whose
    bounds vp and vm still differ above their last digit; returns them."""
    vp10, vm10, vr10 = vp // _U(10), vm // _U(10), vr // _U(10)
    go = vp10 > vm10
    step = go.astype(np.uint64)
    last += (vr - vr10 * _U(10) - last) * step
    for v, v10 in ((vr, vr10), (vp, vp10), (vm, vm10)):
        v -= (v - v10) * step
    removed += step
    return go


def _shortest(bits: np.ndarray):
    """Ryu's shortest round-trip digits of each double, as (digits,
    exponent, exact): the double is nearest digits * 10**exponent.  Exact
    lanes are Ryu's common case with a negative binary exponent (normal,
    positive, below 2**50, not the trailing-zero case); others are junk."""
    e = bits >> _U(52)  # a set sign bit puts e above 2047
    mant = bits & _U(2**52 - 1)
    exact = (e >= _U(1)) & (e <= _U(1072))
    ne2 = _U(1077) - e.clip(_U(1), _U(1072))  # the double is mv / 2**(ne2 + 2)
    q = ((ne2 * _U(732923)) >> _U(20)) - _U(1)  # floor(log10(5**ne2)) - 1
    i = ne2 - q  # vr, vp and vm count units of 10**-i
    j = q + _U(124) - ((i * _U(1217359)) >> _U(19))  # q + 125 - bit length of 5**i
    mv = (mant | _U(2**52)) << _U(2)
    q = np.minimum(q, _U(63))
    exact &= (mv >> q) << q != mv
    mm_shift = ((mant != _U(0)) | (e <= _U(1))).astype(np.uint64)
    pow5 = [limb.take(i) for limb in _text_tables()[0]]
    state = [_mul_shift(m, pow5, j) for m in (mv, mv + _U(2), mv - _U(1) - mm_shift)]
    state += [np.zeros_like(mv), np.zeros_like(mv)]  # last digit dropped, digits dropped
    for _ in range(3):  # nearly every lane drops one to three digits
        go = _drop_digit(*state)
    lanes = np.flatnonzero(go)
    if lanes.size:
        rest = [column[lanes] for column in state]
        while _drop_digit(*rest).any():
            pass
        for column, part in zip(state, rest):
            column[lanes] = part
    vr, _, vm, last, removed = state
    digits = vr + ((vr == vm) | (last >= _U(5))).astype(np.uint64)
    return digits, removed.astype(np.int64) - i.astype(np.int64), exact


def float_text(values) -> np.ndarray:
    """Text matrix of ``repr(float(v))`` for each v of a float column.

    :func:`_shortest` gives the digits, laid out as repr does: positional
    from 1e-4 up (exact lanes stay below 1e16), else scientific.  Zero,
    negative, subnormal, non-finite and other inexact lanes take ``repr``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    _, _, layout, exponent = _text_tables()
    digits, exp10, exact = _shortest(values.view(np.uint64))
    length = np.searchsorted(_POW10, digits, side="right")
    # digits before the point (repr's rule); exp10 < 0, as integers are inexact lanes
    decpt = length + exp10
    sci = decpt < -3
    # "0" and the digits with a point at column q, NULs before column lead
    q = np.where(sci, _BODY - length, _BODY - 1 + exp10)
    lead = q - np.where(sci, 1, np.maximum(decpt, 1))
    d = np.zeros((values.size, _BODY + 1), np.uint8)
    d[:, 1] = ord("0")
    d[:, 2:-1] = _decimal_digits(digits)
    rows = layout.take(q * _BODY + lead, axis=0, mode="clip")
    text = np.empty((values.size, _BODY + 5), np.uint8)
    np.multiply(d[:, 1:], rows[:, :_BODY], out=text[:, :_BODY])
    text[:, :_BODY] += d[:, :-1] * rows[:, _BODY:-_BODY] + rows[:, -_BODY:]
    text[:, _BODY:] = exponent.take(np.where(sci, 1 - decpt, 0), axis=0, mode="clip")
    other = np.flatnonzero(~exact)
    if other.size:
        text[other] = 0
        text[other, :24] = np.array(list(map(repr, values[other].tolist())),
                                    "S24").view(np.uint8).reshape(-1, 24)
    return text


def text_rows(fields) -> bytes:
    """Comma-separated rows, one line each, of text matrices' rows."""
    comma = np.full((fields[0].shape[0], 1), ord(","), np.uint8)
    rows = np.hstack([part for field in fields for part in (field, comma)])
    rows[:, -1] = ord("\n")
    flat = rows.reshape(-1)
    return flat[flat != 0].tobytes()


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
