"""Byte-deterministic emission of reports in the three output formats.

Formats: ``table-text`` (aligned, human-readable), ``machine-tree`` (YAML —
chosen over JSON because every artifact must open with a ``# fingerprint=``
comment line, which YAML tolerates and JSON cannot), and
``delimited-columns`` (CSV).  No timestamps, no environment-dependent
values; floats are serialized with ``repr`` (shortest round-trip form), so
identical inputs give identical bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import secrets
from pathlib import Path

import yaml

__all__ = [
    "FORMATS",
    "comment_header",
    "csv_columns",
    "fingerprint_of_mapping",
    "format_value",
    "open_atomic",
    "table_text",
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
