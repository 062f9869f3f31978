"""Line-oriented text serialization helpers shared by the report writers.

All floats are written with 17 significant digits so that parsing them back
reproduces the double exactly.  Report files are written atomically (tmp file
plus rename) so a crashed run never leaves a half-written report behind.
"""
from __future__ import annotations

import os
import tempfile

FLOAT_FMT = ".17g"
SUMMARY_FMT = ".6g"


def fmt(x: float) -> str:
    """Full-precision decimal text for a float."""
    return format(float(x), FLOAT_FMT)


def fmt6(x: float) -> str:
    """Compact 6-digit form used in summary tables."""
    return format(float(x), SUMMARY_FMT)


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return "(%s,%s)" % (fmt(z.real), fmt(z.imag))


def matrix_lines(mat, complex_entries: bool = False) -> list[str]:
    rows = []
    for row in mat:
        if complex_entries:
            rows.append("  " + " ".join(fmt_complex(z) for z in row))
        else:
            rows.append("  " + " ".join(fmt(x) for x in row))
    return rows


def parse_kv_text(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Parse 'key: value' lines plus indented block sections.

    A line 'name:' with no value opens a block; subsequent indented lines
    belong to it.  Returns (scalars, blocks).  '#' starts a comment.
    """
    scalars: dict[str, str] = {}
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for raw in text.splitlines():
        if raw.strip().startswith("#") or not raw.strip():
            continue
        if raw[0] in " \t":
            if current is None:
                raise ValueError("indented line outside any block: %r" % raw)
            current.append(raw.strip())
            continue
        current = None
        if ":" not in raw:
            raise ValueError("expected 'key: value', got %r" % raw)
        key, _, val = raw.partition(":")
        key = key.strip()
        val = val.strip()
        if val:
            scalars[key] = val
        else:
            blocks[key] = []
            current = blocks[key]
    return scalars, blocks


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-oslab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
