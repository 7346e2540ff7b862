"""The one CSV writer behind every `write_*_csv` function."""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from itertools import islice

# Lines joined into one string per write: a write per line costs more than
# formatting the line.
_LINES_PER_WRITE = 4096


def fmt(x) -> str:
    """Shortest text that round-trips the value as a float.

    Its compiled twin is `_kernel.c`'s `put_repr`, which writes the per-run
    rows of `montecarlo.write_runs_csv` and `write_efficiency_csv` with the
    same text wherever the kernel loads.
    """
    return repr(float(x))


def write_csv(file, header, lines) -> None:
    """Write the column names in `header`, then `lines`, to a path or an open
    text handle.

    Each line is one row's fields joined by commas, and `lines` is consumed
    lazily. Every row ends in "\\r\\n", as `csv.writer` ends it, and no field
    is quoted: every field the package writes is an int, `fmt` text or a
    fixed name, none of which holds a comma, a quote or a line break.
    """
    write_csv_blocks(file, header, _blocks(lines))


def write_csv_blocks(file, header, blocks) -> None:
    """Write the column names in `header`, then each of `blocks`, text of
    whole rows, each row ended in "\\r\\n", to a path or an open text handle
    (`open_csv`)."""
    with open_csv(file, header) as f:
        for block in blocks:
            f.write(block)


@contextmanager
def open_csv(file, header):
    """A path or an open text handle, with the column names in `header`
    written as its first row, for the caller to write whole rows to.

    A path is opened as UTF-8, whatever the locale, and closed on exit; a
    handle is left open for its owner.
    """
    is_path = isinstance(file, (str, os.PathLike))
    with open(file, "w", newline="", encoding="utf-8") if is_path else nullcontext(file) as f:
        f.write(",".join(header) + "\r\n")
        yield f


def _blocks(lines):
    """`lines` as blocks of `_LINES_PER_WRITE` rows each, the last perhaps fewer."""
    lines = iter(lines)
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        chunk.append("")
        yield "\r\n".join(chunk)
