"""The one CSV writer behind every `write_*_csv` function, and the path-or-handle
opener it shares with the tick reader."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager


def fmt(x) -> str:
    """Shortest text that round-trips the value as a float."""
    return repr(float(x))


@contextmanager
def text_file(file, mode: str = "r"):
    """Yield a text handle for `file`: a path or an already open handle.

    A path is opened in `mode` and closed on exit; a handle is passed through
    and left open for its owner.
    """
    if isinstance(file, (str, os.PathLike)):
        with open(file, mode, newline="") as f:
            yield f
    else:
        yield file


def write_csv(file, header, rows) -> None:
    """Write a header and then `rows`, consumed lazily, to a path or an open text handle."""
    with text_file(file, "w") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
