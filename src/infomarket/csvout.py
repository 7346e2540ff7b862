"""The one CSV writer behind every `write_*_csv` function in the package."""

from __future__ import annotations

import csv


def fmt(x) -> str:
    """Shortest text that round-trips the value as a float."""
    return repr(float(x))


def write_csv(file, header, rows) -> None:
    """Write a header and then `rows`, consumed lazily, to a path or an open text handle.

    A handle is left open for its owner; a path is opened, written and closed.
    """
    if hasattr(file, "write"):
        _write(file, header, rows)
        return
    with open(file, "w", newline="") as f:
        _write(f, header, rows)


def _write(f, header, rows) -> None:
    w = csv.writer(f)
    w.writerow(header)
    w.writerows(rows)
