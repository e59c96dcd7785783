"""Atomic file writes: a file is replaced whole or left as it was."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path):
    """Yield a text file that replaces ``path`` when the block completes.

    Writes go to a ``.tmp`` sibling. If the block raises, the sibling is
    removed and ``path`` keeps its earlier contents.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
