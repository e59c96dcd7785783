"""Atomic file writes: a file is replaced whole or left as it was."""

from __future__ import annotations

import csv
import shutil
from contextlib import contextmanager
from pathlib import Path

from . import parallel


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Yield a file, text or with ``mode="wb"`` binary, that replaces
    ``path`` when the block completes.

    Writes go to a ``.tmp`` sibling. If the block raises, the sibling is
    removed and ``path`` keeps its earlier contents.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open(mode, newline=None if "b" in mode else "") as fh:
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


def _write_part(path: Path, lines, lo: int, hi: int) -> None:
    with path.open("w", newline="") as fh:
        fh.writelines(lines(lo, hi))


def write_lines(path: str | Path, header: str, lines, n: int) -> None:
    """Write ``header`` and then the ``n`` lines that ``lines(lo, hi)``
    yields for rows lo..hi-1 to ``path``, as ``atomic_open`` does.

    The second half of the rows goes to a ``.part`` file beside the
    ``.tmp`` one through ``parallel.beside``, so a forked child writes it
    while this process writes the first half when the text, estimated from
    the first line, is long enough; the part is then appended in chunks and
    removed, also when either half raises.
    """
    nbytes = len("".join(lines(0, 1))) * n
    with atomic_open(path) as fh:
        part = Path(fh.name + ".part")
        try:
            with parallel.beside(_write_part, part, lines, n // 2, n, nbytes=nbytes) as second_half:
                fh.write(header)
                fh.writelines(lines(0, n // 2))
                second_half()
            with part.open(newline="") as rest:
                shutil.copyfileobj(rest, fh)
        finally:
            part.unlink(missing_ok=True)
