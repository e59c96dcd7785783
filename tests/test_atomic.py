"""Atomic file replacement."""

import pytest

from ozolasso.atomic import atomic_open


def test_failed_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path) as fh:
        fh.write("earlier\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed mid-write")
    assert path.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [path]
