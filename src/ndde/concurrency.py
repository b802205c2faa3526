"""Worker count of the program, which runs on one thread."""

from __future__ import annotations


def thread_count() -> int:
    return 1
