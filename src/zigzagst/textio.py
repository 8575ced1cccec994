"""ASCII text files: readers walk ``lines`` or ``distinct_lines``, writers call ``write``."""

import itertools
from collections import Counter
from contextlib import contextmanager
from operator import itemgetter


@contextmanager
def lines(path):
    """``(line number, stripped line)`` pairs of the ASCII file ``path``.

    A ``ValueError`` raised in the ``with`` block, by the walk or by the
    caller handling a line, is raised again as ``"<path>: line <n>: ..."``,
    n being the line in hand (the one past the last once the walk ends) or,
    for a non-ASCII byte, the byte's own line, found by a second walk.
    """
    numbers = itertools.count(1)
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield zip(numbers, map(str.strip, fh))
    except ValueError as exc:
        # zip has drawn the number of the line in hand
        raise _located(path, exc, lambda: next(numbers) - 1) from exc


@contextmanager
def distinct_lines(path):
    """``(stripped line, count)`` pairs of the ASCII file ``path``, one per distinct line.

    The file is counted in one pass before the ``with`` block runs, and
    the pairs come in the order their lines first appear.  A
    ``ValueError`` raised in the block, by the caller handling a pair, is
    raised again as ``"<path>: line <n>: ..."``, n being the first line
    that reads as the pair in hand (the one past the last once the walk
    ends), found by a second walk.  A non-ASCII byte is named as ``lines``
    names it, and before the block runs, so before any bad line.
    """
    numbers = itertools.count()
    counts: Counter = Counter()

    def first_line() -> int:
        k = next(numbers) - 1  # zip has drawn the number of the pair in hand
        line = list(counts)[k] if 0 <= k < len(counts) else None
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return next((n for n, text in enumerate(fh, 1) if text.strip() == line),
                        counts.total() + 1)

    try:
        with open(path, "r", encoding="ascii") as fh:
            split = fh.read().split("\n")  # text mode reads every line end as "\n"
        if split[-1] == "":
            split.pop()  # what follows the last line end is a line only if not empty
        counts.update(map(str.strip, split))  # one C-level pass
        yield map(itemgetter(1), zip(numbers, counts.items()))
    except ValueError as exc:
        raise _located(path, exc, first_line) from exc


def _located(path, exc: ValueError, lineno) -> ValueError:
    """``exc`` as ``"<path>: line <n>: ..."``; ``lineno()`` gives n unless a byte is not ASCII.

    Text mode decodes ahead, so a non-ASCII byte's line is found by a walk of its own.
    """
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            n = next((n for n, line in enumerate(fh, 1) if "\ufffd" in line), None)
        n = lineno() if n is None else n
        return ValueError(f"{path}: line {n}: byte 0x{exc.object[exc.start]:02x} is not ASCII")
    return ValueError(f"{path}: line {lineno()}: {exc}")


def write(path, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
