"""ASCII text files: every reader walks ``lines``, every writer calls ``write``."""

import itertools
from contextlib import contextmanager


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
        lineno, message = next(numbers) - 1, exc  # zip has drawn the number of the line in hand
        if isinstance(exc, UnicodeDecodeError):  # text mode decodes ahead: find the byte's line
            with open(path, "r", encoding="ascii", errors="replace") as fh:
                lineno = next((n for n, line in enumerate(fh, 1) if "\ufffd" in line), lineno)
            message = f"byte 0x{exc.object[exc.start]:02x} is not ASCII"
        raise ValueError(f"{path}: line {lineno}: {message}") from exc


def write(path, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
