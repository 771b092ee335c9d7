"""Deterministic random-number helpers.

Every generator in this package takes an explicit integer seed; nothing in
the library consults global random state, so experiments are exactly
reproducible run-to-run.

The generators fill their columns through one draw kernel,
:func:`draw_columns`: ``randrange``'s rejection rule inlined over
``getrandbits``, so a draw costs one C call instead of ``randrange``'s two
Python frames around that same call, while the stream consumed and every
value stay exactly those of a per-row ``randrange`` loop.
"""

from __future__ import annotations

import random
import zlib
from array import array
from itertools import repeat
from typing import Sequence


def make_rng(seed: int, *salt: object) -> random.Random:
    """A `random.Random` seeded from ``seed`` and an optional salt tuple
    (so sub-generators draw independent, reproducible streams).

    The salt is folded in with CRC32 over its repr -- stable across
    processes, unlike ``hash()`` on strings."""
    if salt:
        seed = (seed * 0x9E3779B1 + zlib.crc32(repr(salt).encode())) & 0x7FFFFFFF
    return random.Random(seed)


def draw_columns(
    rng: random.Random, ranges: Sequence[tuple[int, int]], count: int
) -> list[array]:
    """``count`` rows of ``rng.randrange(a, b)`` per ``(a, b)`` in
    ``ranges``, drawn row-major (row 0's draws left to right, then row
    1's, ...), one ``array('q')`` per range.

    Each draw is ``randrange``'s own: ``k = (b - a).bit_length()`` bits
    from ``rng.getrandbits``, drawn again while the result is ``>= b - a``.
    So the values and the state ``rng`` is left in are identical to the
    loop this replaces (``tests/data/test_draws.py`` holds them equal).
    ``rng`` must take its randomness from ``getrandbits``, as
    ``random.Random`` and :func:`make_rng`'s generators do."""
    getrandbits = rng.getrandbits
    columns = [array("q") for _ in ranges]
    draws = []
    for column, (a, b) in zip(columns, ranges):
        n = b - a
        if n <= 0:
            raise ValueError(f"empty range for a draw: ({a}, {b})")
        draws.append((column.append, a, n, n.bit_length()))
    for _ in repeat(None, count):
        for append, a, n, k in draws:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append(a + r)
    return columns
