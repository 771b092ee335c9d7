"""The draw kernel is ``randrange``, value for value and state for state.

* **Differential** -- for any seed, list of ranges and row count,
  :func:`repro.data.rng.draw_columns` returns exactly the columns a
  row-major ``randrange`` loop appends, and leaves the generator in the
  same state.  Widths cover 1, 2, powers of two and their neighbours
  (where the rejection rule decides), widths past 2**32 (``getrandbits``
  draws more than one word) and negative starts.
* **Budget** -- the SSB and TPC-H generators make no ``randrange`` call
  at all, and exactly as many ``getrandbits`` calls as the ``randrange``
  loops they replace made (one per draw, rejections included).
"""

import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.data.rng as rngmod
from repro.data.rng import draw_columns
from repro.data.ssb import _generate_ssb
from repro.data.tpch import _generate_tpch


def randrange_loop(rng, ranges, count):
    """The reference: one ``randrange`` call per draw, row-major."""
    columns = [array("q") for _ in ranges]
    for _ in range(count):
        for column, (a, b) in zip(columns, ranges):
            column.append(rng.randrange(a, b))
    return columns


widths = st.one_of(
    st.integers(1, 3),
    st.integers(1, 62).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
    st.integers(2**32, 2**62),
)
ranges = st.lists(
    st.tuples(st.integers(-(2**40), 2**40), widths).map(lambda aw: (aw[0], aw[0] + aw[1])),
    min_size=1,
    max_size=8,
)

LINEORDER_RANGES = [(1, 51), (90_000, 1_100_000), (0, 11), (1, 3001), (1, 2001), (1, 2401), (0, 2555)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), ranges=ranges, count=st.integers(0, 40))
@example(seed=42, ranges=LINEORDER_RANGES, count=200)
@example(seed=0, ranges=[(0, 1), (-5, -3), (7, 2**32 + 7), (0, 2**33 + 1)], count=30)
def test_draw_columns_is_the_randrange_loop(seed, ranges, count):
    kernel, reference = random.Random(seed), random.Random(seed)
    got = draw_columns(kernel, ranges, count)
    assert got == randrange_loop(reference, ranges, count)
    assert all(type(c) is array and c.typecode == "q" for c in got)
    assert kernel.getstate() == reference.getstate()


@pytest.mark.parametrize("bad", [(3, 3), (5, 2)])
def test_an_empty_range_is_refused(bad):
    with pytest.raises(ValueError):
        draw_columns(random.Random(1), [(0, 4), bad], 1)


@pytest.mark.parametrize(
    "generate, args, getrandbits",
    [
        # The per-row randrange loops drew these with 437,200 and 54,000
        # randrange calls.
        (_generate_ssb, (30, 42), 594_185),
        (_generate_tpch, (1, 42), 75_124),
    ],
)
def test_generators_draw_through_getrandbits_only(monkeypatch, generate, args, getrandbits):
    calls = {"randrange": 0, "getrandbits": 0}

    class CountingRandom(random.Random):
        def randrange(self, *args):
            calls["randrange"] += 1
            return super().randrange(*args)

        def getrandbits(self, k):
            calls["getrandbits"] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(rngmod, "random", SimpleNamespace(Random=CountingRandom))
    generate.__wrapped__(*args)
    assert calls == {"randrange": 0, "getrandbits": getrandbits}
