"""Boxed-column tables on packable data.

A table packs every column its data allows (:mod:`repro.storage.packed`);
a column that cannot pack stays a boxed list.  Tests that hold the packed
layouts to the boxed one build the boxed twin with packing switched off:
:func:`boxed_layout` patches ``packed.pack_column`` to keep every column a
plain list while it is active.
"""

from contextlib import contextmanager
from unittest import mock

from repro.storage import packed
from repro.storage.table import Table


def _keep_boxed(values, kind):
    return values if type(values) is list else list(values)


@contextmanager
def boxed_layout():
    """Tables built inside keep every column a boxed list."""
    with mock.patch.object(packed, "pack_column", _keep_boxed):
        yield


def boxed_table(*args, **kwargs) -> Table:
    """``Table(*args, **kwargs)`` with every column a boxed list."""
    with boxed_layout():
        return Table(*args, **kwargs)
