"""Checks on :class:`~repro.traces.trace.Trace` columns, shared by the
trace, codec, holdout and ingest tests."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Each trace field and the dtype its column is pinned to.
TRACE_DTYPES = (
    ("pcs", np.uint64),
    ("addresses", np.uint64),
    ("writes", np.bool_),
    ("gaps", np.int64),
    ("deps", np.bool_),
)


def column_list(trace, field: str) -> List:
    """One field of ``trace`` as a list of Python values, after
    checking that it is a read-only column of its pinned dtype."""
    column = getattr(trace, field)
    dtype = dict(TRACE_DTYPES)[field]
    assert isinstance(column, np.ndarray), (field, type(column))
    assert column.dtype == dtype, (field, column.dtype)
    assert not column.flags.writeable, field
    return column.tolist()


def trace_lists(trace) -> Tuple[List, ...]:
    """The five fields of ``trace``, each checked by
    :func:`column_list`, so that ``==`` compares them element for
    element."""
    return tuple(column_list(trace, field) for field, _ in TRACE_DTYPES)
