"""Test-side builders shared by several test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from floodgauge.entropy_core import FlowRecordSeries


def series_of_rows(rows, metadata):
    """A run from checked (window, flow ids, counts) rows, built as read_series builds one."""
    series = FlowRecordSeries.__new__(FlowRecordSeries)
    series._check(metadata)
    series._take_rows(rows)
    return series


def odd_numbers(low, high):
    """Numbers a caller might pass: bools, fractions, NaN and numpy scalars beside ints in
    low..high and floats."""
    return st.one_of(
        st.booleans(),
        st.fractions(-10, 10, max_denominator=3),
        st.just(math.nan),
        st.integers(low, high).map(np.int64),
        st.floats(-10, 10, width=32).map(np.float32),
        st.integers(low, high),
        st.floats(-10, 10),
    )
